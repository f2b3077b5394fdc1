import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sc, sci
from test_repmod import _family_with_a
from virab.classify import (
    CandidateFamily,
    CanonicalParams,
    InfeasibilityCertificate,
    check_W_commutation,
    check_constraints,
    extract_h_coeffs,
    isom_decide,
    solve_candidate,
    solve_from_generators,
    _a_in_W0,
    _deg_a,
    _g_shape,
    _record,
    _report,
)
from virab.grammar import parse_bipoly
from virab.polynomials import BiPoly, format_bipoly
from virab.repmod import (
    Family,
    GenericFamily,
    ModuleSpec,
    generic_act_L,
    generic_act_W,
    twist_poly,
    verify_module,
)
from virab.scalars import I, MINUS_ONE, ONE, ZERO, intpow


def candidate_for(spec: ModuleSpec, window: int = 4) -> GenericFamily:
    return GenericFamily.from_spec(spec, window)


def recover(spec: ModuleSpec, window: int = 4):
    return solve_candidate(candidate_for(spec, window))


def test_round_trip_generic_b():
    spec = ModuleSpec.phi(b=sc(3), lam=sc(2), alpha=ZERO, coeffs=(ONE, ZERO, sc(2)))
    out = recover(spec)
    assert isinstance(out, CanonicalParams)
    assert out.family is Family.PHI
    assert out.lam == sc(2) and out.alpha == ZERO
    assert out.coeffs == (ONE, ZERO, sc(2))


def test_round_trip_b_minus_one_with_alpha():
    spec = ModuleSpec.phi(b=MINUS_ONE, lam=ONE, alpha=ONE, coeffs=(ZERO, ONE))
    out = recover(spec)
    assert isinstance(out, CanonicalParams)
    assert out.lam == ONE and out.alpha == ONE and out.coeffs == (ZERO, ONE)


def test_round_trip_b_plus_one_with_alpha():
    spec = ModuleSpec.phi(b=ONE, lam=sc(-2), alpha=sc("3/2"), coeffs=(ONE,))
    out = recover(spec)
    assert isinstance(out, CanonicalParams)
    assert out.alpha == sc("3/2") and out.lam == sc(-2)


def test_round_trip_alpha_invisible_away_from_selectors():
    # away from b = +-1 the twist never enters the action, so recovery
    # reports the normalized alpha = 0 regardless of the label on the input
    spec = ModuleSpec.phi(b=sc("-1/2"), lam=sc(3), alpha=ZERO, coeffs=(sc("1/3"),))
    out = recover(spec, window=5)
    assert isinstance(out, CanonicalParams)
    assert out.alpha == ZERO and out.coeffs == (sc("1/3"),)


def test_round_trip_exceptional_recursion_index():
    # b = -1/2 makes the weight 1 + b*m of the w-linear instance (m, 1)
    # vanish at m = 2; the solve must still land on the exact input
    spec = ModuleSpec.phi(b=sc("-1/2"), lam=sci(1, 1), alpha=ZERO, coeffs=(ZERO, sc(2)))
    out = recover(spec, window=5)
    assert isinstance(out, CanonicalParams)
    assert out.lam == sci(1, 1) and out.coeffs == (ZERO, sc(2))


def test_round_trip_theta():
    spec = ModuleSpec.theta(lam=sc(2), coeffs=(ZERO, ONE, ONE))
    out = recover(spec)
    assert isinstance(out, CanonicalParams)
    assert out.family is Family.THETA
    assert out.coeffs == (ZERO, ONE, ONE)
    spec = ModuleSpec.theta(lam=sc("-1/2"), coeffs=())
    out = recover(spec)
    assert isinstance(out, CanonicalParams) and out.coeffs == ()


B_VALUES = ("-1", "-1/2", "-1/3", "0", "1/3", "1/2", "1", "2", "3")
gaussians = st.builds(lambda re, den, im: sci(Fraction(re, den), im),
                      st.integers(-4, 4), st.integers(1, 3),
                      st.integers(-2, 2))


@st.composite
def module_specs(draw) -> ModuleSpec:
    """phi at b values that include every b = +-1/k (k = 1, 2, 3) making
    a w-linear weight 1 + b*m or b*m - 1 vanish inside small windows, or
    theta; Gaussian lambda, alpha and coefficients."""
    lam = draw(gaussians.filter(bool))
    coeffs = draw(st.lists(gaussians, max_size=3))
    b = draw(st.sampled_from(B_VALUES + ("theta",)))
    if b == "theta":
        return ModuleSpec.theta(lam=lam, coeffs=coeffs)
    return ModuleSpec.phi(b=sc(b), lam=lam, alpha=draw(gaussians),
                          coeffs=coeffs)


@given(spec=module_specs(), window=st.integers(1, 6))
def test_solve_recovers_canonical_params(spec, window):
    out = recover(spec, window)
    assert isinstance(out, CanonicalParams)
    assert out.family is spec.family
    assert isom_decide(out, CanonicalParams(
        spec.family, spec.lam, spec.alpha, spec.coeffs), spec.b)


_SHAPES = {"deg-g", "b-scalar", "a-in-W0"}
# the kinds check_constraints sweeps that the solver also certifies
_SWEPT = _SHAPES | {"lw-compat", "b-power", "deg-a", "w-linear-A",
                    "w-linear-B"}


def _pass_skipped(kind: str, failures) -> bool:
    """Did check_constraints skip its pass of this kind?  A shape failure
    skips every later pass, b-power at (1, -1) (lambda = 0) every pass
    after it, and deg-a the w-linear pass."""
    if kind in _SHAPES:
        return False
    seen = {f.constraint for f in failures}
    if seen & _SHAPES:
        return True
    if kind in ("lw-compat", "b-power"):
        return False
    if any((f.constraint, f.indices) == ("b-power", (1, -1))
           for f in failures):
        return True
    return kind.startswith("w-linear") and "deg-a" in seen


# one perturbation at a seed m = +-1: move the t part (A) or the constant
# part (B) of a_m, or zero it; add an L0 or a t^2 term to a_m; add an
# L0^2 or an L0*t term to g_m, or scale its L0 coefficient; or make a != 0
PERTURBATIONS = ("A", "B", "zero", "a-L0", "a-t2", "g-s2", "g-st", "g-L0",
                 "a")


@given(spec=module_specs(), window=st.integers(1, 5),
       m=st.sampled_from((1, -1)), part=st.sampled_from(PERTURBATIONS),
       delta=gaussians.filter(bool))
def test_w_linear_certificates_re_evaluate_on_the_input(
        spec, window, m, part, delta):
    base = candidate_for(spec, window)
    a, a_m, g_m = base.a, dict(base.a_m), dict(base.g_m)
    if part == "zero":
        a_m[m] = BiPoly.zero()
    elif part == "a":
        a = delta
    else:
        entries, (i, j) = {
            "A": (a_m, (0, 1)), "B": (a_m, (0, 0)), "a-L0": (a_m, (1, 0)),
            "a-t2": (a_m, (0, 2)), "g-s2": (g_m, (2, 0)),
            "g-st": (g_m, (1, 1)), "g-L0": (g_m, (1, 0)),
        }[part]
        c = delta * intpow(spec.lam, m) if part == "g-L0" else delta
        entries[m] = entries[m] + BiPoly.monomial(i, j, c)
    fam = GenericFamily(a, base.b, window, a_m, g_m)
    out = solve_candidate(fam)
    if spec.family is Family.PHI and part in ("A", "B") and a_m[m]:
        # a moved part of a nonzero phi seed breaks a crossed instance
        assert out.constraint == f"w-linear-{part}"
    if not isinstance(out, InfeasibilityCertificate):
        return
    # a certificate of a swept kind is, by string, an entry of the sweep
    if out.constraint == "W-commutation":
        failures = check_W_commutation(fam).failures
    else:
        failures = check_constraints(fam).failures
        if (out.constraint not in _SWEPT
                or _pass_skipped(out.constraint, failures)):
            return
    assert (out.constraint, out.indices, out.residue_text) in [
        (f.constraint, f.indices, f.residue) for f in failures]


def test_nonzero_a_yields_certificate():
    spec = ModuleSpec.phi(b=sc(2), lam=ONE, alpha=ZERO, coeffs=())
    base = candidate_for(spec)
    fam = GenericFamily(a=ONE, b=base.b, window=base.window, a_m=base.a_m, g_m=base.g_m)
    out = solve_candidate(fam)
    assert isinstance(out, InfeasibilityCertificate)
    assert out.constraint == "lw-compat"
    assert out.indices[0] == 0
    assert not parse_bipoly(out.residue_text).is_zero


def test_scale_branch_spurious_root_rejected():
    # the quadratic the top seed coefficient satisfies has a second root
    # k = (1 - b)/b; planting it must be caught by a later instance, the
    # w-linear-A instance (2, -1) that check_constraints lists on a window
    # with A_2 fixed by (1, 1)
    lam, b = sc(2), sc(3)
    k = (ONE - b) / b
    A1 = k * lam
    Am1 = (b - ONE) / (b * A1 - lam)
    A2 = (A1 * lam + b * A1 * A1) / (ONE + b)
    a_m = {m: BiPoly.monomial(0, 1, c)
           for m, c in ((-2, ZERO), (-1, Am1), (0, ONE), (1, A1), (2, A2))}
    g_m = {m: BiPoly.monomial(1, 0, intpow(lam, m)) for m in range(-2, 3)}
    out = solve_from_generators(b, a_m[1], a_m[-1], g_m[1], g_m[-1])
    assert isinstance(out, InfeasibilityCertificate)
    assert out.constraint == "scale-branch"
    assert out.indices == (2, -1) and out.residue_text == "-20/3"
    failures = check_constraints(GenericFamily(ZERO, b, 2, a_m, g_m)).failures
    assert ("w-linear-A", (2, -1), "-20/3") in [
        (f.constraint, f.indices, f.residue) for f in failures]


def test_scale_branch_rejected_at_b_minus_one():
    # A_2 drops out of the w-linear-A instance (1, 1) at b = -1, and the
    # certificate is that entry, sign included
    lam, b = sc(2), MINUS_ONE
    k = (ONE - b) / b  # k = -2
    A1 = k * lam
    Am1 = (b - ONE) / (b * A1 - lam)
    a_m = {m: BiPoly.monomial(0, 1, c)
           for m, c in ((-2, sc("1/4")), (-1, Am1), (0, ONE), (1, A1), (2, sc(4)))}
    g_m = {m: BiPoly.monomial(1, 0, intpow(lam, m)) for m in range(-2, 3)}
    out = solve_from_generators(b, a_m[1], a_m[-1], g_m[1], g_m[-1])
    assert isinstance(out, InfeasibilityCertificate)
    assert out.constraint == "scale-branch"
    assert out.indices == (1, 1) and out.residue_text == "24"
    failures = check_constraints(GenericFamily(ZERO, b, 2, a_m, g_m)).failures
    assert ("w-linear-A", (1, 1), "24") in [
        (f.constraint, f.indices, f.residue) for f in failures]


def test_degenerate_seeds():
    # both W-seeds zero away from b = 1: no family fits
    out = solve_from_generators(
        sc(2), BiPoly.zero(), BiPoly.zero(),
        BiPoly.s_var().scale(sc(2)), BiPoly.s_var().scale(sc("1/2")),
    )
    assert isinstance(out, InfeasibilityCertificate)
    assert out.constraint == "degenerate-weight"
    # one-sided zero at b = 1 contradicts the W-recursion
    out = solve_from_generators(
        ONE, BiPoly.zero(), BiPoly.t_var(),
        BiPoly.s_var().scale(sc(2)), BiPoly.s_var().scale(sc("1/2")),
    )
    assert isinstance(out, InfeasibilityCertificate)
    assert out.constraint == "W-degenerate"
    # one-sided zero away from b = 1
    out = solve_from_generators(
        sc(3), BiPoly.t_var(), BiPoly.zero(),
        BiPoly.s_var().scale(sc(2)), BiPoly.s_var().scale(sc("1/2")),
    )
    assert isinstance(out, InfeasibilityCertificate)
    assert out.constraint == "degenerate-weight"


def test_w_commutation_failure_is_witnessed():
    fam = GenericFamily(
        a=ZERO, b=ZERO, window=1,
        a_m={-1: BiPoly.t_var(), 0: BiPoly.t_var(), 1: BiPoly.s_var()},
        g_m={-1: BiPoly.s_var(), 0: BiPoly.s_var(), 1: BiPoly.s_var()},
    )
    report = check_W_commutation(fam)
    assert not report.passed
    f = report.failures[0]
    assert f.constraint == "W-commutation"
    assert not parse_bipoly(f.residue).is_zero


@pytest.mark.parametrize("family, idx", [
    (Family.THETA, 1), (Family.THETA, -1), (Family.PHI, 1)])
def test_l0_term_in_seed_a_m_is_certified(family, idx):
    if family is Family.THETA:
        spec = ModuleSpec.theta(lam=sc(2), coeffs=(ONE,))
    else:
        spec = ModuleSpec.phi(b=sc(3), lam=sc(2), alpha=ZERO, coeffs=(ONE,))
    base = candidate_for(spec)
    a_m = dict(base.a_m)
    a_m[idx] = a_m[idx] + BiPoly.monomial(1, 1, sc(2))
    fam = GenericFamily(base.a, base.b, base.window, a_m, base.g_m)
    out = solve_candidate(fam)
    assert isinstance(out, InfeasibilityCertificate)
    if family is Family.PHI:
        # the other seed is nonzero, so [W_-1, W_1] . 1 shows the L0 term,
        # as check_W_commutation lists it
        assert out.constraint == "W-commutation" and out.indices == (-1, 1)
        assert ((-1, 1), out.residue_text) in [
            (f.indices, f.residue) for f in check_W_commutation(fam).failures]
        return
    # theta's other seed is zero and the commutator with it vanishes
    assert out.constraint == "a-in-W0" and out.indices == (idx,)
    assert out.residue_text == "2*s*t"
    shapes = [(f.indices, f.residue) for f in check_constraints(fam).failures]
    assert shapes == [((idx,), "2*s*t")]


def perturbed(base: GenericFamily, a_m=None, g_m=None) -> GenericFamily:
    """base with the given entries added to its a_m and g_m."""
    a = {m: p + (a_m or {}).get(m, BiPoly.zero()) for m, p in base.a_m.items()}
    g = {m: p + (g_m or {}).get(m, BiPoly.zero()) for m, p in base.g_m.items()}
    return GenericFamily(base.a, base.b, base.window, a, g)


def test_window_mismatch_beyond_the_seeds():
    # the seeds at m = +-1 are untouched, so only the window check sees it
    base = candidate_for(
        ModuleSpec.phi(b=sc(2), lam=sc(2), alpha=ZERO, coeffs=(ONE,)))
    fam = perturbed(base, a_m={-4: BiPoly.monomial(0, 3)},
                    g_m={3: BiPoly.t_var()})
    assert not check_constraints(fam).passed
    out = solve_candidate(fam)
    assert isinstance(out, InfeasibilityCertificate)
    # m = -4 comes first in the order m = -N..N
    assert out.constraint == "window-mismatch" and out.indices == (-4,)
    assert out.residue == BiPoly.monomial(0, 3)


@pytest.mark.parametrize("entry", ["a", "g"])
@pytest.mark.parametrize("m", [-4, -3, -2, 2, 3, 4])
def test_window_mismatch_at_every_non_seed_index(entry, m):
    spec = ModuleSpec.phi(b=ONE, lam=I, alpha=sc("3/2"),
                          coeffs=(ONE, sc("-1/3"), sc(2)))
    base = candidate_for(spec)
    assert solve_candidate(base) == CanonicalParams(
        Family.PHI, I, sc("3/2"), (ONE, sc("-1/3"), sc(2)))
    delta = {m: BiPoly({(0, 1): sc("1/2"), (0, 0): I})}
    fam = perturbed(base, **{f"{entry}_m": delta})
    assert not check_constraints(fam).passed
    out = solve_candidate(fam)
    assert isinstance(out, InfeasibilityCertificate)
    assert out.constraint == "window-mismatch" and out.indices == (m,)
    assert out.residue == delta[m]


def _perturbed_g_candidate():
    base = candidate_for(
        ModuleSpec.phi(b=MINUS_ONE, lam=sc(2), alpha=ONE, coeffs=(ONE,)), 3)
    g_m = dict(base.g_m)
    g_m[2] = g_m[2] + BiPoly.monomial(0, 2, sc(5))
    return GenericFamily(base.a, base.b, base.window, base.a_m, g_m)


@pytest.mark.parametrize("make", [_family_with_a,
                                  _perturbed_g_candidate],
                         ids=["a-nonzero", "g-perturbed"])
def test_ll_compat_replays_the_action(make):
    # each ll-compat residue is -([L_m, L_n] . 1) replayed on the data:
    # -(L_m . g_n - L_n . g_m - (n - m) * g_{m+n})
    fam = make()
    want = []
    for m in range(-fam.window, fam.window + 1):
        for n in range(m + 1, fam.window + 1):
            if abs(m + n) > fam.window:
                continue
            res = (generic_act_L(fam, m, fam.g_m[n])
                   - generic_act_L(fam, n, fam.g_m[m])
                   - fam.g_m[m + n].scale(sc(n - m)))
            if res:
                want.append(((m, n), format_bipoly(-res)))
    got = [(f.indices, f.residue) for f in check_constraints(fam).failures
           if f.constraint == "ll-compat"]
    assert want and got == want


def _phi_candidate(a_m=None, g_m=None):
    # a = 0 with lambda = 2, so b_m differs from b_n at m != n; the entries
    # added keep g_m = b_m L0 + d_m and a_m in C[W0]
    base = candidate_for(
        ModuleSpec.phi(b=sc("1/2"), lam=sc(2), alpha=ONE, coeffs=(ONE, I)), 3)
    return perturbed(base, a_m, g_m)


def _perturbed_a_phi_candidate():
    return _phi_candidate(a_m={2: BiPoly.monomial(0, 1, sc(3)),
                               -1: BiPoly.const(sc("-1/2"))},
                          g_m={1: BiPoly.monomial(0, 2, sc(5))})


def _perturbed_g_phi_candidate():
    return _phi_candidate(g_m={2: BiPoly.s_var().scale(sc(3)),
                               -3: BiPoly.const(I)})


@pytest.mark.parametrize("make", [_family_with_a,
                                  _perturbed_a_phi_candidate,
                                  _perturbed_g_phi_candidate],
                         ids=["a-nonzero", "a-perturbed", "g-perturbed"])
def test_lw_compat_replays_the_action(make):
    # each lw-compat residue is -([L_m, W_n] . 1) replayed through the
    # window's operators: -(L_m . a_n - W_n . g_m - (a + n + b*m) a_{m+n})
    fam = make()
    N = fam.window
    want = []
    for m in range(-N, N + 1):
        for n in range(-N, N + 1):
            if abs(m + n) > N:
                continue
            res = (generic_act_L(fam, m, fam.a_m[n])
                   - generic_act_W(fam, n, fam.g_m[m])
                   - fam.a_m[m + n].scale(fam.a.add_int(n) + fam.b.mul_int(m)))
            if res:
                want.append(((m, n), format_bipoly(-res)))
    got = [(f.indices, f.residue) for f in check_constraints(fam).failures
           if f.constraint == "lw-compat"]
    assert want and got == want


@pytest.mark.parametrize("make", [_perturbed_g_candidate,
                                  _perturbed_a_phi_candidate,
                                  _perturbed_g_phi_candidate],
                         ids=["b-minus-one", "a-perturbed", "g-perturbed"])
def test_h_cocycle_replays_ll_compat_on_normalized_data(make):
    # each h-cocycle residue is -([L_m, L_n] . 1) replayed over a = 0 on
    # g_m = L0 + d_m / lambda^m and a_m = w_m, the twist factor
    fam = make()
    N, lam = fam.window, fam.g_m[1].coeff(1, 0)
    alpha = -(fam.a_m[1].coeff(0, 0) / lam)
    idx = range(-N, N + 1)
    g_m = {m: BiPoly.s_var() + BiPoly(
        {k: c for k, c in fam.g_m[m].terms.items() if not k[0]}).scale(
            intpow(lam, -m)) for m in idx}
    data = GenericFamily(ZERO, fam.b, N, {
        m: twist_poly(fam.b, alpha, m) for m in idx}, g_m)
    want = []
    for m in idx:
        for n in range(m + 1, N + 1):
            if abs(m + n) > N:
                continue
            res = (generic_act_L(data, m, g_m[n]) - generic_act_L(data, n, g_m[m])
                   - g_m[m + n].scale(sc(n - m)))
            if res:
                want.append(((m, n), format_bipoly(-res)))
    got = [(f.indices, f.residue) for f in check_constraints(fam).failures
           if f.constraint == "h-cocycle"]
    assert want and got == want


# --- a reference sweep, one formula per instance ---------------------------
#
# The pair constraints as check_constraints evaluated them before it built
# each window's per-index parts once: every instance recomputes its shifts,
# derivatives, products and powers of lambda.  The shape checks and the
# bookkeeping are the module's own.

def _ref_cert(constraint, indices, residue):
    return InfeasibilityCertificate(constraint, indices, residue) if residue else None


def _ref_lw_compat(a, b, a_m, g_m, m, n):
    gm, an = g_m[m], a_m[n]
    return _ref_cert("lw-compat", (m, n), (
        a_m[m + n].scale(a.add_int(n) + b.mul_int(m))
        - an * (gm - gm.shift_s(a.add_int(n)))
        - (an.partial_t() * a_m[m]).scale(a + b.mul_int(m))))


def _ref_b_power(b_m, *idx):
    if len(idx) == 2:
        return _ref_cert("b-power", idx, BiPoly.const(ONE - b_m[1] * b_m[-1]))
    (m,) = idx
    return _ref_cert("b-power", idx, BiPoly.const(b_m[m] - intpow(b_m[1], m)))


def _ref_ll_compat(a, b, b_m, d_m, a_m, m, n, constraint="ll-compat"):
    lead = (b_m[m + n] - b_m[m] * b_m[n]).mul_int(n - m)
    return _ref_cert(constraint, (m, n), BiPoly.monomial(1, 0, lead).combine((
        (d_m[m + n], sc(n - m)),
        (d_m[n], -b_m[m].mul_int(n)),
        (d_m[m], b_m[n].mul_int(m)),
        (d_m[m].partial_t() * a_m[n], a + b.mul_int(n)),
        (d_m[n].partial_t() * a_m[m], -(a + b.mul_int(m))))))


def _ref_w_linear(b, lam, A, B, part, m, n):
    X = A if part == "A" else B
    return _ref_cert("w-linear-" + part, (m, n), BiPoly.const(
        b.mul_int(m).add_int(n) * X[m + n]
        - X[n].mul_int(n) * intpow(lam, m)
        - b.mul_int(m) * A[n] * X[m]))


def _ref_w_commutation(a, a_m, m, n):
    am, an = a_m[m], a_m[n]
    return _ref_cert("W-commutation", (m, n),
                     an.shift_s(a.add_int(m)) * am - am.shift_s(a.add_int(n)) * an)


def _ref_check_constraints(fam):
    report = _report("check-constraints", fam)
    N, a, b = fam.window, fam.a, fam.b
    window = range(-N, N + 1)
    singles = [(m,) for m in window]
    pairs = [(m, n) for m in window for n in window if abs(m + n) <= N]
    ordered = [(m, n) for m, n in pairs if m < n]
    g_ok = _record(report, singles, partial(_g_shape, fam.g_m))
    if not (_record(report, singles, partial(_a_in_W0, fam.a_m)) and g_ok):
        return report
    _record(report, pairs, partial(_ref_lw_compat, a, b, fam.a_m, fam.g_m))
    b_m = {m: fam.g_m[m].coeff(1, 0) for m in window}
    lam = b_m[1]
    _record(report, singles if lam else [(1, -1)], partial(_ref_b_power, b_m))
    if not lam:
        return report
    d_m = {m: BiPoly({k: c for k, c in fam.g_m[m].terms.items() if not k[0]})
           for m in window}
    _record(report, ordered, partial(_ref_ll_compat, a, b, b_m, d_m, fam.a_m))
    if not _record(report, singles, partial(_deg_a, fam.a_m)) or a:
        return report
    A = {m: fam.a_m[m].coeff(0, 1) for m in window}
    B = {m: fam.a_m[m].coeff(0, 0) for m in window}
    _record(report, pairs, partial(_ref_w_linear, b, lam, A, B, "A"),
            partial(_ref_w_linear, b, lam, A, B, "B"))
    alpha = -(B[1] / lam)
    F = {m: d_m[m].scale(intpow(lam, -m)) for m in window}
    w = {m: twist_poly(b, alpha, m) for m in window}
    _record(report, ordered, partial(_ref_ll_compat, ZERO, b, dict.fromkeys(
        window, ONE), F, w, constraint="h-cocycle"))
    return report


def _ref_check_W_commutation(fam):
    report = _report("check-W-commutation", fam)
    window = range(-fam.window, fam.window + 1)
    _record(report, [(m, n) for m in window for n in window if m < n],
            partial(_ref_w_commutation, fam.a, fam.a_m))
    return report


def _bodies(report):
    report.elapsed = 0.0
    return report.checks, report.to_text(), report.to_json()


# every perturbation kind of the classify-mix benchmark: a monomial added
# to a g_m or an a_m at a seed m = +-1 or at another m, or a != 0
_MONOMIALS = {
    "g-coef": lambda rng: rng.choice([(0, j) for j in range(5)] + [(1, 0)]),
    "a-coef": lambda rng: (0, rng.randint(0, 1)),
    "g-s2": lambda rng: (2, rng.randint(0, 1)),
    "a-t2": lambda rng: (0, 2),
    "a-L0": lambda rng: (1, rng.randint(0, 1)),
}
_KINDS = [None, "translation"] + [f"{kind}@{where}" for kind in _MONOMIALS
                                  for where in ("seed", "other")]


def _gaussian(rng):
    while True:
        x = sci(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                rng.randint(-3, 3))
        if x:
            return x


@pytest.mark.parametrize("kind", _KINDS)
def test_check_constraints_matches_the_reference_sweep(kind):
    rng = random.Random(f"check-constraints/{kind}")
    for family in ("-1", "0", "1/2", "1", "3", "theta"):
        N = rng.randint(2, 6)
        coeffs = [_gaussian(rng) for _ in range(rng.randint(0, 4))]
        if family == "theta":
            spec = ModuleSpec.theta(lam=_gaussian(rng), coeffs=coeffs)
        else:
            spec = ModuleSpec.phi(b=sc(family), lam=_gaussian(rng),
                                  alpha=sc(Fraction(rng.randint(-3, 3),
                                                    rng.randint(1, 2))),
                                  coeffs=coeffs)
        fam = candidate_for(spec, N)
        c = _gaussian(rng)
        if kind == "translation":
            fam = GenericFamily(c, fam.b, N, fam.a_m, fam.g_m)
        elif kind is not None:
            entry, where = kind.split("@")
            m = rng.choice([1, -1] if where == "seed" else
                           [x for x in range(-N, N + 1) if abs(x) > 1])
            delta = {m: BiPoly.monomial(*_MONOMIALS[entry](rng), c)}
            fam = perturbed(fam, **{f"{entry[0]}_m": delta})
        assert _bodies(check_constraints(fam)) == _bodies(
            _ref_check_constraints(fam)), (family, N)
        assert _bodies(check_W_commutation(fam)) == _bodies(
            _ref_check_W_commutation(fam)), (family, N)


def test_check_constraints_passes_on_genuine_family():
    spec = ModuleSpec.phi(b=sc(3), lam=sc(2), alpha=ZERO, coeffs=(ONE, ZERO, sc(2)))
    report = check_constraints(candidate_for(spec))
    assert report.passed
    assert report.checks > 100


def test_check_constraints_fails_at_m_zero_for_nonzero_a():
    spec = ModuleSpec.phi(b=sc(3), lam=sc(2), alpha=ZERO, coeffs=(ONE,))
    for window in (4, 2):
        base = candidate_for(spec, window)
        fam = GenericFamily(a=sc("1/2"), b=base.b, window=base.window,
                              a_m=base.a_m, g_m=base.g_m)
        report = check_constraints(fam)
        assert not report.passed
        hits = [f for f in report.failures if f.constraint == "lw-compat"]
        assert any(f.indices[0] == 0 for f in hits)
        # the w-linear and h-cocycle identities hold only at a = 0, so
        # those passes are skipped and lw-compat is all that is listed
        assert hits == report.failures
        assert ((0, 0), "-1/2*t") in [(f.indices, f.residue) for f in hits]


def test_extract_h_coeffs():
    F = {n: BiPoly({(0, 2): sc(n), (0, 1): sc(5 * n)}) for n in range(-3, 4)}
    assert extract_h_coeffs(F, ZERO, ZERO) == (ZERO, sc(5), ONE)
    empty = {n: BiPoly.zero() for n in range(-3, 4)}
    assert extract_h_coeffs(empty, ZERO, ZERO) == ()


def test_extract_h_coeffs_rejects_nonlinear_growth():
    F = {n: BiPoly({(0, 1): sc(n * n)}) for n in range(-3, 4)}
    out = extract_h_coeffs(F, ZERO, ZERO)
    assert isinstance(out, InfeasibilityCertificate)
    assert out.constraint == "leading-coeff"


def test_extract_h_coeffs_with_corrections():
    # sequences built from the generating family at b = -1 must come back
    from virab.repmod import q_poly

    alpha = sc(2)
    F = {
        n: q_poly(n, 2, alpha, MINUS_ONE) + q_poly(n, 0, alpha, MINUS_ONE).scale(sc(3))
        for n in range(-4, 5)
    }
    assert extract_h_coeffs(F, alpha, MINUS_ONE) == (sc(3), ZERO, ONE)


def test_canonical_params_trim_trailing_zeros():
    p = CanonicalParams(Family.PHI, sc(2), ZERO, (ONE, ZERO, ZERO))
    assert p.coeffs == (ONE,)
    q = CanonicalParams(Family.PHI, sc(2), ZERO, (ZERO, ZERO))
    assert q.coeffs == ()


def test_canonical_params_round_trip_doc():
    p = CanonicalParams(Family.THETA, sc("-1/2"), ZERO, (ONE, sci(0, 2)))
    doc = p.to_dict()
    assert CanonicalParams.from_dict(doc) == p
    with pytest.raises(ValueError):
        CanonicalParams.from_dict({**doc, "family": "sigma"})


def test_certificate_requires_nonzero_residue():
    with pytest.raises(ValueError):
        InfeasibilityCertificate("lw-compat", (0, 0), BiPoly.zero())


def test_isom_decide_table():
    p = CanonicalParams(Family.PHI, sc(2), ONE, (ONE, ZERO))
    assert isom_decide(p, CanonicalParams(Family.PHI, sc(2), ONE, (ONE,)), ONE)
    # lambda mismatch is always fatal
    assert not isom_decide(p, CanonicalParams(Family.PHI, sc(3), ONE, (ONE,)), ONE)
    # alpha matters exactly at the twist selectors
    q = CanonicalParams(Family.PHI, sc(2), sc(2), (ONE,))
    assert not isom_decide(p, q, ONE)
    assert not isom_decide(p, q, MINUS_ONE)
    assert isom_decide(p, q, sc(3))
    # coefficient sequences compare exactly
    r = CanonicalParams(Family.PHI, sc(2), ONE, (ONE, ONE))
    assert not isom_decide(p, r, ONE)
    # theta tuples ignore alpha entirely
    s = CanonicalParams(Family.THETA, sc(2), ZERO, (ONE,))
    t = CanonicalParams(Family.THETA, sc(2), ZERO, (ONE, ZERO))
    assert isom_decide(s, t, ONE)
    with pytest.raises(ValueError):
        isom_decide(p, s, ONE)


def _seeded_windows(count: int, seed: int):
    """Windows from_spec of phi (b in {-1, 0, 1/2, 1, 2}) or theta at N 2 or
    3; all but about one in seven get a != 0 or one term added to an a_m
    (L0 terms included) or g_m entry at a nonzero index."""
    rng = random.Random(seed)
    for _ in range(count):
        N = rng.choice((2, 3))
        b = rng.choice(("-1", "0", "1/2", "1", "2", "theta"))
        lam = rng.choice((sc(2), sc("-1/2"), I))
        coeffs = tuple(sc(rng.randint(-2, 2))
                       for _ in range(rng.randint(0, 2)))
        if b == "theta":
            spec = ModuleSpec.theta(lam=lam, coeffs=coeffs)
        else:
            spec = ModuleSpec.phi(b=sc(b), lam=lam, coeffs=coeffs,
                                  alpha=sc(rng.choice((0, 1, "3/2"))))
        fam = GenericFamily.from_spec(spec, N)
        a, a_m, g_m = fam.a, dict(fam.a_m), dict(fam.g_m)
        kind = rng.choice(("none", "a", "a_m", "a_m", "a_m", "g_m", "g_m"))
        m = rng.choice([i for i in range(-N, N + 1) if i])
        c = sc(rng.choice((1, -1, 2, "1/2", -3)))
        if kind == "a":
            a = c
        elif kind == "a_m":
            i, j = rng.choice(((0, 0), (0, 1), (0, 2), (1, 0), (1, 1)))
            a_m[m] = a_m[m] + BiPoly.monomial(i, j, c)
        elif kind == "g_m":
            i, j = rng.choice(((0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (1, 1)))
            g_m[m] = g_m[m] + BiPoly.monomial(i, j, c)
        yield GenericFamily(a, fam.b, N, a_m, g_m)


def test_window_verifiers_agree():
    # one window object, two verifiers: the bracket sweep passes exactly
    # when every window constraint and [W_m, W_n] . 1 = 0 hold
    verdicts = []
    for fam in _seeded_windows(60, 18):
        swept = verify_module(fam, window=fam.window, degree=2).passed
        checked = (check_constraints(fam).passed
                   and check_W_commutation(fam).passed)
        assert swept == checked, fam
        verdicts.append(swept)
    assert True in verdicts and False in verdicts


def test_candidate_validation():
    with pytest.raises(ValueError):
        GenericFamily(a=ZERO, b=ZERO, window=1, a_m={0: BiPoly.t_var()},
                        g_m={0: BiPoly.s_var()})  # missing indices 1, -1
    with pytest.raises(ValueError):
        GenericFamily(
            a=ZERO, b=ZERO, window=1,
            a_m={-1: BiPoly.t_var(), 0: BiPoly.one(), 1: BiPoly.t_var()},
            g_m={-1: BiPoly.s_var(), 0: BiPoly.s_var(), 1: BiPoly.s_var()},
        )  # a_0 must be the W0 coordinate


@pytest.mark.parametrize("table", ["a_m", "g_m"])
@pytest.mark.parametrize("cls", [CandidateFamily, GenericFamily],
                         ids=["CandidateFamily", "GenericFamily"])
def test_window_refuses_data_outside_it(cls, table):
    # every datum is read, so one beyond [-N, N] is an error naming it; the
    # name CandidateFamily is the same class
    fam = GenericFamily.from_spec(ModuleSpec.phi(b=sc(2), lam=sc(3)), 1)
    data = {"a_m": dict(fam.a_m), "g_m": dict(fam.g_m)}
    data[table][5] = data[table][1]
    with pytest.raises(ValueError, match=f"{table} has data at index 5, "
                       r"outside the window \[-1, 1\]"):
        cls(fam.a, fam.b, 1, **data)
