import random
from collections import Counter
from collections.abc import Hashable
from fractions import Fraction
from functools import cache, partial
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import sc, sci
from test_repmod import _family_with_a, _naive_sweep
from virab import classify, repmod
from virab.algebra import L, W, bracket, classify_case
from virab.classify import (
    CandidateFamily,
    CanonicalParams,
    InfeasibilityCertificate,
    Undetermined,
    check_constraints,
    isom_decide,
    solve_candidate,
    _a_in_W0,
    _g_shape,
    _read,
    _report,
)
from virab.grammar import parse_bipoly
from virab.polynomials import (
    BiPoly,
    _index_poly,
    divided_difference,
    format_bipoly,
)
from virab.repmod import (
    Family,
    GenericFamily,
    ModuleSpec,
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


def listed(fam):
    """check_constraints' entries for fam as (constraint, indices, residue
    text)."""
    return [(f.constraint, f.indices, f.residue)
            for f in check_constraints(fam).failures]


def as_listed(out):
    return out.constraint, out.indices, out.residue_text


def assert_sound(fam, out):
    """A certificate is an entry check_constraints lists for fam, and
    Undetermined stands only where every window identity holds."""
    if isinstance(out, InfeasibilityCertificate):
        assert as_listed(out) in listed(fam)
    elif isinstance(out, Undetermined):
        assert check_constraints(fam).passed


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
    # the data at m = -1, and those at m = 1, fix a module, so a window
    # that one seed entry moved is no module's
    assert isinstance(out, CanonicalParams) == (fam == base)
    assert_sound(fam, out)


def test_nonzero_a_yields_certificate():
    spec = ModuleSpec.phi(b=sc(2), lam=ONE, alpha=ZERO, coeffs=())
    base = candidate_for(spec)
    fam = GenericFamily(a=ONE, b=base.b, window=base.window, a_m=base.a_m, g_m=base.g_m)
    out = solve_candidate(fam)
    assert isinstance(out, InfeasibilityCertificate)
    assert out.constraint == "lw-compat"
    assert 0 in out.indices
    assert not parse_bipoly(out.residue_text).is_zero
    assert_sound(fam, out)


def test_scale_branch_spurious_root_rejected():
    # the quadratic the top seed coefficient satisfies has a second root
    # k = (1 - b)/b; planted on a window with A_2 fixed by (1, 1), the
    # lw-compat instance (2, -1) fails, and the answer is a listed entry
    lam, b = sc(2), sc(3)
    k = (ONE - b) / b
    A1 = k * lam
    Am1 = (b - ONE) / (b * A1 - lam)
    A2 = (A1 * lam + b * A1 * A1) / (ONE + b)
    a_m = {m: BiPoly.monomial(0, 1, c)
           for m, c in ((-2, ZERO), (-1, Am1), (0, ONE), (1, A1), (2, A2))}
    g_m = {m: BiPoly.monomial(1, 0, intpow(lam, m)) for m in range(-2, 3)}
    fam = GenericFamily(ZERO, b, 2, a_m, g_m)
    assert ("lw-compat", (2, -1), "-20/3*t") in listed(fam)
    out = solve_candidate(fam)
    assert isinstance(out, InfeasibilityCertificate)
    assert_sound(fam, out)


def test_scale_branch_rejected_at_b_minus_one():
    # A_2 drops out of the lw-compat instance (1, 1) at b = -1, which
    # fails on the spurious root whatever A_2 is
    lam, b = sc(2), MINUS_ONE
    k = (ONE - b) / b  # k = -2
    A1 = k * lam
    Am1 = (b - ONE) / (b * A1 - lam)
    a_m = {m: BiPoly.monomial(0, 1, c)
           for m, c in ((-2, sc("1/4")), (-1, Am1), (0, ONE), (1, A1), (2, sc(4)))}
    g_m = {m: BiPoly.monomial(1, 0, intpow(lam, m)) for m in range(-2, 3)}
    fam = GenericFamily(ZERO, b, 2, a_m, g_m)
    assert ("lw-compat", (1, 1), "24*t") in listed(fam)
    out = solve_candidate(fam)
    assert isinstance(out, InfeasibilityCertificate)
    assert_sound(fam, out)


def test_degenerate_seeds():
    s, t, zero = BiPoly.s_var(), BiPoly.t_var(), BiPoly.zero()
    for b, a_pos, a_neg in (
            # both W-seeds zero away from b = 1: no family fits
            (sc(2), zero, zero),
            # one-sided zero at b = 1 contradicts the W-recursion
            (ONE, zero, t),
            # one-sided zero away from b = 1
            (sc(3), t, zero)):
        fam = GenericFamily(ZERO, b, 1, {-1: a_neg, 0: t, 1: a_pos},
                            {-1: s.scale(sc("1/2")), 0: s, 1: s.scale(sc(2))})
        out = solve_candidate(fam)
        assert isinstance(out, InfeasibilityCertificate), b
        assert_sound(fam, out)


def test_w_commutation_failure_is_witnessed():
    fam = GenericFamily(
        a=ZERO, b=ZERO, window=1,
        a_m={-1: BiPoly.t_var(), 0: BiPoly.t_var(), 1: BiPoly.s_var()},
        g_m={-1: BiPoly.s_var(), 0: BiPoly.s_var(), 1: BiPoly.s_var()},
    )
    report = check_constraints(fam)
    hits = [f for f in report.failures if f.constraint == "W-commutation"]
    assert hits
    assert all(not parse_bipoly(f.residue).is_zero for f in hits)


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
    # the shape checks come first, at every m
    out = solve_candidate(fam)
    assert as_listed(out) == ("a-in-W0", (idx,), "2*s*t")
    assert_sound(fam, out)
    if family is Family.PHI:
        # the other seed is nonzero, so [W_-1, W_1] . 1 shows the L0 term
        assert "W-commutation" in {f[0] for f in listed(fam)}
        return
    # theta's other seed is zero and the commutator with it vanishes
    assert listed(fam) == [("a-in-W0", (idx,), "2*s*t")]


# the lw-compat entries of a t^2 term in the seed a_idx: among them
# (idx, -idx), whose t^2 term is -b*idx a_{-idx}' times it
_T2_LISTED = {
    1: [((-2, 1), "35/9*t^2"), ((-1, 1), "5*t^2"), ((1, -2), "-10/9*t^2"),
        ((1, -1), "-10/3*t^2"), ((1, 1), "-100*t^3 - 105*t^2"),
        ((2, -1), "15*t^2")],
    -1: [((-2, 1), "-15*t^2"), ((-1, -1), "100*t^3 + 35/3*t^2"),
         ((-1, 1), "30*t^2"), ((-1, 2), "90*t^2"), ((1, -1), "-45*t^2"),
         ((2, -1), "-315*t^2")],
}


@pytest.mark.parametrize("idx", [1, -1])
def test_t2_term_in_seed_a_m_is_certified(idx):
    # a t^2 term in a seed W-multiplier fails lw-compat in the window, and
    # the first entry listed reads idx
    base = candidate_for(ModuleSpec.phi(b=sc(2), lam=sc(3), coeffs=(ONE,)), 2)
    fam = perturbed(base, a_m={idx: BiPoly.monomial(0, 2, sc(5))})
    assert listed(fam) == [
        ("lw-compat", at, residue) for at, residue in _T2_LISTED[idx]]
    assert as_listed(solve_candidate(fam)) == listed(fam)[0]


def perturbed(base: GenericFamily, a_m=None, g_m=None) -> GenericFamily:
    """base with the given entries added to its a_m and g_m."""
    a = {m: p + (a_m or {}).get(m, BiPoly.zero()) for m, p in base.a_m.items()}
    g = {m: p + (g_m or {}).get(m, BiPoly.zero()) for m, p in base.g_m.items()}
    return GenericFamily(base.a, base.b, base.window, a, g)


def reading(fam, m):
    """check_constraints' entries for fam that read index m: the pairs
    with m among m, n and m + n (the shapes hold in these tests)."""
    return [f for f in listed(fam) if m in (*f[1], sum(f[1]))]


def test_window_mismatch_beyond_the_seeds():
    # the seeds at m = +-1 are untouched, so the parameters read off them
    # rebuild the window up to its first mismatch, at m = -4 in the order
    # m = -N..N, and the first entry that reads it certifies
    base = candidate_for(
        ModuleSpec.phi(b=sc(2), lam=sc(2), alpha=ZERO, coeffs=(ONE,)))
    fam = perturbed(base, a_m={-4: BiPoly.monomial(0, 3)},
                    g_m={3: BiPoly.t_var()})
    assert not check_constraints(fam).passed
    assert as_listed(solve_candidate(fam)) == reading(fam, -4)[0]


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
    assert as_listed(solve_candidate(fam)) == reading(fam, m)[0]


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
            res = (fam.op(L(m)).apply(fam.g_m[n])
                   - fam.op(L(n)).apply(fam.g_m[m])
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
            res = (fam.op(L(m)).apply(fam.a_m[n])
                   - fam.op(W(n)).apply(fam.g_m[m])
                   - fam.a_m[m + n].scale(fam.a.add_int(n) + fam.b.mul_int(m)))
            if res:
                want.append(((m, n), format_bipoly(-res)))
    got = [(f.indices, f.residue) for f in check_constraints(fam).failures
           if f.constraint == "lw-compat"]
    assert want and got == want


# --- the window identities are the pair symbols -------------------------------

@st.composite
def shaped_windows(draw):
    """The window at N 1-3 of a module of :func:`family_specs` with a in
    {0, 1/2, -1} and up to three terms added at nonzero indices that keep
    the shapes (g_m = b_m L0 + d_m with scalar b_m, a_m in C[W0]), and in
    about one window of three one or two L0 terms added to a_m as well."""
    base = candidate_for(draw(family_specs()), draw(st.integers(1, 3)))
    a = draw(st.sampled_from((ZERO, sc("1/2"), MINUS_ONE)))
    terms = [draw(st.sampled_from(_TERMS[:6]))
             for _ in range(draw(st.integers(0, 3)))]
    if draw(st.sampled_from((False, False, True))):
        terms += [("a_m", (1, draw(st.integers(0, 1))))
                  for _ in range(draw(st.integers(1, 2)))]
    added = {"a_m": {}, "g_m": {}}
    for table, (i, j) in terms:
        m = draw(st.sampled_from([m for m in base.a_m if m]))
        term = BiPoly.monomial(i, j, draw(gaussians.filter(bool)))
        added[table][m] = added[table].get(m, BiPoly.zero()) + term
    fam = perturbed(base, **added)
    return GenericFamily(a, fam.b, fam.window, fam.a_m, fam.g_m)


@pytest.mark.oracle
@given(fam=shaped_windows())
def test_the_window_identities_are_the_pair_symbols(fam):
    # dA(x, y) = x . (y . 1) - y . (x . 1) - [x, y] . 1 of verify_module,
    # built by the window's op over W(a, b), is each window identity's
    # residue: lw-compat (m, n) is dA(W_n, L_m) = -dA(L_m, W_n), ll-compat
    # (m, n) is -dA(L_m, L_n), and W-commutation (m, n) is dA(W_m, W_n),
    # L0 terms in a_m too; None stands for a zero residue
    algebra = classify_case(fam.a, fam.b, want_extension=False)
    op = cache(fam.op)
    tau = cache(lambda sigma, y: repmod._tau(op(y), sigma))

    def dA(x, y):
        terms = bracket(x, y, algebra).terms.items()
        return repmod._pair_symbol(x, y, op, tau, terms)[0]

    def residue(cert):
        return BiPoly.zero() if cert is None else cert.residue

    _, commuting, pairs, ordered = classify._instances(fam.window)
    for m, n in commuting:
        assert residue(classify._w_commutation(fam.a, fam.a_m, m, n)) == dA(
            W(m), W(n)), (m, n)
    if any(p.deg_s > 0 for p in fam.a_m.values()):
        return  # the shapes fail: lw-compat and ll-compat are not run
    p = classify._parts(fam)
    for m, n in pairs:
        lw = dA(W(n), L(m))
        assert lw == -dA(L(m), W(n))
        assert residue(classify._lw_compat(p, m, n)) == lw, (m, n)
    for m, n in ordered:
        assert residue(classify._ll_compat(p, m, n)) == -dA(L(m), L(n)), (
            m, n)


def test_the_normalized_cocycle_is_no_window_identity():
    # the spurious root k = 1/2 of b*k^2 - k - (b-1) at b = 2/3 on both
    # seeds, a_{+-1} = k t, and g_1 = L0 + t^3: ll-compat (-1, 1) reads
    # (3*b*k - 1) t^3 = 0 and every window identity holds, while the
    # cocycle on the normalized data, which puts t for a_{+-1}, reads
    # (3*b - 1) t^3
    s, t = BiPoly.s_var(), BiPoly.t_var()
    half = t.scale(sc("1/2"))
    fam = GenericFamily(ZERO, sc("2/3"), 1, {-1: half, 0: t, 1: half},
                        {-1: s, 0: s, 1: s + BiPoly.monomial(0, 3)})
    assert check_constraints(fam).passed
    assert verify_module(fam, window=1, degree=4).passed
    assert [(f.constraint, f.indices, f.residue)
            for f in _ref_dropped_passes(fam).failures] == [
        ("h-cocycle", (-1, 1), "t^3")]
    assert solve_candidate(fam) == Undetermined(-1, half.scale(MINUS_ONE))


def test_a_window_no_identity_sees_is_undetermined():
    # phi(b = 1/2, lambda = 1/3, alpha = 3/2) at N = 1 with a t^2 term
    # added to g_1: every window identity holds, so no entry certifies it
    base = candidate_for(
        ModuleSpec.phi(b=sc("1/2"), lam=sc("1/3"), alpha=sc("3/2")), 1)
    delta = BiPoly.monomial(0, 2, sci(-3, -3))
    fam = perturbed(base, g_m={1: delta})
    assert check_constraints(fam).passed
    # the read takes h_1 from g_1, so g_-1 differs by lambda^-2 times delta
    assert solve_candidate(fam) == Undetermined(-1, delta.scale(sc(9)))


# --- a reference sweep, one formula per instance ---------------------------
#
# The pair constraints as check_constraints evaluated them before it built
# each window's per-index parts once: every instance recomputes its shifts,
# derivatives and products.  The shape checks are the module's own, and
# each instance of each pass counts as one check.  b-power, deg-a, w-linear
# and the cocycle on the normalized data are passes that no window identity
# includes, as check_constraints once ran them.

def _ref_cert(constraint, indices, residue):
    return InfeasibilityCertificate(constraint, indices, residue) if residue else None


def _record(report, instances, *checks):
    """Run every check at every instance as one check each of report and
    record each failure; True when none failed."""
    instances = tuple(instances)
    report.checks += len(instances) * len(checks)
    before = len(report.failures)
    for idx in instances:
        for check in checks:
            cert = check(*idx)
            if cert is not None:
                report.fail(cert.constraint, cert.indices, cert.residue_text)
    return len(report.failures) == before


def _deg_a(a_m, m):
    return _ref_cert("deg-a", (m,), BiPoly(
        {(i, j): c for (i, j), c in a_m[m].terms.items() if j > 1}))


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


def _b_and_d(fam):
    """b_m and d_m of g_m = b_m L0 + d_m over the window."""
    g_m = fam.g_m
    return ({m: g_m[m].coeff(1, 0) for m in g_m},
            {m: BiPoly({k: c for k, c in g_m[m].terms.items() if not k[0]})
             for m in g_m})


def _ref_check_constraints(fam):
    report = _report("check-constraints", fam)
    N, a, b = fam.window, fam.a, fam.b
    window = range(-N, N + 1)
    singles = [(m,) for m in window]
    pairs = [(m, n) for m in window for n in window if abs(m + n) <= N]
    g_ok = _record(report, singles, partial(_g_shape, fam.g_m))
    shapes_ok = _record(report, singles, partial(_a_in_W0, fam.a_m)) and g_ok
    _record(report, [(m, n) for m in window for n in window if m < n],
            partial(_ref_w_commutation, a, fam.a_m))
    if shapes_ok:
        b_m, d_m = _b_and_d(fam)
        _record(report, pairs, partial(_ref_lw_compat, a, b, fam.a_m, fam.g_m))
        _record(report, [(m, n) for m, n in pairs if m < n],
                partial(_ref_ll_compat, a, b, b_m, d_m, fam.a_m))
    return report


def _ref_dropped_passes(fam):
    """The passes check_constraints no longer runs, gated as it ran them:
    none unless the shapes hold; b-power, at (1, -1) alone while
    lambda = 0; at lambda != 0 deg-a, and where that holds and a = 0
    w-linear-A/B and the cocycle on the normalized data b_m = 1,
    F_m = d_m / lambda^m and the twist factors w_m for a_m."""
    report = _report("dropped-passes", fam)
    N, a, b = fam.window, fam.a, fam.b
    window = range(-N, N + 1)
    if any(_g_shape(fam.g_m, m) or _a_in_W0(fam.a_m, m) for m in window):
        return report
    b_m, d_m = _b_and_d(fam)
    lam, singles = b_m[1], [(m,) for m in window]
    _record(report, singles if lam else [(1, -1)], partial(_ref_b_power, b_m))
    if not lam or not _record(report, singles, partial(_deg_a, fam.a_m)) or a:
        return report
    A = {m: fam.a_m[m].coeff(0, 1) for m in window}
    B = {m: fam.a_m[m].coeff(0, 0) for m in window}
    pairs = [(m, n) for m in window for n in window if abs(m + n) <= N]
    _record(report, pairs, partial(_ref_w_linear, b, lam, A, B, "A"),
            partial(_ref_w_linear, b, lam, A, B, "B"))
    alpha = -(B[1] / lam)
    F = {m: d_m[m].scale(intpow(lam, -m)) for m in window}
    w = {m: twist_poly(b, alpha, m) for m in window}
    _record(report, [(m, n) for m, n in pairs if m < n], partial(
        _ref_ll_compat, ZERO, b, dict.fromkeys(window, ONE), F, w,
        constraint="h-cocycle"))
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


_FAMILIES = ("-1", "0", "1/2", "1", "3", "theta")


def _random_candidate(rng, family):
    """The window of a random module of the family ("theta" or phi's b),
    at a random N in 2..6."""
    N = rng.randint(2, 6)
    coeffs = [_gaussian(rng) for _ in range(rng.randint(0, 4))]
    if family == "theta":
        spec = ModuleSpec.theta(lam=_gaussian(rng), coeffs=coeffs)
    else:
        spec = ModuleSpec.phi(b=sc(family), lam=_gaussian(rng),
                              alpha=sc(Fraction(rng.randint(-3, 3),
                                                rng.randint(1, 2))),
                              coeffs=coeffs)
    return candidate_for(spec, N)


@pytest.mark.parametrize("kind", _KINDS)
def test_check_constraints_matches_the_reference_sweep(kind):
    rng = random.Random(f"check-constraints/{kind}")
    for family in _FAMILIES:
        fam = _random_candidate(rng, family)
        N = fam.window
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


@pytest.mark.parametrize("where", ["seed", "other", "two-indices",
                                   "two-terms"])
def test_w_commutation_skips_only_zero_pairs(monkeypatch, where):
    # W-commutation is evaluated only at the pairs where a_m or a_n has an
    # L0 term, every pair it skips has a zero residue, and each pass at an
    # index lists the full pass's entries that read it.  The windows carry
    # L0 terms in their a_m: one at a seed m = +-1 or at another m, one at
    # each of two indices, or two in one a_m; each at a = 0 and a != 0.
    rng = random.Random(f"w-commutation-locality/{where}")
    w_commutation, evaluated = classify._w_commutation, []

    def spy(a, a_m, m, n):
        evaluated.append((m, n))
        return w_commutation(a, a_m, m, n)

    monkeypatch.setattr(classify, "_w_commutation", spy)
    for family in _FAMILIES:
        base = _random_candidate(rng, family)
        window = range(-base.window, base.window + 1)
        if where == "seed":
            at = [rng.choice([1, -1])]
        elif where == "other":
            at = [rng.choice([m for m in window if abs(m) > 1])]
        else:
            at = rng.sample([m for m in window if m],
                            1 if where == "two-terms" else 2)
        terms = ([(1, 0), (1, 1)] if where == "two-terms"
                 else [(1, rng.randint(0, 1))])
        a_m = {m: BiPoly({k: _gaussian(rng) for k in terms}) for m in at}
        for a in (ZERO, _gaussian(rng)):
            fam = perturbed(base, a_m=a_m)
            fam = GenericFamily(a, fam.b, fam.window, fam.a_m, fam.g_m)
            evaluated.clear()
            full = list(classify._window_failures(fam))
            assert set(evaluated) == {(m, n) for m in window for n in window
                                      if m < n and {m, n} & set(at)}
            for m in window:
                for n in window:
                    if m < n and (m, n) not in evaluated:
                        assert _ref_w_commutation(a, fam.a_m, m, n) is None
            for m in window:
                assert list(classify._window_failures(fam, m)) == [
                    c for c in full if len(c.indices) == 1
                    or m in (*c.indices, sum(c.indices))]
            assert _bodies(check_constraints(fam)) == _bodies(
                _ref_check_constraints(fam)), (family, at, a)


# --- lw-compat and ll-compat by locality ------------------------------------

def _assert_agrees(fam):
    """check_constraints lists what the reference sweep lists, with its
    checks, and solve_candidate answers what it answers when every
    instance is evaluated."""
    assert _bodies(check_constraints(fam)) == _bodies(
        _ref_check_constraints(fam)), fam
    local = solve_candidate(fam)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_near", lambda fam, window: None)
        assert solve_candidate(fam) == local, fam
    assert_sound(fam, local)


# a term added to a_m or g_m: those the shapes allow first, then an L0 or
# t^2 term in a_m and an L0^2 or L0*t term in g_m
_TERMS = (("a_m", (0, 0)), ("a_m", (0, 1)), ("g_m", (0, 0)), ("g_m", (0, 1)),
          ("g_m", (0, 3)), ("g_m", (1, 0)), ("a_m", (0, 2)), ("a_m", (1, 0)),
          ("g_m", (2, 0)), ("g_m", (1, 1)))


@st.composite
def family_specs(draw, coeffs=st.lists(gaussians, max_size=3)):
    """A module of a family of _FAMILIES (phi with a Gaussian alpha, which
    is seldom 0, so b = +-1 comes with alpha != 0) with ``coeffs``."""
    family = draw(st.sampled_from(_FAMILIES))
    lam, coeffs = draw(gaussians.filter(bool)), draw(coeffs)
    if family == "theta":
        return ModuleSpec.theta(lam=lam, coeffs=coeffs)
    return ModuleSpec.phi(b=sc(family), lam=lam, alpha=draw(gaussians),
                          coeffs=coeffs)


@st.composite
def perturbed_windows(draw):
    """The window at N 1-6 of a module of :func:`family_specs` unchanged,
    with a != 0, or with a term added at one index, at two, or at m, n and
    m + n."""
    base = candidate_for(draw(family_specs()), draw(st.integers(1, 6)))
    N, nonzero = base.window, [m for m in base.a_m if m]
    where = draw(st.sampled_from(("one", "two", "sum", "none", "a")))
    if where == "a":
        return GenericFamily(draw(gaussians.filter(bool)), base.b, N,
                             base.a_m, base.g_m)
    sums = [(m, n, m + n) for m in nonzero for n in nonzero
            if m + n in nonzero]
    at = {"none": [], "one": [draw(st.sampled_from(nonzero))],
          "two": draw(st.lists(st.sampled_from(nonzero), min_size=2,
                               max_size=2, unique=True)),
          "sum": list(draw(st.sampled_from(sums))) if sums else []}[where]
    terms = {"a_m": {}, "g_m": {}}
    for m in at:
        table, (i, j) = draw(st.sampled_from(_TERMS))
        terms[table][m] = BiPoly.monomial(i, j, draw(gaussians.filter(bool)))
    return perturbed(base, **terms)


# the two N = 1 windows every identity holds on, which no module has
_UNDETERMINED = (
    GenericFamily(ZERO, sc("2/3"), 1, {
        -1: BiPoly.monomial(0, 1, sc("1/2")), 0: BiPoly.t_var(),
        1: BiPoly.monomial(0, 1, sc("1/2"))}, {
        -1: BiPoly.s_var(), 0: BiPoly.s_var(),
        1: BiPoly.s_var() + BiPoly.monomial(0, 3)}),
    perturbed(candidate_for(ModuleSpec.phi(b=sc("1/2"), lam=sc("1/3"),
                                           alpha=sc("3/2")), 1),
              g_m={1: BiPoly.monomial(0, 2, sci(-3, -3))}))


@pytest.mark.oracle
@given(fam=perturbed_windows())
@example(fam=_UNDETERMINED[0])
@example(fam=_UNDETERMINED[1])
def test_local_checks_agree_with_the_full_pass(fam):
    # lw-compat and ll-compat evaluated only where S meets {m, n, m + n}
    # list what the reference lists, and the solver's fallback with them
    # answers what it answers evaluating everything
    _assert_agrees(fam)


@pytest.mark.oracle
@given(fam=perturbed_windows())
@example(fam=_UNDETERMINED[0])
@example(fam=_UNDETERMINED[1])
def test_the_window_sweep_agrees_with_the_full_sweep(fam):
    # verify_module sweeps a window only at the pairs that touch S once its
    # read module is proved, and reports what it reports sweeping every
    # pair: text, JSON and checks
    window = min(fam.window, 2)
    local = _bodies(verify_module(fam, window=window, degree=2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repmod, "_read", lambda fam: None)
        assert _bodies(verify_module(fam, window=window, degree=2)) == local


def test_lw_and_ll_compat_evaluate_only_the_pairs_that_touch_s(monkeypatch):
    # with the bases proved, a window that differs from its read module at
    # m = 3 alone evaluates the pairs with 3 among m, n and m + n, and a
    # module's window evaluates none
    spec = ModuleSpec.phi(b=MINUS_ONE, lam=sc(2), alpha=sc("3/2"),
                          coeffs=(ONE, sc("-1/3"), sc(2)))
    base = candidate_for(spec, 6)
    check_constraints(base)
    evaluated = []
    for name in ("_lw_compat", "_ll_compat"):
        monkeypatch.setattr(classify, name, partial(
            lambda check, p, m, n: evaluated.append((check, m, n))
            or check(p, m, n), getattr(classify, name)))
    fam = perturbed(base, g_m={3: BiPoly.monomial(0, 1, sc(5))})
    assert repmod._near(fam, 6) == {3}
    failures = list(classify._window_failures(fam))
    assert failures
    _, _, pairs, ordered = classify._instances(6)
    assert [(m, n) for _, m, n in evaluated] == [
        (m, n) for m, n in pairs + ordered if 3 in (m, n, m + n)]
    evaluated.clear()
    assert not list(classify._window_failures(base))
    assert evaluated == []


def _tail_n_squared(b, alpha, P, Q, n, tail=repmod._tail):
    # n^2 * P for n * P in h_n: the same at n = 1, so the read takes it;
    # at an int n or a symbolic one
    return tail(b, alpha, P, Q, n) + repmod._times(P, (n * n - n) * ONE)


def _twist_alpha_m_m_minus_1(b, alpha, m, twist=repmod.twist_poly):
    # alpha * (m^2 - m + 1) for alpha in w_m: the same at m = 0 and m = 1,
    # and at every m where alpha does not enter; at an int m or a symbolic
    # one
    shift = repmod._alpha_weights(b, m)[1] * (m * m - m) * alpha
    return twist(b, alpha, m) - _index_poly(shift)


# a wrong data formula, and the b values and coefficients of the windows
# it makes no module's: the tail moves only with a coefficient, and the
# twist only where alpha enters, so a coefficient-free window leaves the
# twist to the lw-compat base alone
_DATA_MUTATIONS = {
    "tail": ("_tail", _tail_n_squared, ("-1", "1/2", "1", "3"),
             (ONE, sc("-1/3"), sc(2))),
    "twist": ("twist_poly", _twist_alpha_m_m_minus_1, ("-1", "1"), ()),
}


def _mutated_specs(mutation):
    # after the mutation no module's: phi at lambda = 2, alpha = 3/2
    *_, bs, coeffs = _DATA_MUTATIONS[mutation]
    for b in bs:
        yield ModuleSpec.phi(b=sc(b), lam=sc(2), alpha=sc("3/2"),
                             coeffs=coeffs)


def _mutated_windows(mutation):
    # at N = 3 and after the mutation: no module's data, though the
    # parameters read off their seeds rebuild every index
    for spec in _mutated_specs(mutation):
        yield candidate_for(spec, 3)


@pytest.mark.usefixtures("fresh_bases")
@pytest.mark.parametrize("mutation", _DATA_MUTATIONS)
def test_a_lying_base_breaks_the_agreement(monkeypatch, mutation):
    # a memo that claims every base holds while the data formula is wrong
    # skips every pair of a window its read rebuilds, and the agreement
    # with the reference sweep fails
    monkeypatch.setattr(repmod, *_DATA_MUTATIONS[mutation][:2])
    monkeypatch.setattr(repmod, "_base_vanishes", lambda *key: True)
    windows = list(_mutated_windows(mutation))
    assert all(repmod._near(fam, fam.window) == set() for fam in windows)
    assert all(check_constraints(fam).passed for fam in windows)
    with pytest.raises(AssertionError):
        for fam in windows:
            _assert_agrees(fam)


@pytest.mark.usefixtures("fresh_bases")
@pytest.mark.parametrize("mutation", _DATA_MUTATIONS)
def test_a_failing_base_forces_the_full_pass(monkeypatch, mutation):
    # evaluated under the same wrong formula, a base fails, so every pair
    # is evaluated and the failures are listed
    monkeypatch.setattr(repmod, *_DATA_MUTATIONS[mutation][:2])
    for fam in _mutated_windows(mutation):
        assert repmod._near(fam, fam.window) is None
        assert not check_constraints(fam).passed
        _assert_agrees(fam)


# --- decided module specs from repmod's base memo ---------------------------

def _memo_verdict(spec):
    """Whether spec's base vanishes, proved afresh (repmod keeps the
    supports whose base vanished in ``_VANISHED``)."""
    return repmod._base_vanishes(*repmod._base_key(spec))


def _per_spec_proof(spec):
    """The per-spec proof of spec's lambda = 1 twin, without the memo."""
    return repmod._pairs_vanish(ModuleSpec(spec.family, spec.b, ONE,
                                           spec.alpha, spec.coeffs))


def _assert_sweep_agrees(spec):
    """verify_module reports what a naive sweep finds, checks included."""
    report = verify_module(spec, window=1, degree=2)
    assert (report.checks, [(f.indices, f.residue) for f in report.failures]
            ) == _naive_sweep(spec, window=1, degree=2), spec.to_dict()


def _assert_spec_agrees(spec):
    """The memo's verdict on spec is the per-spec proof's, and
    verify_module reports what a naive sweep finds."""
    assert _memo_verdict(spec) == _per_spec_proof(spec), spec.to_dict()
    _assert_sweep_agrees(spec)


@pytest.mark.oracle
@given(spec=family_specs(st.lists(st.one_of(st.just(ZERO), gaussians),
                                  max_size=4)),
       mutation=st.sampled_from((None, *_DATA_MUTATIONS)))
def test_the_base_memo_agrees_with_the_per_spec_proof(spec, mutation):
    # the base, with symbolic coefficients on spec's support, vanishes
    # exactly where the spec's lambda = 1 twin does, and the memo, which
    # answers from the vanished bases of earlier examples' supports too,
    # agrees, with up to four coefficients, zeros among them, under the
    # module's data formula and under a wrong one; a memo filled under a
    # wrong formula serves no other example
    with pytest.MonkeyPatch.context() as mp:
        if mutation is not None:
            mp.setattr(repmod, *_DATA_MUTATIONS[mutation][:2])
            repmod._VANISHED.clear()
        try:
            assert repmod._symbols_vanish(spec) == _memo_verdict(spec) == (
                _per_spec_proof(spec)), (spec.to_dict(), mutation)
        finally:
            if mutation is not None:
                repmod._VANISHED.clear()


def _counted_proofs(monkeypatch):
    """The list of the lambda = 1 twins repmod proves, filled as it proves
    them."""
    proved = []
    monkeypatch.setattr(repmod, "_pairs_vanish", partial(
        lambda prove, twin: proved.append(twin) or prove(twin),
        repmod._pairs_vanish))
    return proved


@pytest.mark.usefixtures("fresh_bases")
def test_one_base_decides_every_spec_of_its_support(monkeypatch):
    # specs that differ in lambda and in their nonzero coefficients, and in
    # alpha where it enters no data, share one base, proved once; another
    # support, or another alpha where it enters, is another base
    proved = _counted_proofs(monkeypatch)
    shared = [ModuleSpec.phi(b=b, lam=lam, alpha=alpha, coeffs=coeffs)
              for b, alpha in ((sc("1/2"), ZERO), (sc("1/2"), sc(3)))
              for lam, coeffs in ((sc(2), (ONE, ZERO, sc(5))),
                                  (I, (sc("-1/3"), ZERO, sc("2/7"))))]
    others = [ModuleSpec.phi(b=sc("1/2"), lam=sc(2), coeffs=(ONE, ONE)),
              ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=(ONE,)),
              ModuleSpec.phi(b=ONE, lam=sc(2), alpha=sc(3), coeffs=(ONE,))]
    for spec in shared + others:
        assert verify_module(spec, window=1, degree=2).passed
    assert len(proved) == 1 + len(others)
    assert all(verify_module(spec, window=1, degree=2).passed
               for spec in shared + others)
    assert len(proved) == 1 + len(others)


def _tail_c0_minus_c1(b, alpha, P, Q, n, tail=repmod._tail):
    # (n^2 - n) * (c_0 - c_1) added to h_n, read off P's t^0 and t^1
    # terms, so with symbolic coefficients too: a module's data where
    # c_0 = c_1, and no module's elsewhere
    ends = [BiPoly({(i, 0): c for (i, j), c in P.terms.items() if j == k})
            for k in (0, 1)]
    return tail(b, alpha, P, Q, n) + repmod._times(ends[0] - ends[1],
                                                   (n * n - n) * ONE)


@pytest.mark.usefixtures("fresh_bases")
def test_a_base_decides_only_what_holds_for_every_coefficient(monkeypatch):
    # under a data formula that makes a module exactly where c_0 = c_1,
    # the base of support {0, 1} fails, so a spec with c_0 = c_1 goes to
    # the sweep, which passes it, and one with c_0 != c_1 fails there
    monkeypatch.setattr(repmod, "_tail", _tail_c0_minus_c1)
    for b in ("1/2", "2"):
        for coeffs, holds in (((sc(2), sc(2)), True), ((ONE, sc(2)), False)):
            spec = ModuleSpec.phi(b=sc(b), lam=sc(2), coeffs=coeffs)
            assert not _memo_verdict(spec)
            assert not repmod._symbols_vanish(spec)
            assert _per_spec_proof(spec) is holds
            assert verify_module(spec, window=1, degree=2).passed is holds
            _assert_sweep_agrees(spec)


@pytest.mark.usefixtures("fresh_bases")
@pytest.mark.parametrize("mutation", _DATA_MUTATIONS)
def test_a_lying_spec_memo_breaks_the_agreement(monkeypatch, mutation):
    # a memo that claims every base vanishes while the data formula is
    # wrong decides every spec, and the agreement with the per-spec proof
    # and the sweep fails
    monkeypatch.setattr(repmod, *_DATA_MUTATIONS[mutation][:2])
    monkeypatch.setattr(repmod, "_base_vanishes", lambda *key: True)
    specs = list(_mutated_specs(mutation))
    assert all(repmod._symbols_vanish(spec) for spec in specs)
    assert all(verify_module(spec, window=1, degree=2).passed
               for spec in specs)
    with pytest.raises(AssertionError):
        for spec in specs:
            _assert_spec_agrees(spec)


@pytest.mark.usefixtures("fresh_bases")
@pytest.mark.parametrize("mutation", _DATA_MUTATIONS)
def test_a_failing_spec_base_forces_the_sweep(monkeypatch, mutation):
    # evaluated under the same wrong formula, the spec's base fails, and
    # the sweep reports what a naive sweep finds
    monkeypatch.setattr(repmod, *_DATA_MUTATIONS[mutation][:2])
    for spec in _mutated_specs(mutation):
        assert not _memo_verdict(spec)
        assert not repmod._symbols_vanish(spec)
        assert not verify_module(spec, window=1, degree=2).passed
        _assert_spec_agrees(spec)


@pytest.mark.usefixtures("fresh_bases")
@pytest.mark.parametrize("mutation", _DATA_MUTATIONS)
def test_a_lying_spec_memo_hides_a_window_failure(monkeypatch, mutation):
    # under a wrong data formula the windows it builds fail pair by pair;
    # a memo that claims every base vanishes proves their read modules, so
    # the sweep skips every pair and passes them: the skip rests on the
    # proof
    monkeypatch.setattr(repmod, *_DATA_MUTATIONS[mutation][:2])
    windows = list(_mutated_windows(mutation))
    assert not any(verify_module(fam, window=2, degree=2).passed
                   for fam in windows)
    monkeypatch.setattr(repmod, "_base_vanishes", lambda *key: True)
    assert all(verify_module(fam, window=2, degree=2).passed
               for fam in windows)


@pytest.mark.usefixtures("fresh_bases")
def test_a_vanished_base_decides_every_spec_within_its_support(monkeypatch):
    # the base of support {0, 1, 2} decides specs of its sub-supports, the
    # empty one too, without a proof of their own; another b or support
    # outside it is proved anew
    proved = _counted_proofs(monkeypatch)
    half = sc("1/2")
    assert repmod._symbols_vanish(ModuleSpec.phi(b=half, lam=sc(2), coeffs=(
        ONE, sc(3), sc(-2))))
    assert len(proved) == 1
    assert all(repmod._symbols_vanish(ModuleSpec.phi(
        b=half, lam=lam, alpha=alpha, coeffs=coeffs)) for lam, alpha, coeffs
        in ((I, ZERO, (ZERO, sc(5))), (sc(3), sc(2), (sc(7), ZERO, ONE)),
            (sc(-1), ZERO, ())))
    assert len(proved) == 1
    for spec in (ModuleSpec.phi(b=sc(2), lam=sc(2), coeffs=(ONE,)),
                 ModuleSpec.phi(b=half, lam=sc(2), coeffs=(ONE,) * 4)):
        assert repmod._symbols_vanish(spec)
    assert len(proved) == 3


@pytest.mark.usefixtures("fresh_bases")
def test_a_failing_base_decides_no_spec_within_its_support(monkeypatch):
    # under a data formula that makes a module exactly where c_0 = c_1,
    # the base of support {0, 1, 2} fails; each spec of a smaller support
    # is proved by its own base, which vanishes for {2} and fails for {0}
    # (the sweep asks again for the failing ones, which are kept nowhere,
    # so the proofs are counted before it runs)
    monkeypatch.setattr(repmod, "_tail", _tail_c0_minus_c1)
    proved = _counted_proofs(monkeypatch)
    specs = [(ModuleSpec.phi(b=sc("1/2"), lam=sc(2), coeffs=coeffs), holds)
             for coeffs, holds in (((ONE, sc(2), sc(3)), False),
                                   ((ZERO, ZERO, sc(3)), True),
                                   ((ONE,), False))]
    for spec, holds in specs:
        assert repmod._symbols_vanish(spec) is holds
    assert len(proved) == 3
    for spec, _ in specs:
        _assert_sweep_agrees(spec)


@pytest.mark.usefixtures("fresh_bases")
def test_one_proof_serves_the_classifier_and_the_sweep(monkeypatch):
    # every identity holds on this perturbed phi window, so solve_candidate
    # evaluates it whole and proves its read module; verify_module then
    # proves nothing new, on the window nor on the module it was made from,
    # whose support lies within the read's
    proved = _counted_proofs(monkeypatch)
    fam = _UNDETERMINED[1]
    assert isinstance(solve_candidate(fam), Undetermined)
    assert len(proved) == 1
    assert verify_module(fam, window=1, degree=2).passed
    assert verify_module(ModuleSpec.phi(b=sc("1/2"), lam=sc("1/3"),
                                        alpha=sc("3/2")),
                         window=1, degree=2).passed
    assert len(proved) == 1


@pytest.mark.usefixtures("fresh_bases")
@pytest.mark.parametrize("N", (1, 3))
def test_a_window_off_its_read_at_every_nonzero_index_proves_nothing(
        monkeypatch, N):
    # g_1 plus an L0 term, which the read takes into lambda, or plus a t^2
    # term, which it takes into its coefficients, with a t term on a_1: the
    # window differs from its read module at every nonzero index, so
    # _near gives no S: check_constraints proves no base, evaluates every
    # pair and lists what the reference lists
    proved = _counted_proofs(monkeypatch)
    base = candidate_for(ModuleSpec.phi(b=ONE, lam=sc(2), alpha=sc("3/2"),
                                        coeffs=(ZERO, ONE)), N)
    for fam in (perturbed(base, g_m={1: BiPoly.monomial(1, 0, sc(5))}),
                perturbed(base, a_m={1: BiPoly.monomial(0, 1, sc(3))},
                          g_m={1: BiPoly.monomial(0, 2, sc(5))})):
        read = _read(fam)
        assert {m for m in fam.a_m if fam.data(m) != read.data(m)} == {
            m for m in fam.a_m if m}
        assert repmod._near(fam, N) is None
        assert _bodies(check_constraints(fam)) == _bodies(
            _ref_check_constraints(fam))
    assert proved == []


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
        # the data are a module's but for a, so lw-compat is all that fails
        assert hits == report.failures
        assert ((0, 0), "-1/2*t") in [(f.indices, f.residue) for f in hits]


def _read_seeds(spec):
    read = _read(candidate_for(spec, 1))
    return CanonicalParams(read.family, read.lam, read.alpha, read.coeffs)


def test_extract_h_coeffs():
    # away from b = +-1, h_1 = P: the read peels the sequence off F_1
    assert _read_seeds(ModuleSpec.phi(b=ZERO, lam=sc(2), coeffs=(
        ZERO, sc(5), ONE))) == CanonicalParams(
        Family.PHI, sc(2), ZERO, (ZERO, sc(5), ONE))
    assert _read_seeds(ModuleSpec.phi(b=ZERO, lam=sc(2))).coeffs == ()


def test_extract_h_coeffs_with_corrections():
    # sequences built from the generating family must come back; at b = 1
    # the alpha correction enters h_1
    alpha = sc(2)
    for b in (ONE, MINUS_ONE):
        spec = ModuleSpec.phi(b=b, lam=sc(-3), alpha=alpha,
                              coeffs=(sc(3), ZERO, ONE))
        assert _read_seeds(spec) == CanonicalParams(
            Family.PHI, sc(-3), alpha, (sc(3), ZERO, ONE)), b


@pytest.mark.usefixtures("fresh_bases")
def test_extract_h_coeffs_builds_one_divided_difference_per_level(monkeypatch):
    # top degree 3: the read builds each level's divided difference once,
    # and no module
    alpha = sc(2)
    fam = candidate_for(ModuleSpec.phi(b=ONE, lam=sc(2), alpha=alpha, coeffs=(
        ZERO, sc(5), sc(-1), ONE)), 4)
    built = []

    def counted(k, a):
        built.append(k)
        return divided_difference(k, a)

    for module in (classify, repmod):
        monkeypatch.setattr(module, "divided_difference", counted, raising=False)
    assert _read(fam).coeffs == (ZERO, sc(5), sc(-1), ONE)
    assert sorted(built) == [1, 2, 3]


def _ref_read(fam):
    """The read as a peel, kept as an oracle for its closed form: the t^k
    coefficient of h_1 is c_k plus what the levels above put there, so P
    and Q are summed per level, each divided difference once, and each
    level's h_1 is taken off F on the way down."""
    a_1, g_1 = fam.a_m[1], fam.g_m[1]
    lam = g_1.coeff(1, 0)
    if fam.a or not lam:
        return None
    theta = fam.b == ONE and not a_1
    alpha = ZERO if theta else -(a_1.coeff(0, 0) / lam)
    spec = ModuleSpec(Family.THETA if theta else Family.PHI, fam.b, lam, alpha)
    F = BiPoly({k: c for k, c in g_1.terms.items() if not k[0]}).scale(
        lam.inv())
    coeffs = [ZERO] * (max(F.deg_t, 0) + 1)
    for k in reversed(range(len(coeffs))):
        coeffs[k] = c = F.coeff(0, k)
        if c:
            P = BiPoly.monomial(0, k, c)
            Q = divided_difference(k, alpha).scale(c)
            spec._P, spec._Q = spec._P + P, spec._Q + Q
            F -= repmod._tail(fam.b, alpha, P, Q, 1)
    spec.coeffs = tuple(coeffs)
    return spec


@st.composite
def read_windows(draw):
    """The window at N 1-3 of phi at b in {-1, 1, 0, 2/3, 3} or of theta,
    with a Gaussian lambda and alpha and up to seven coefficients, zeros
    among them; in about half of them g_1 gets a term added: a t^j, an L0
    term (which may cancel lambda), or an L0*t or L0^2 term (which the read
    does not look at)."""
    b = draw(st.sampled_from(("-1", "1", "0", "2/3", "3", "theta")))
    lam = draw(gaussians.filter(bool))
    coeffs = draw(st.lists(st.one_of(st.just(ZERO), gaussians), max_size=7))
    if b == "theta":
        spec = ModuleSpec.theta(lam=lam, coeffs=coeffs)
    else:
        spec = ModuleSpec.phi(b=sc(b), lam=lam, alpha=draw(gaussians),
                              coeffs=coeffs)
    fam = candidate_for(spec, draw(st.integers(1, 3)))
    if draw(st.booleans()):
        i, j = draw(st.sampled_from([(0, j) for j in range(8)]
                                    + [(1, 0), (1, 1), (2, 0)]))
        c = draw(st.one_of(gaussians.filter(bool), st.just(-lam)))
        fam = perturbed(fam, g_m={1: BiPoly.monomial(i, j, c)})
    return fam


@pytest.mark.oracle
@given(fam=read_windows())
def test_the_read_agrees_with_the_reference_peel(fam):
    # the closed form and the peel read the same module off the seeds, or
    # both none: family, lambda, alpha, coefficients, P, Q and the data
    read, ref = _read(fam), _ref_read(fam)
    assert (read is None) == (ref is None)
    if ref is None:
        return
    assert (read.family, read.lam, read.alpha, read.coeffs) == (
        ref.family, ref.lam, ref.alpha, ref.coeffs)
    assert (read._P, read._Q) == (ref._P, ref._Q)
    for m in range(-fam.window, fam.window + 1):
        assert read.data(m) == ref.data(m), m


def test_a_constructed_base_is_the_summed_base(monkeypatch):
    # the base _base_vanishes builds through ModuleSpec, with c_k = u_k on
    # the support, has the P and Q of the base summed term by term, for
    # every support within {0, ..., 4}
    built = []
    monkeypatch.setattr(repmod, "_pairs_vanish",
                        lambda base: built.append(base) or True)
    for b, alpha in (("-1", sci("3/2", -1)), ("1", sc(2)), ("0", ZERO),
                     ("2/3", sc(-1)), ("theta", ZERO)):
        family = Family.THETA if b == "theta" else Family.PHI
        b = ONE if b == "theta" else sc(b)
        for size in range(6):
            for support in combinations(range(5), size):
                repmod._base_vanishes(family, b, alpha, support)
                summed = ModuleSpec(family, b, ONE, alpha)
                for k in support:
                    u = BiPoly.index_var(3 + k)
                    summed._P += BiPoly.monomial(0, k) * u
                    summed._Q += divided_difference(k, alpha) * u
                assert (built[-1]._P, built[-1]._Q) == (
                    summed._P, summed._Q), (b, alpha, support)


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
    # theta modules live only over b = 1, so no b elsewhere compares them
    with pytest.raises(ValueError, match="theta modules exist only over"):
        isom_decide(s, t, sc(2))


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
    # when every window identity holds
    verdicts = []
    for fam in _seeded_windows(60, 18):
        swept = verify_module(fam, window=fam.window, degree=2).passed
        assert swept == check_constraints(fam).passed, fam
        verdicts.append(swept)
    assert True in verdicts and False in verdicts


def _perturbed_windows(count: int, seed: int):
    """One-entry perturbations of module windows at N 1-5, phi at the nine
    B_VALUES or theta: a != 0, g_1's L0 coefficient set to 0 (lambda = 0),
    or one monomial added to an a_m or a g_m at m != 0."""
    rng = random.Random(seed)
    for _ in range(count):
        N = rng.randint(1, 5)
        b = rng.choice(B_VALUES + ("theta",))
        coeffs = [_gaussian(rng) for _ in range(rng.randint(0, 2))]
        if b == "theta":
            spec = ModuleSpec.theta(lam=_gaussian(rng), coeffs=coeffs)
        else:
            spec = ModuleSpec.phi(b=sc(b), lam=_gaussian(rng), coeffs=coeffs,
                                  alpha=sc(rng.choice((0, 1, "3/2"))))
        fam = candidate_for(spec, N)
        a, a_m, g_m = fam.a, dict(fam.a_m), dict(fam.g_m)
        kind = rng.choice(("a", "lambda", "a_m", "a_m", "g_m", "g_m"))
        m = rng.choice([i for i in range(-N, N + 1) if i])
        c = _gaussian(rng)
        if kind == "a":
            a = c
        elif kind == "lambda":
            g_m[1] = g_m[1] - BiPoly.monomial(1, 0, g_m[1].coeff(1, 0))
        elif kind == "a_m":
            i, j = rng.choice(((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)))
            a_m[m] = a_m[m] + BiPoly.monomial(i, j, c)
        else:
            i, j = rng.choice(((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)))
            g_m[m] = g_m[m] + BiPoly.monomial(i, j, c)
        yield GenericFamily(a, fam.b, N, a_m, g_m)


def test_a_window_failing_a_dropped_pass_fails_a_window_identity():
    # b-power, deg-a, w-linear and the normalized cocycle, as
    # check_constraints once ran them, fail only where it still fails on
    # these windows (the cocycle is no window identity in general, see
    # test_the_normalized_cocycle_is_no_window_identity)
    failing = set()
    for fam in _perturbed_windows(600, 26):
        dropped = _ref_dropped_passes(fam).failures
        if dropped:
            assert not check_constraints(fam).passed, fam
            failing |= {f.constraint for f in dropped}
    assert failing == {"b-power", "deg-a", "w-linear-A", "w-linear-B",
                       "h-cocycle"}


def test_every_answer_is_a_listed_entry_or_undetermined():
    # a perturbed window is no module's; solve_candidate certifies it with
    # an entry check_constraints lists, or answers Undetermined where every
    # window identity holds
    answers = Counter()
    for fam in _perturbed_windows(1000, 27):
        out = solve_candidate(fam)
        entries = listed(fam)
        if isinstance(out, Undetermined):
            assert not entries, fam
        else:
            assert isinstance(out, InfeasibilityCertificate), fam
            assert as_listed(out) in entries, fam
        answers[type(out).__name__] += 1
    assert answers["InfeasibilityCertificate"] > 900, answers


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
    with pytest.raises(ValueError, match="g_0 must equal L0"):
        GenericFamily(
            a=ZERO, b=ZERO, window=1,
            a_m={-1: BiPoly.t_var(), 0: BiPoly.t_var(), 1: BiPoly.t_var()},
            g_m={-1: BiPoly.s_var(), 0: BiPoly.t_var(), 1: BiPoly.s_var()},
        )


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


def test_windows_compare_by_their_data():
    # two windows that differ only in a_m and g_m are two windows; a window
    # holds dicts, so it has no hash
    w3, w5 = (GenericFamily.from_spec(ModuleSpec.phi(b=sc(2), lam=sc(lam)), 1)
              for lam in (3, 5))
    assert w3 != w5
    assert w3 == GenericFamily.from_spec(ModuleSpec.phi(b=sc(2), lam=sc(3)), 1)
    assert not isinstance(w3, Hashable)
    with pytest.raises(TypeError):
        hash(w3)
    with pytest.raises(TypeError):
        {w3, w5}


@pytest.mark.parametrize("family, lam, alpha, message", [
    (Family.PHI, ZERO, ZERO, "lambda must be nonzero"),
    (Family.THETA, ZERO, sc(3), "lambda must be nonzero"),
    (Family.THETA, sc(2), sc(3), "theta modules have no alpha parameter"),
])
def test_canonical_params_refuse_what_no_module_has(family, lam, alpha,
                                                    message):
    # the rule ModuleSpec keeps: lambda != 0, and theta has no alpha
    with pytest.raises(ValueError, match=message):
        CanonicalParams(family, lam, alpha, (ONE,))
    with pytest.raises(ValueError, match=message):
        ModuleSpec(family, ONE, lam, alpha, (ONE,))


@pytest.mark.parametrize("b", ["2/3", 3, 0, 1, -1])
def test_solver_answers_at_the_first_index_that_differs(b):
    # a t-term in g_-1's L0-free part (only ll-compat reads it) and a
    # constant in a_2: the data first differ at m0 = -1, while the first
    # failing identity anywhere, lw-compat (-2, 2), reads only -2, 2 and 0;
    # the answer is the first failing one that reads m0
    spec = ModuleSpec.phi(b=sc(b), lam=sc(2), coeffs=(ONE, sc("-1/3")))
    fam = GenericFamily.from_spec(spec, 2)
    g_m = {**fam.g_m, -1: fam.g_m[-1] + BiPoly.t_var()}
    a_m = {**fam.a_m, 2: fam.a_m[2] + BiPoly.one()}
    fam = GenericFamily(fam.a, fam.b, 2, a_m, g_m)
    assert listed(fam)[0] == ("lw-compat", (-2, 2), "-1/2")
    out = solve_candidate(fam)
    assert as_listed(out) == ("lw-compat", (-1, 2), "-1")
    assert as_listed(out) in listed(fam) and -1 in (*out.indices,
                                                    sum(out.indices))


def test_solver_certifies_a_constant_level_mismatch():
    # g_-1 += 5 moves only the constant level, which the seed at m = 1
    # does not see; the first entry listed reads m = -1 as m + n
    spec = ModuleSpec.phi(b=sc(2), lam=sc(3), coeffs=(ONE,))
    fam = GenericFamily.from_spec(spec, 2)
    g_m = {**fam.g_m, -1: fam.g_m[-1] + BiPoly.const(sc(5))}
    fam = GenericFamily(fam.a, fam.b, 2, fam.a_m, g_m)
    assert solve_candidate(fam) == InfeasibilityCertificate(
        "ll-compat", (-2, 1), BiPoly.const(sc(15)))
    assert listed(fam)[0] == ("ll-compat", (-2, 1), "15")
