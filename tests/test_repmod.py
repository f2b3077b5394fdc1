import random
import re

import pytest

from conftest import REPLAY_SPECS, sc, sci
from virab import algebra, repmod
from virab.algebra import AlgElement, C, L, W, bracket, classify_case
from virab.polynomials import INDEX_BITS, BiPoly, format_bipoly
from virab.repmod import (
    Family,
    GenericFamily,
    ModuleSpec,
    Op,
    _tail,
    act_element,
    act_sym,
    apply_enveloping,
    q_poly,
    verify_module,
)
from virab.scalars import I, MINUS_ONE, ONE, ZERO, Scalar, intpow


S = BiPoly.s_var()
T = BiPoly.t_var()


def test_q_poly_plain_cases():
    # away from b = +-1 there is no correction term
    assert q_poly(3, 2, sc(5), sc(0)) == BiPoly({(0, 2): sc(3)})
    assert q_poly(-2, 0, sc(5), sc(7)) == BiPoly({(0, 0): sc(-2)})


def test_q_poly_corrections():
    # b = 1: n t^k - n alpha dd(k, alpha)
    assert q_poly(3, 1, sc(2), sc(1)) == BiPoly({(0, 1): sc(3), (0, 0): sc(-6)})
    # b = -1: n t^k - n (n-1) alpha dd(k, alpha)
    assert q_poly(3, 1, sc(2), sc(-1)) == BiPoly({(0, 1): sc(3), (0, 0): sc(-12)})
    assert q_poly(0, 4, sc(2), sc(1)).is_zero
    assert q_poly(1, 2, sc(1), sc(-1)) == BiPoly({(0, 2): ONE})


def _h(spec, n):
    # h_n read back from g_n = lambda^n (s + h_n)
    return spec.data(n)[1].scale(intpow(spec.lam, -n)) - S


def test_h_sequence_has_leading_n():
    spec = ModuleSpec.phi(b=sc(1), lam=sc(2), alpha=sc(1), coeffs=(ONE, ZERO, sc(2)))
    for n in range(-4, 5):
        expected = q_poly(n, 0, sc(1), sc(1)) + q_poly(n, 2, sc(1), sc(1)).scale(sc(2))
        assert _h(spec, n) == expected
    assert _h(spec, 0).is_zero


def test_h_of_n_free_function():
    P = BiPoly({(0, 0): sc(1), (0, 1): sc(-2)})
    Q = BiPoly({(0, 0): sc(-2)})
    assert _tail(sc(5), sc(0), P, Q, 3) == BiPoly({(0, 0): sc(3), (0, 1): sc(-6)})
    assert _tail(sc(5), sc(0), P, Q, 0).is_zero
    spec = ModuleSpec.phi(b=sc(5), lam=sc(3), alpha=sc(0), coeffs=(sc(1), sc(-2)))
    assert _h(spec, 3) == _tail(sc(5), sc(0), P, Q, 3)


def _q_reference(n, k, alpha, b):
    """n*t^k - alpha*f(n)*(t^k - alpha^k)/(t - alpha), the generating
    polynomial written out here, f(n) = n(n-1) at b = -1, n at b = 1 and 0
    elsewhere: a reference that no code in repmod computes."""
    f = n * (n - 1) if b == MINUS_ONE else n if b == ONE else 0
    dd = BiPoly({(0, k - 1 - j): intpow(alpha, j) for j in range(k)})
    return BiPoly.monomial(0, k, sc(n)) - dd.scale(alpha.mul_int(f))


_ORACLE_LAM = sci("1/2", -1)
_ORACLE_SEQS = ((), (sc(2),), (ZERO, ONE), (ONE, sc("-1/3"), sc(2)),
                (sci(0, 1), ZERO, sc("1/2"), MINUS_ONE, ZERO, sc(3)))


def test_closed_form_data_match_the_generating_sum():
    # g_m = lambda^m (s + sum_k c_k q(m, k)), and q_poly is q
    lam = _ORACLE_LAM
    for b in (MINUS_ONE, ZERO, sc("1/2"), ONE, sc(3), sc("-1/2"), sci(2, 1)):
        for alpha in (ZERO, sc("3/2"), sci(1, -2)):
            for coeffs in _ORACLE_SEQS:
                spec = ModuleSpec.phi(b=b, lam=lam, alpha=alpha, coeffs=coeffs)
                for m in range(-8, 9):
                    qs = [_q_reference(m, k, alpha, b)
                          for k in range(len(coeffs))]
                    for k, q in enumerate(qs):
                        assert q_poly(m, k, alpha, b) == q, (b, alpha, m, k)
                    h = BiPoly.zero().combine(zip(qs, coeffs))
                    want = (S + h).scale(intpow(lam, m))
                    assert spec.data(m)[1] == want, (b, alpha, coeffs, m)


def test_theta_data_closed_form():
    # a_m = [m = 0] t and g_m = lambda^m (s + m P), P = sum_k c_k t^k
    lam = _ORACLE_LAM
    for coeffs in _ORACLE_SEQS:
        spec = ModuleSpec.theta(lam=lam, coeffs=coeffs)
        P = BiPoly({(0, k): c for k, c in enumerate(coeffs)})
        for m in range(-8, 9):
            a_m = T if m == 0 else BiPoly.zero()
            g_m = (S + P.scale(sc(m))).scale(intpow(lam, m))
            assert spec.data(m) == (a_m, g_m), (coeffs, m)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModuleSpec.phi(b=sc(0), lam=ZERO, alpha=ZERO, coeffs=())
    with pytest.raises(ValueError):
        ModuleSpec(Family.THETA, b=sc(0), lam=sc(2), coeffs=())
    with pytest.raises(ValueError):
        ModuleSpec(Family.THETA, b=sc(1), lam=sc(2), alpha=ONE, coeffs=())


def test_act_L_known_values():
    # b = 0, lambda = 2, alpha = 0, h = (): L_1 . s = 2 s (s - 1)
    spec = ModuleSpec.phi(b=sc(0), lam=sc(2), alpha=ZERO, coeffs=())
    assert act_sym(spec, L(1), S) == BiPoly({(2, 0): sc(2), (1, 0): sc(-2)})
    # b = 1, lambda = 1, alpha = 1, h = (): L_1 . t = s t + t - 1
    spec = ModuleSpec.phi(b=sc(1), lam=sc(1), alpha=sc(1), coeffs=())
    assert act_sym(spec, L(1), T) == BiPoly(
        {(1, 1): ONE, (0, 1): ONE, (0, 0): MINUS_ONE})


def test_act_W_twists():
    # b = -1: w_m = t - m alpha
    spec = ModuleSpec.phi(b=MINUS_ONE, lam=sc(1), alpha=sc(1), coeffs=())
    assert act_sym(spec, W(2), BiPoly.one()) == BiPoly(
        {(0, 1): ONE, (0, 0): sc(-2)})
    # b = 1: w_m = t - alpha for m != 0, w_0 = t
    spec = ModuleSpec.phi(b=ONE, lam=sc(1), alpha=sc(3), coeffs=())
    assert act_sym(spec, W(2), BiPoly.one()) == BiPoly(
        {(0, 1): ONE, (0, 0): sc(-3)})
    assert act_sym(spec, W(0), BiPoly.one()) == T
    # other b: w_m = t always
    spec = ModuleSpec.phi(b=sc(5), lam=sc(1), alpha=ZERO, coeffs=())
    assert act_sym(spec, W(7), BiPoly.one()) == T


def test_act_W_shifts_s():
    spec = ModuleSpec.phi(b=sc(0), lam=sc(2), alpha=ZERO, coeffs=())
    # W_1 . s = 2 (s - 1) t
    assert act_sym(spec, W(1), S) == BiPoly({(1, 1): sc(2), (0, 1): sc(-2)})


def test_act_centrals_vanish():
    spec = ModuleSpec.phi(b=sc(0), lam=sc(2), alpha=ZERO, coeffs=(ONE,))
    f = S * T + BiPoly.one()
    for idx in (1, 2, 3):
        assert act_sym(spec, C(idx), f).is_zero
    assert act_sym(spec, C(2), f).is_zero
    with pytest.raises(ValueError):
        act_sym(spec, C(9), f)
    # a central symbol has no operator: act_sym answers zero before asking
    with pytest.raises(ValueError, match="no action data for symbol C:1"):
        spec.op(C(1))


def test_act_centrals_rejected_without_extension():
    spec = ModuleSpec.phi(b=sc(0), lam=sc(2), alpha=ZERO, coeffs=(), extension=False)
    with pytest.raises(ValueError):
        act_sym(spec, C(1), BiPoly.one())


def test_theta_action():
    spec = ModuleSpec.theta(lam=sc(2), coeffs=(ONE, ONE))
    # W_m kills everything except m = 0, which multiplies by t
    assert act_sym(spec, W(1), S).is_zero
    assert act_sym(spec, W(0), S) == S * T
    # L_m . f = lambda^m (s + r_m) f(s - m), r_m = m (1 + t)
    got = act_sym(spec, L(1), BiPoly.one())
    r1 = spec.data(1)[1].scale(sc("1/2")) - S
    assert r1 == BiPoly.one() + T
    assert got == (S + r1).scale(sc(2))


def test_act_element_linearity():
    spec = ModuleSpec.phi(b=sc(2), lam=sc(3), alpha=ZERO, coeffs=(ONE,))
    f = S + T
    e = {L(1): sc(2), W(-1): MINUS_ONE}
    from virab.algebra import AlgElement

    got = act_element(spec, AlgElement(e), f)
    want = act_sym(spec, L(1), f).scale(sc(2)) - act_sym(spec, W(-1), f)
    assert got == want


def test_apply_enveloping_is_freeness_on_generator():
    spec = ModuleSpec.phi(b=sc(1), lam=sc(2), alpha=sc(1), coeffs=(ZERO, ONE))
    u = BiPoly({(2, 1): sc(3), (0, 0): sc(-1), (1, 0): I})
    assert apply_enveloping(spec, u, BiPoly.one()) == u


def test_generic_family_matches_module_action():
    spec = ModuleSpec.phi(b=sc("1/2"), lam=sci(0, 1), alpha=sc(2), coeffs=(ONE,))
    fam = GenericFamily.from_spec(spec, window=3)
    for m in range(-3, 4):
        for f in (BiPoly.one(), S, T, S * T, S * S):
            for x in (L(m), W(m)):
                assert fam.op(x).apply(f) == act_sym(spec, x, f)


def test_generic_family_validation():
    spec = ModuleSpec.phi(b=sc(0), lam=sc(2), alpha=ZERO, coeffs=())
    fam = GenericFamily.from_spec(spec, window=2)
    with pytest.raises(ValueError):
        fam.op(L(3)).apply(S)  # outside the stored window
    with pytest.raises(ValueError, match="sweep window exceeds family window"):
        verify_module(GenericFamily.from_spec(spec, window=1), window=2)


def test_verify_module_passes():
    spec = ModuleSpec.phi(b=sc(2), lam=sc(-1), alpha=sc(1), coeffs=(ONE, MINUS_ONE))
    report = verify_module(spec, window=2, degree=2)
    assert report.passed
    assert report.checks > 0


def test_verify_module_catches_wrong_action():
    spec = ModuleSpec.phi(b=sc(0), lam=sc(2), alpha=ZERO, coeffs=())
    fam = GenericFamily.from_spec(spec, window=2)
    bad = dict(fam.g_m)
    bad[1] = bad[1] + BiPoly.one()  # corrupt one structure polynomial
    broken = GenericFamily(a=fam.a, b=fam.b, window=fam.window, a_m=fam.a_m, g_m=bad)
    report = verify_module(broken, window=2, degree=2)
    assert not report.passed
    assert report.failures
    first = report.failures[0]
    assert first.constraint == "module-axiom"


def test_spec_serialization_round_trip():
    spec = ModuleSpec.phi(b=sc("1/2"), lam=sci(2, -1), alpha=sc(3), coeffs=(ONE, ZERO))
    doc = spec.to_dict()
    again = ModuleSpec.from_dict(doc)
    assert again.to_dict() == doc
    theta = ModuleSpec.theta(lam=sc(-2), coeffs=(sc(5),))
    assert ModuleSpec.from_dict(theta.to_dict()).to_dict() == theta.to_dict()


def test_spec_from_dict_validation():
    base = ModuleSpec.phi(b=sc(0), lam=sc(2), alpha=ZERO, coeffs=()).to_dict()
    for corrupt in (
        {**base, "a": "1"},
        {**base, "family": "psi"},
        {**base, "lambda": "0"},
        {**base, "extension": "yes"},
        {k: v for k, v in base.items() if k != "coeffs"},
        {**base, "extra": 1},
        {**base, "coeffs": "1"},
    ):
        with pytest.raises(ValueError):
            ModuleSpec.from_dict(corrupt)
    # an integer is a scalar too
    assert ModuleSpec.from_dict({**base, "lambda": 3}).lam == sc(3)


@pytest.mark.parametrize("window, degree", [(-1, 2), (2, -1)])
def test_verify_module_rejects_negative_window_and_degree(window, degree):
    spec = ModuleSpec.phi(b=sc(0), lam=sc(2), alpha=ZERO, coeffs=())
    fam = GenericFamily.from_spec(spec, window=2)
    for target in (spec, fam):
        with pytest.raises(ValueError):
            verify_module(target, window=window, degree=degree)


@pytest.mark.parametrize("field, value", [
    ("coeffs", [0.1]),
    ("lambda", 0.5),
    ("b", True),
])
def test_spec_from_dict_rejects_inexact_scalars(field, value):
    doc = ModuleSpec.phi(b=sc(0), lam=sc(2), alpha=ZERO, coeffs=(ONE,)).to_dict()
    doc[field] = value
    with pytest.raises(ValueError, match="scalar string or an integer"):
        ModuleSpec.from_dict(doc)


_LL = algebra._ll


@pytest.mark.usefixtures("fresh_bases")
def test_verify_module_rejects_bracket_term_with_another_shift(monkeypatch):
    # [L_1, L_2] answers L_4 instead of L_3: the sweep refuses to fold the
    # action of L_4 (shift 4) into the symbol of a pair of total shift 3
    def wrong_shift(n, m, p):
        return (AlgElement.single(L(4)) if (n, m) == (1, 2)
                else _LL(n, m, p))

    monkeypatch.setattr(algebra, "_ll", wrong_shift)
    spec = ModuleSpec.phi(b=sc(2), lam=sc(-1), alpha=sc(1), coeffs=(ONE,))
    with pytest.raises(ValueError, match=r"bracket \[L:1, L:2\] has the "
                       r"term L:4 with shift 4, not the pair's total shift 3"):
        verify_module(spec, window=2, degree=1)


def _naive_sweep(target, window, degree):
    """verify_module without memoisation or shared shifts: every check
    recomputes x.(y.f) - y.(x.f) - sum c.(sym.f) from the public actions."""
    if isinstance(target, GenericFamily):
        algebra = classify_case(target.a, target.b, want_extension=False)

        def act(sym, u):
            return target.op(sym).apply(u)
    else:
        algebra = target.algebra

        def act(sym, u):
            return act_sym(target, sym, u)
    syms = [L(n) for n in range(-window, window + 1)]
    syms += [W(n) for n in range(-window, window + 1)]
    syms += [C(i) for i in algebra.central_indices]
    monos = [BiPoly.monomial(i, d - i)
             for d in range(degree + 1) for i in range(d + 1)]
    checks, failures = 0, []
    for x in syms:
        for y in syms:
            if isinstance(target, GenericFamily) and abs(x.index + y.index) > window:
                continue
            br = bracket(x, y, algebra)
            for f in monos:
                checks += 1
                res = act(x, act(y, f)) - act(y, act(x, f))
                for sym, c in br.terms.items():
                    res = res - act(sym, f).scale(c)
                if res:
                    failures.append(
                        ((str(x), str(y), format_bipoly(f)), format_bipoly(res)))
    return checks, failures


def _perturbed_family():
    spec = ModuleSpec.phi(b=sc(2), lam=sc(-1), alpha=sc(1), coeffs=(ONE, MINUS_ONE))
    fam = GenericFamily.from_spec(spec, window=2)
    g_m = dict(fam.g_m)
    g_m[-1] = g_m[-1] + BiPoly.monomial(1, 1, sc("1/2"))
    return GenericFamily(fam.a, fam.b, fam.window, fam.a_m, g_m)


def _family_with_a():
    # a != 0: W_m shifts by a + m, not by m
    a_m = {m: T + BiPoly.const(sc(m)) for m in range(-2, 3)}
    g_m = {m: S + T.scale(sc(m)) for m in range(-2, 3)}
    return GenericFamily(sc("1/2"), sc(3), 2, a_m, g_m)


def _perturbed_a_family():
    spec = ModuleSpec.phi(b=MINUS_ONE, lam=sc(2), alpha=sc(1), coeffs=(ONE,))
    fam = GenericFamily.from_spec(spec, window=2)
    a_m = dict(fam.a_m)
    a_m[1] = a_m[1] + BiPoly.const(sc(-3))
    return GenericFamily(fam.a, fam.b, fam.window, a_m, fam.g_m)


class _DerivativeOnly(ModuleSpec):
    """L_m . f = s*f(s - m, t) + m^2*s*t^2 * d/dt f(s - m, t) and W_m . f = 0.

    With g_m = s and W acting by zero every pair's symbol has dA = 0, so
    each degree-0 check passes, while dB and dC do not vanish and show from
    degree 1 and 2 on.  GenericFamily data cannot fail this way, since
    W_0 . f = t*f ties each d_m to a_m, so the action is built here."""

    __slots__ = ()

    def op(self, sym):
        m = sym.index
        if sym.kind == "W":
            return Op(Scalar.from_int(m), BiPoly.zero(), BiPoly.zero())
        return Op(Scalar.from_int(m), S, BiPoly.monomial(1, 2, sc(m * m)))


def _ll_not_antisymmetric(n, m, p):
    """[L_n, L_m] with [L_1, L_2] = 2*L_3 = -2*[L_2, L_1] and [L_1, L_1] =
    L_2: the sweep may not mirror (L_1, L_2) into (L_2, L_1), nor take
    (L_1, L_1) to pass."""
    if (n, m) in ((1, 2), (1, 1)):
        return AlgElement.single(L(n + m), sc(m))
    return _LL(n, m, p)


# (id, target, lowest degree at which the sweep fails or None[, window]);
# the degree-2 case keeps the bare id, and the window is 2 unless given.
# Window 3 replays every zero pattern of (m, n, m + n) on the specs the
# symbols decide: m = 0, n = 0 and m + n = 0 each with m, n != 0.
_REPLAY_TARGETS = [
    ("phi-b-1", lambda: ModuleSpec.phi(b=MINUS_ONE, lam=sc(2), alpha=sc(1),
                                       coeffs=(ONE, MINUS_ONE)), None),
    ("theta", lambda: ModuleSpec.theta(lam=sc("-1/2"), coeffs=(ZERO, ONE, ONE)),
     None),
    ("generic", lambda: GenericFamily.from_spec(
        ModuleSpec.phi(b=sc("1/2"), lam=I, alpha=sc(3), coeffs=(ONE,)), 2),
     None),
    ("generic-perturbed", _perturbed_family, 0),
    ("generic-a", _family_with_a, 0),
    ("generic-perturbed-a", _perturbed_a_family, 0),
    ("phi-b0", lambda: ModuleSpec.phi(b=ZERO, lam=sc(3), alpha=ZERO,
                                      coeffs=(ONE, sc(2))), None),
    ("derivative-only", lambda: _DerivativeOnly(Family.PHI, ZERO, ONE,
                                                extension=False), 1),
    ("broken-antisymmetry", lambda: ModuleSpec.phi(
        b=sc(2), lam=sc(-1), alpha=sc(1), coeffs=(ONE, MINUS_ONE)), 0),
    ("phi-b1-w3", lambda: ModuleSpec.phi(b=ONE, lam=sc(-2), alpha=sc("3/2")),
     None, 3),
    ("phi-b-1-w3", lambda: ModuleSpec.phi(
        b=MINUS_ONE, lam=sc("1/2"), alpha=sci(1, 1),
        coeffs=(ONE, ZERO, sc(-2))), None, 3),
    ("theta-w3", lambda: ModuleSpec.theta(lam=sc(3), coeffs=(ONE, sc("-1/2"))),
     None, 3),
]
# bracket tables replaced while one target is swept: id -> (name in
# virab.algebra, replacement)
_TABLE_PATCHES = {"broken-antisymmetry": ("_ll", _ll_not_antisymmetric)}


@pytest.mark.parametrize("name, make, degree, fails, window", [
    pytest.param(name, make, degree, low is not None and degree >= low,
                 window[0] if window else 2,
                 id=name if degree == 2 else f"{name}-deg{degree}")
    for name, make, low, *window in _REPLAY_TARGETS for degree in (0, 1, 2)
])
@pytest.mark.usefixtures("fresh_bases")
def test_verify_module_matches_naive_replay(name, make, degree, fails,
                                            window, monkeypatch):
    if name in _TABLE_PATCHES:
        monkeypatch.setattr(algebra, *_TABLE_PATCHES[name])
    target = make()
    report = verify_module(target, window=window, degree=degree)
    checks, failures = _naive_sweep(target, window=window, degree=degree)
    assert report.checks == checks
    assert [(f.indices, f.residue) for f in report.failures] == failures
    assert bool(failures) == fails


# --- symbolic indices ----------------------------------------------------

_SYMBOLIC_SPECS = REPLAY_SPECS + [
    ModuleSpec.phi(b=ONE, lam=sc(-2), alpha=sc("3/2")),
    ModuleSpec.phi(b=MINUS_ONE, lam=sc("1/2"), alpha=sci(1, 1),
                   coeffs=(ONE, ZERO, sc(-2))),
    ModuleSpec.theta(lam=sc(3), coeffs=(ONE, sc("-1/2"))),
    ModuleSpec.phi(b=sc(3), lam=ONE, coeffs=(ONE,), extension=False),
]


def _pass_text(report):
    return re.sub(r"elapsed: [0-9.]+s", "", report.to_text())


@pytest.mark.parametrize("spec", _SYMBOLIC_SPECS,
                         ids=lambda s: f"{s.family.value}-b{s.b}"
                         f"-alpha{s.alpha}-lam{s.lam}")
def test_symbols_decide_a_spec_as_the_sweep_does(spec, monkeypatch):
    # every symbol vanishes, and the report is the sweep's, checks included
    assert repmod._symbols_vanish(spec)
    decided = verify_module(spec, window=3, degree=3)
    monkeypatch.setattr(repmod, "_symbols_vanish", lambda spec: False)
    swept = verify_module(spec, window=3, degree=3)
    assert decided.passed and swept.passed
    assert _pass_text(decided) == _pass_text(swept)
    assert decided.checks == swept.checks


def _twin(spec: ModuleSpec) -> ModuleSpec:
    """spec at lambda = 1."""
    return ModuleSpec(spec.family, spec.b, ONE, spec.alpha, spec.coeffs,
                      spec.extension)


def _specialize(p: BiPoly, values: tuple[int, ...]) -> BiPoly:
    """p with index variables 1, 2, ... (:meth:`BiPoly.index_var`) set
    from ``values``: each key's s exponent is read as base-2^INDEX_BITS
    digits, the power of s and then one signed exponent per variable."""
    mask, half = (1 << INDEX_BITS) - 1, 1 << INDEX_BITS - 1
    pairs = []
    for (key, j), c in p.terms.items():
        i, key = key & mask, key >> INDEX_BITS
        for v in values:
            e = ((key + half) & mask) - half
            key = (key - e) >> INDEX_BITS
            c = c * intpow(Scalar.from_int(v), e)
        assert key == 0, p
        pairs.append((BiPoly.monomial(i, j), c))
    return BiPoly.zero().combine(pairs)


@pytest.mark.parametrize("spec", _SYMBOLIC_SPECS,
                         ids=lambda s: f"{s.family.value}-b{s.b}"
                         f"-alpha{s.alpha}-lam{s.lam}")
def test_an_index_specializes_to_its_int_value(spec):
    # data and ops of the lambda = 1 twin at a symbolic m where none of m,
    # n, m + n is zero read, with m and n set, as those at the int m: the
    # int and Index readings of each formula agree, not only their verdicts
    twin = _twin(spec)
    m_var, n_var = BiPoly.index_var(1), BiPoly.index_var(2)
    i = repmod.Index(m_var, (m_var + n_var, m_var, n_var))
    symbolic = [twin.data(i)] + [
        (op.shift.poly, op.p, op.q) for op in (twin.op(L(i)), twin.op(W(i)))]
    for m in (-3, -2, -1, 1, 2, 3):
        ints = [twin.data(m)] + [(BiPoly.const(op.shift), op.p, op.q)
                                 for op in (twin.op(L(m)), twin.op(W(m)))]
        got = [tuple(_specialize(p, (m, 5)) for p in ps) for ps in symbolic]
        assert got == ints, m


@pytest.mark.parametrize("spec", _SYMBOLIC_SPECS,
                         ids=lambda s: f"{s.family.value}-b{s.b}"
                         f"-alpha{s.alpha}-lam{s.lam}")
def test_ops_scale_by_lambda_to_the_m(spec):
    # what lets _symbols_vanish decide at lambda = 1: every op is lambda^m
    # times its twin's, p and q scaled and the shift kept
    twin = _twin(spec)
    for m in range(-4, 5):
        lam_m = intpow(spec.lam, m)
        for sym in (L(m), W(m)):
            op, op1 = spec.op(sym), twin.op(sym)
            assert op.shift == op1.shift, sym
            assert op.p == op1.p.scale(lam_m), sym
            assert op.q == op1.q.scale(lam_m), sym


def test_index_answers_only_the_tests_its_pattern_decides():
    m_var, n_var = BiPoly.index_var(1), BiPoly.index_var(2)
    nonzero = (m_var + n_var, m_var, n_var)
    m, n = (repmod.Index(v, nonzero) for v in (m_var, n_var))
    assert m != 0 and n != 0 and m + n != 0 and m * n != 0 and m * 0 == 0
    assert (m + n) * sc(3) != 0 and m - m == 0 and m + n == n + m
    # m = 0: only n is left
    zero, n0 = (repmod.Index(v, (n_var,)) for v in (BiPoly.zero(), n_var))
    assert zero == 0 and n0 != 0 and zero + n0 != 0
    # a one-term test is decided only by variables declared nonzero
    bare_m, bare_n = (repmod.Index(v, (m_var + n_var,))
                      for v in (m_var, n_var))
    for undecided in (lambda: bare_m == 0, lambda: bool(bare_m * bare_n)):
        with pytest.raises(repmod.Undecided):
            undecided()
    for undecided in (lambda: m == n, lambda: m - 1 == 0,
                      lambda: bool(m + 2 * n), lambda: m > 0, lambda: m <= n,
                      lambda: range(m), lambda: sc(3) ** m,
                      lambda: sc(2) ** (m * m)):
        with pytest.raises((repmod.Undecided, TypeError)):
            undecided()
    # lambda ** k is taken only at lambda = 1
    assert ONE ** (m * m - n) == ONE
    with pytest.raises(repmod.Undecided):
        sc(2) ** m


def _twist_plus_m_alpha(b, m, weights=repmod._alpha_weights):
    # the twist t + m*alpha at b = -1 instead of t - m*alpha
    f, w = weights(b, m)
    return (f, -w) if b == MINUS_ONE else (f, w)


def _tail_weight_n_n_plus_1(b, m, weights=repmod._alpha_weights):
    # the tail weight m*(m + 1) at b = -1 instead of m*(m - 1)
    f, w = weights(b, m)
    return (m * (m + 1), w) if b == MINUS_ONE else (f, w)


@pytest.mark.parametrize("name, where, attr, value", [
    pytest.param(name, *patch, id=name) for name, *patch in (
        ("wrong-shift", algebra, "_ll", lambda n, m, p: AlgElement.single(
            L(4)) if (n, m) == (1, 2) else _LL(n, m, p)),
        ("broken-antisymmetry", algebra, "_ll", _ll_not_antisymmetric),
        ("twist", repmod, "_alpha_weights", _twist_plus_m_alpha),
        ("tail-weight", repmod, "_alpha_weights", _tail_weight_n_n_plus_1))
])
@pytest.mark.usefixtures("fresh_bases")
def test_symbols_refuse_or_fail_what_the_sweep_fails(name, where, attr, value,
                                                     monkeypatch):
    # a pointwise bracket refuses its symbolic indices, and a wrong datum
    # leaves a symbol; either way the sweep decides, and fails
    monkeypatch.setattr(where, attr, value)
    spec = ModuleSpec.phi(b=MINUS_ONE, lam=sc(2), alpha=sc(1),
                          coeffs=(ONE, sc("-1/3"), sc(2)))
    assert not repmod._symbols_vanish(spec)
    if name == "wrong-shift":
        with pytest.raises(ValueError, match="not the pair's total shift"):
            verify_module(spec, window=2, degree=0)
    else:
        assert not verify_module(spec, window=2, degree=0).passed


class _UnscaledTail(ModuleSpec):
    """g_m = lambda^m * s + h_m: data that do not scale by lambda^m, which
    the lambda = 1 twin of :func:`repmod._symbols_vanish` cannot see."""

    __slots__ = ()

    def data(self, m):
        h_m = _tail(self.b, self.alpha, self._P, self._Q, m)
        return super().data(m)[0], S.scale(intpow(self.lam, m)) + h_m


def test_symbols_leave_overridden_actions_and_windows_to_the_sweep(
        monkeypatch):
    spec = _DerivativeOnly(Family.PHI, ZERO, ONE, extension=False)
    assert not repmod._symbols_vanish(spec)
    assert not verify_module(spec, window=1, degree=1).passed
    spec = _UnscaledTail(Family.PHI, ZERO, sc(2), ZERO, (ONE, sc("-1/3")))
    assert not repmod._symbols_vanish(spec)
    assert not verify_module(spec, window=1, degree=1).passed

    # a module's window skips every pair once its read module is proved;
    # with the proof refused, a subclass or another op, it sweeps them all
    window = GenericFamily.from_spec(REPLAY_SPECS[0], 2)
    assert verify_module(window, window=2, degree=2).passed
    swept = _swept_pairs(monkeypatch)
    assert verify_module(window, window=2, degree=2).passed
    assert swept == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repmod, "_read", lambda fam: None)
        assert verify_module(window, window=2, degree=2).passed
    every = list(swept)
    assert every
    swept.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repmod, "_symbols_vanish", lambda spec: False)
        assert verify_module(window, window=2, degree=2).passed
    assert swept == every

    class Window(GenericFamily):
        pass

    for target, op in ((Window(window.a, window.b, 2, window.a_m,
                               window.g_m), repmod._op),
                       (window, lambda fam, sym: repmod._op(fam, sym))):
        swept.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GenericFamily, "op", op)
            assert verify_module(target, window=2, degree=2).passed
        assert swept == every


def _swept_pairs(monkeypatch):
    """The list of the pairs at int indices whose symbol verify_module
    computes, filled as it computes them."""
    swept, symbol = [], repmod._pair_symbol

    def counted(x, y, *rest):
        if type(x.index) is int:
            swept.append((x, y))
        return symbol(x, y, *rest)

    monkeypatch.setattr(repmod, "_pair_symbol", counted)
    return swept


# --- module-action oracle: sympy over QQ_I, sharing no code with repmod ---

def _to_sympy(c: Scalar):
    from sympy import I as SYMPY_I, Rational
    return (Rational(c.re.numerator, c.re.denominator)
            + Rational(c.im.numerator, c.im.denominator) * SYMPY_I)


def _oracle_action(family, b, lam, alpha, coeffs, kind, m):
    """L_m or W_m as a differential operator on C[s, t], written from the
    README: with F = f(s - m, t), W_m . f = a_m F and L_m . f = g_m F +
    b m a_m dF/dt, where a_m = lambda^m w_m (theta: t at m = 0, else 0),
    g_m = lambda^m (s + h_m), w_m = t - [b = -1] m alpha - [b = 1, m != 0]
    alpha, and h_m = sum_k h_k (m t^k - c_m alpha (t^k - alpha^k) / (t -
    alpha)) with c_m = m (m - 1) at b = -1, m at b = 1, else 0 (theta:
    r_m = sum_k r_k m t^k)."""
    from sympy import Poly, cancel, expand, symbols
    from sympy.polys.domains import QQ_I

    s, t = symbols("s t")
    lam_m = expand(lam ** m)
    if family == "theta":
        a_m = t if m == 0 else 0
        h_m = sum(c * m * t ** k for k, c in enumerate(coeffs))
    else:
        w_m = t - (alpha * m if b == -1 else alpha if b == 1 and m else 0)
        a_m = lam_m * w_m
        c_m = m * (m - 1) if b == -1 else m if b == 1 else 0
        h_m = sum(c * (m * t ** k - c_m * alpha
                       * cancel((t ** k - alpha ** k) / (t - alpha)))
                  for k, c in enumerate(coeffs))
    a_m, g_m, d_m, shift = (Poly(expand(e), s, t, domain=QQ_I) for e in
                            (a_m, lam_m * (s + h_m), b * m * a_m, s - m))

    def act(f):
        F = f.compose(shift)
        return a_m * F if kind == "W" else g_m * F + d_m * F.diff(t)

    return act


ORACLE_MODULES = [
    ("phi", -1, 2, "3/2", (1, "-1/3", 2)),
    ("phi", -1, (1, 1), 0, (0, 1)),
    ("phi", 0, "-1/2", 0, (1, "-1/3", 2)),
    ("phi", "1/2", (0, 1), 2, (1,)),
    ("phi", 1, 2, "3/2", (1, "-1/3", 2)),
    ("phi", 1, "-1/2", 0, (0, 1)),
    ("phi", 2, (1, 1), 1, (2, 0, 1)),
    ("theta", 1, "-1/2", 0, (0, 1, 1)),
]


@pytest.mark.parametrize("family, b, lam, alpha, coeffs", ORACLE_MODULES)
def test_module_action_matches_sympy_oracle(family, b, lam, alpha, coeffs):
    from sympy import Poly, symbols
    from sympy.polys.domains import QQ_I

    s, t = symbols("s t")
    lam = sci(*lam) if isinstance(lam, tuple) else sc(lam)
    coeffs = tuple(sc(c) for c in coeffs)
    if family == "theta":
        spec = ModuleSpec.theta(lam=lam, coeffs=coeffs)
    else:
        spec = ModuleSpec.phi(b=sc(b), lam=lam, alpha=sc(alpha), coeffs=coeffs)
    window = 3
    syms = [x(m) for m in range(-window, window + 1) for x in (L, W)]
    ops = [spec.op(sym) for sym in syms]
    oracle = [_oracle_action(family, _to_sympy(spec.b), _to_sympy(lam),
                             _to_sympy(spec.alpha),
                             [_to_sympy(c) for c in coeffs], sym.kind,
                             sym.index) for sym in syms]

    def to_poly(f: BiPoly):
        return Poly.from_dict({k: QQ_I.from_sympy(_to_sympy(c))
                               for k, c in f.terms.items()} or {(0, 0): 0},
                              s, t, domain=QQ_I)

    for i in range(4):
        for j in range(4 - i):
            f = BiPoly.monomial(i, j)
            want = [act(Poly(s ** i * t ** j, s, t, domain=QQ_I))
                    for act in oracle]
            assert [to_poly(op.apply(f)) for op in ops] == want, (i, j)


@pytest.mark.parametrize("spec", REPLAY_SPECS,
                         ids=lambda s: f"{s.family.value}-b{s.b}-alpha{s.alpha}")
def test_support_bound_is_sound(spec):
    # every monomial s^i t^j of an image lies in the op's column bound
    # (i <= bound[j]) of the polynomial's column profile, for every op of
    # windows 1-3, the unshifted L_0 and W_0 included
    rng = random.Random(f"support/{spec.to_dict()}")
    shifts, below = set(), 0
    for window in (1, 2, 3):
        for m in range(-window, window + 1):
            for x in (L, W):
                op = spec.op(x(m))
                shifts.add(op.shift)
                for _ in range(6):
                    f = BiPoly({(rng.randint(0, 3), rng.randint(0, 4)):
                                sci(rng.randint(-2, 2), rng.randint(-1, 1))
                                for _ in range(rng.randint(1, 4))})
                    columns = {}
                    for i, j in f.terms:
                        columns[j] = max(i, columns.get(j, 0))
                    bound = op.support(columns)
                    for i, j in op.apply(f).terms:
                        assert j in bound and i <= bound[j], (op, f, (i, j))
                        below += i < bound[j]
    assert ZERO in shifts and len(shifts) > 1
    assert below  # images fill their columns from below, not only the top
