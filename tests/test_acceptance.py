"""Acceptance sweep: one test per contract item, exact arithmetic throughout.

Each test prints a single "<name>: pass" line on success so a verbose run
reads as a checklist.  The module-family grid shared by several tests is
built once at import time.
"""

import random
import time
from itertools import product

from conftest import sc, sci
from virab.algebra import L, W, classify_case, verify_algebra
from virab.classify import (
    CanonicalParams,
    InfeasibilityCertificate,
    Undetermined,
    check_constraints,
    isom_decide,
    solve_candidate,
)
from virab.orbit import check_invariant_subspace, orbit_closure
from virab.polynomials import BiPoly
from virab.repmod import (
    Family,
    GenericFamily,
    ModuleSpec,
    act_sym,
    apply_enveloping,
    q_poly,
    twist_poly,
    verify_module,
)
from virab.scalars import I, MINUS_ONE, ONE, ZERO


def build_grid():
    """The module grid exercised by the action, consistency and freeness
    sweeps: every combination of weight parameter, scale, twist and
    h-coefficients, plus the degenerate-weight family."""
    bs = [MINUS_ONE, ZERO, sc("1/2"), ONE, sc(2)]
    lams = [sc(2), sc("-1/2"), I]
    alphas = [ZERO, ONE, sc("3/2")]
    hs = [(), (ZERO, ONE), (ONE, sc("-1/3"), sc(2))]
    grid = [
        ModuleSpec.phi(b=b, lam=lam, alpha=alpha, coeffs=h)
        for b, lam, alpha, h in product(bs, lams, alphas, hs)
    ]
    grid += [
        ModuleSpec.theta(lam=lam, coeffs=r)
        for lam, r in product([sc(2), sc("-1/2")], [(), (ZERO, ONE, ONE)])
    ]
    return grid


GRID = build_grid()


def test_bracket_tables_satisfy_lie_axioms():
    started = time.perf_counter()
    params = [
        classify_case(sc(0), sc(0)),
        classify_case(sc(0), sc(-1)),
        classify_case(sc("1/2"), sc(0)),
        classify_case(sc(0), sc(1)),
        classify_case(sc(1), sc(2)),  # generic one-cocycle extension
    ]
    params += [
        classify_case(a, b, want_extension=False)
        for a, b in [
            (sc(0), sc(0)),
            (sc(0), sc(1)),
            (sc(0), sc(-1)),
            (sc("1/2"), sc(0)),
            (sc(1), sc(2)),
            (sc("-1/3"), sc(5)),
        ]
    ]
    for p in params:
        report = verify_algebra(p, window=5)
        assert report.passed, report.to_text()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"axiom sweep took {elapsed:.1f}s"
    print("bracket tables satisfy Lie axioms: pass")


def test_module_families_satisfy_bracket_action():
    for spec in GRID:
        report = verify_module(spec, window=4, degree=4)
        assert report.passed, report.to_text()
    print("module families satisfy bracket action: pass")


def test_generating_polynomials_satisfy_index_identity():
    # (n - m) F_{m+n} = n F_n - m F_m - n b F_m' w_n + m b F_n' w_m
    # for every generating polynomial F_n = q(n, k)
    for b in (MINUS_ONE, ONE, sc(2)):
        for alpha in (ZERO, ONE, sc("3/2")):
            w = {n: twist_poly(b, alpha, n) for n in range(-12, 13)}
            for k in range(5):
                F = {n: q_poly(n, k, alpha, b) for n in range(-12, 13)}
                for m in range(-6, 7):
                    for n in range(-6, 7):
                        lhs = F[m + n].scale(sc(n - m))
                        rhs = (
                            F[n].scale(sc(n))
                            - F[m].scale(sc(m))
                            - (F[m].partial_t() * w[n]).scale(b.mul_int(n))
                            + (F[n].partial_t() * w[m]).scale(b.mul_int(m))
                        )
                        assert lhs == rhs, (k, b, alpha, m, n)
    print("generating polynomials satisfy the index identity: pass")


def test_plain_weight_sequences_are_cocycles():
    # away from the twist selectors: n h_n - m h_m - (n - m) h_{m+n} = 0
    for b in (ZERO, sc("1/2"), sc(2), sc(3)):
        for alpha in (ZERO, ONE):
            for coeffs in ((ONE,), (ZERO, ONE), (ONE, sc("-1/3"), sc(2), ZERO, ONE)):
                spec = ModuleSpec.phi(b=b, lam=ONE, alpha=alpha, coeffs=coeffs)
                # lambda = 1, so h_n = g_n - s
                h = {n: spec.data(n)[1] - BiPoly.s_var()
                     for n in range(-12, 13)}
                for m in range(-6, 7):
                    for n in range(-6, 7):
                        residue = (
                            h[n].scale(sc(n))
                            - h[m].scale(sc(m))
                            - h[m + n].scale(sc(n - m))
                        )
                        assert residue.is_zero, (b, alpha, coeffs, m, n)
    print("plain weight sequences are cocycles: pass")


def _random_scalar(rng, nonzero=False):
    while True:
        x = sc(rng.randint(-5, 5)) / sc(rng.randint(1, 3)) + sc(rng.randint(-3, 3)) * I
        if x or not nonzero:
            return x


def test_classification_recovers_random_parameters():
    rng = random.Random(20240819)
    bs = [MINUS_ONE, ZERO, sc("1/2"), ONE, sc(3), sc("-1/2")]
    count = 0
    for b in bs:
        for _ in range(4):
            lam = _random_scalar(rng, nonzero=True)
            alpha = sc(rng.randint(-3, 3)) / sc(rng.randint(1, 2))
            coeffs = tuple(
                sc(rng.randint(-4, 4)) / sc(rng.randint(1, 2))
                for _ in range(rng.randint(0, 4))
            )
            spec = ModuleSpec.phi(b=b, lam=lam, alpha=alpha, coeffs=coeffs)
            fam = GenericFamily.from_spec(spec, 4)
            out = solve_candidate(fam)
            assert isinstance(out, CanonicalParams), (
                b, lam, alpha, coeffs, getattr(out, "to_dict", lambda: out)(),
            )
            assert out.family is Family.PHI
            assert out.lam == lam
            expected_alpha = alpha if b in (ONE, MINUS_ONE) else ZERO
            assert out.alpha == expected_alpha
            trimmed = list(coeffs)
            while trimmed and not trimmed[-1]:
                trimmed.pop()
            assert out.coeffs == tuple(trimmed), (b, lam, alpha, coeffs)
            count += 1
    assert count >= 20
    print("classification recovers randomized parameters: pass")


def test_translation_parameter_and_spurious_scale_branch_rejected():
    # any nonzero translation parameter contradicts the weight-zero instance
    spec = ModuleSpec.phi(b=sc(2), lam=sc(2), alpha=ZERO, coeffs=(ONE,))
    base = GenericFamily.from_spec(spec, 4)
    for a in (ONE, sc("1/2"), I):
        fam = GenericFamily(a=a, b=base.b, window=base.window,
                            a_m=base.a_m, g_m=base.g_m)
        report = check_constraints(fam)
        assert not report.passed
        hits = [f for f in report.failures if f.constraint == "lw-compat"]
        assert any(f.indices[0] == 0 for f in hits), a
        cert = solve_candidate(fam)
        assert isinstance(cert, InfeasibilityCertificate), a
    # the second root of the scale quadratic at b = 3 must not slip through:
    # every window identity holds on its seeds at N = 1, where the answer
    # is undetermined, and at N = 2 one fails and certifies it
    lam, b = sc(2), sc(3)
    k = (ONE - b) / b
    A1 = k * lam
    Am1 = (b - ONE) / (b * A1 - lam)
    seeds = {1: BiPoly.monomial(0, 1, A1), -1: BiPoly.monomial(0, 1, Am1)}
    for N in (1, 2):
        base = GenericFamily.from_spec(ModuleSpec.phi(b=b, lam=lam), N)
        fam = GenericFamily(ZERO, b, N, {**base.a_m, **seeds}, base.g_m)
        report = check_constraints(fam)
        out = solve_candidate(fam)
        if N == 1:
            assert report.passed
            assert isinstance(out, Undetermined)
        else:
            assert isinstance(out, InfeasibilityCertificate)
            assert (out.constraint, out.indices, out.residue_text) in [
                (f.constraint, f.indices, f.residue) for f in report.failures]
    print("translation parameter and spurious scale branch rejected: pass")


def test_isomorphism_decision_table():
    P = CanonicalParams
    h1 = (ONE, ZERO, sc(2))
    table = [
        # identical tuples
        (P(Family.PHI, sc(2), ONE, h1), P(Family.PHI, sc(2), ONE, h1), ONE, True),
        # trailing zeros are not a distinction
        (P(Family.PHI, sc(2), ONE, (ONE,)),
         P(Family.PHI, sc(2), ONE, (ONE, ZERO)), ONE, True),
        # scale mismatches are always fatal
        (P(Family.PHI, sc(2), ONE, h1), P(Family.PHI, sc(3), ONE, h1), ONE, False),
        (P(Family.PHI, I, ZERO, ()), P(Family.PHI, -I, ZERO, ()), sc(2), False),
        (P(Family.THETA, sc(2), ZERO, ()), P(Family.THETA, sc("1/2"), ZERO, ()),
         ONE, False),
        # twist parameter separates exactly at the selector weights
        (P(Family.PHI, sc(2), ONE, ()), P(Family.PHI, sc(2), sc(2), ()), ONE, False),
        (P(Family.PHI, sc(2), ONE, ()), P(Family.PHI, sc(2), sc(2), ()),
         MINUS_ONE, False),
        # ... and is normalized away otherwise
        (P(Family.PHI, sc(2), ONE, ()), P(Family.PHI, sc(2), sc(2), ()), sc(3), True),
        (P(Family.PHI, sc(2), ONE, ()), P(Family.PHI, sc(2), ZERO, ()), ZERO, True),
        # coefficient sequences compare exactly
        (P(Family.PHI, sc(2), ONE, (ONE, ONE)), P(Family.PHI, sc(2), ONE, (ONE,)),
         ONE, False),
        (P(Family.THETA, sc(2), ZERO, (ONE, ONE)),
         P(Family.THETA, sc(2), ZERO, (ONE, ONE)), ONE, True),
        (P(Family.THETA, sc(2), ZERO, (ONE,)),
         P(Family.THETA, sc(2), ZERO, (ONE, ONE)), ONE, False),
    ]
    assert len(table) >= 10
    for p, q, b, expected in table:
        assert isom_decide(p, q, b) is expected, (p, q, b)
        assert isom_decide(q, p, b) is expected, (q, p, b)
    print("isomorphism decision table: pass")


def test_submodule_witnesses_and_orbit_to_constant():
    t_multiples = lambda i, j: j >= 1
    for alpha in (ZERO, ONE, sc("3/2")):
        spec = ModuleSpec.phi(b=sc(2), lam=sc(2), alpha=alpha, coeffs=(ONE,))
        assert check_invariant_subspace(spec, t_multiples)
    for b in (ONE, MINUS_ONE):
        spec = ModuleSpec.phi(b=b, lam=sc(2), alpha=ZERO, coeffs=(ZERO, ONE))
        assert check_invariant_subspace(spec, t_multiples)
    theta = ModuleSpec.theta(lam=sc(2), coeffs=(ONE,))
    assert check_invariant_subspace(theta, t_multiples)
    # the nonzero twist breaks the witness and the orbit escapes to 1
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    assert not check_invariant_subspace(spec, t_multiples)
    report = orbit_closure(
        spec, [BiPoly.t_var(), BiPoly.s_var(), BiPoly.monomial(0, 2)]
    )
    assert report.data["reaches_one"], report.to_text()
    print("submodule witnesses and orbit to constant: pass")


def test_generic_action_data_matches_module_action():
    monomials = [
        BiPoly.monomial(i, j) for i in range(5) for j in range(5) if i + j <= 4
    ]
    for spec in GRID:
        fam = GenericFamily.from_spec(spec, window=4)
        for m in range(-4, 5):
            for f in monomials:
                for x in (L(m), W(m)):
                    assert fam.op(x).apply(f) == act_sym(spec, x, f), (spec, m)
    print("generic action data matches module action: pass")


def test_module_is_free_of_rank_one_over_cartan_pair():
    one = BiPoly.one()
    monomials = [
        BiPoly.monomial(i, j) for i in range(6) for j in range(6) if i + j <= 5
    ]
    for spec in GRID:
        for u in monomials:
            assert apply_enveloping(spec, u, one) == u, spec
    print("module is free of rank one over the Cartan pair: pass")
