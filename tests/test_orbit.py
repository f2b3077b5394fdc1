import json
import random

import pytest

from conftest import REPLAY_SPECS, sc, sci
from virab.algebra import L, W
from virab.orbit import (
    SubspaceBasis,
    _fits_by_degree,
    check_invariant_subspace,
    orbit_closure,
)
from virab.polynomials import BiPoly, format_bipoly
from virab.repmod import Family, ModuleSpec, Op, verify_module
from virab.scalars import MINUS_ONE, ONE, ZERO, Scalar


S = BiPoly.s_var()
T = BiPoly.t_var()


def test_subspace_basis_mechanics():
    basis = SubspaceBasis((2, 2))
    assert basis.insert(S + T) is not None
    assert basis.insert(S) is not None
    assert basis.insert(T) is None  # now dependent
    assert basis.dim == 2
    assert basis.contains(T.scale(sc(7)))
    assert basis.contains(S - T.scale(sc("1/3")))
    assert not basis.contains(BiPoly.one())
    assert not basis.contains(BiPoly.monomial(3, 0))  # outside the box


def test_subspace_basis_stays_reduced(rng):
    basis = SubspaceBasis((3, 3))
    polys = [
        BiPoly({(i, j): sc(rng.randint(-4, 4)) for i in range(4) for j in range(4)})
        for _ in range(20)
    ]
    for p in polys:
        basis.insert(p)
    # every pivot monomial is absent from all other rows and 1 on its own row
    for pivot in basis.rows:
        for key, row in basis.rows.items():
            expected = ONE if key == pivot else ZERO
            assert row.coeff(*pivot) == expected
    for p in polys:
        assert basis.contains(p)
    assert basis.dim <= 16


def test_subspace_basis_matches_sympy_rref():
    # sympy is the test-only reference: the same inputs as rows of a matrix
    # over QQ_I, one column per monomial in the order (i, j) ascending
    from sympy import I as SYMPY_I, Rational
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(20240905)
    ds, dt = 3, 3
    cols = [(i, j) for i in range(ds + 1) for j in range(dt + 1)]

    def coeff() -> Scalar:
        c = ZERO
        while not c:
            c = sci(rng.randint(-3, 3), rng.randint(-2, 2)) / sc(rng.randint(1, 3))
        return c

    inputs, combined = [], set()
    for n in range(18):
        if n % 3 == 2:
            # a combination of earlier inputs, so dependent by construction
            p, q = rng.sample(inputs, 2)
            inputs.append(p.scale(coeff()) + q.scale(coeff()))
            combined.add(n)
        else:
            keys = rng.sample(cols, rng.randint(1, 5))
            inputs.append(BiPoly({k: coeff() for k in keys}))

    basis = SubspaceBasis((ds, dt))
    returned_none = [basis.insert(p) is None for p in inputs]

    def to_qq_i(c: Scalar):
        return QQ_I.from_sympy(Rational(c.re.numerator, c.re.denominator)
                               + Rational(c.im.numerator, c.im.denominator)
                               * SYMPY_I)

    def matrix(polys) -> DomainMatrix:
        return DomainMatrix([[to_qq_i(p.coeff(i, j)) for i, j in cols]
                             for p in polys], (len(polys), len(cols)), QQ_I)

    ranks = [0] + [matrix(inputs[:k]).rank() for k in range(1, len(inputs) + 1)]
    dependent = [ranks[k + 1] == ranks[k] for k in range(len(inputs))]
    assert returned_none == dependent
    assert all(dependent[n] for n in combined)
    assert 0 < basis.dim == ranks[-1] < len(cols)

    rref, pivots = matrix(inputs).rref()
    assert sorted(basis.rows) == [cols[c] for c in pivots]
    reference = rref.to_list()
    for r, c in enumerate(pivots):
        assert matrix([basis.rows[cols[c]]]).to_list()[0] == reference[r]


def test_invariant_t_multiples():
    # the span of monomials with a positive t-exponent is stable when the
    # W-twist never drops the t-degree
    for b, alpha in ((sc(2), sc(1)), (ONE, ZERO), (MINUS_ONE, ZERO)):
        spec = ModuleSpec.phi(b=b, lam=sc(2), alpha=alpha, coeffs=(ONE,))
        assert check_invariant_subspace(spec, lambda i, j: j >= 1,
                                        window=2, bounds=(4, 4))
    theta = ModuleSpec.theta(lam=sc(2), coeffs=(ONE,))
    assert check_invariant_subspace(theta, lambda i, j: j >= 1,
                                    window=2, bounds=(4, 4))


def test_invariance_broken_by_twist():
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    assert not check_invariant_subspace(spec, lambda i, j: j >= 1,
                                        window=2, bounds=(4, 4))


def test_invariance_builds_only_images_that_may_leave(monkeypatch):
    # an image whose support bound stays in the predicate is not built: in
    # t*C[s,t] every bound does for phi at b = 2 (building every image
    # takes 200 products), and at b = 1 with alpha = 1 the first image
    # built leaves the predicate
    built = 0
    image = Op._image

    def counted(self, shifted):
        nonlocal built
        built += 1
        return image(self, shifted)

    monkeypatch.setattr(Op, "_image", counted)
    for b, alpha, invariant, images in ((sc(2), ONE, True, 0),
                                        (ONE, ONE, False, 1)):
        built = 0
        spec = ModuleSpec.phi(b=b, lam=sc(2), alpha=alpha, coeffs=(ONE,))
        assert check_invariant_subspace(spec, lambda i, j: j >= 1, window=2,
                                        bounds=(4, 4)) is invariant
        assert built == images


def test_orbit_reaches_constant():
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    report = orbit_closure(spec, [T, S, BiPoly.monomial(0, 2)])
    assert report.data["reaches_one"]
    trace = report.data["dimension_trace"]
    assert trace[0] == 3
    assert all(x <= y for x, y in zip(trace, trace[1:]))


def test_orbit_overflow_is_counted_not_dropped():
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    report = orbit_closure(spec, [T], window=2, bounds=(3, 3), max_rounds=8)
    assert report.data["overflow"] > 0
    assert not report.data["invariant_in_box"]


def test_orbit_fails_unless_invariant_in_box():
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    report = orbit_closure(spec, [T], window=1, bounds=(2, 2), max_rounds=9)
    assert report.data["stabilized"] and report.data["overflow"] > 0
    [failure] = report.failures
    assert failure.constraint == "orbit-invariance"
    assert failure.indices == (report.checks, report.data["overflow"])
    # the residue is the first image that left the box: every image of t
    # fits, and W_-1 . t^2 is the first one of round 2 that does not
    box = SubspaceBasis((2, 2))
    assert all(box.fits(spec.op(x(m)).apply(T))
               for m in (-1, 0, 1) for x in (L, W))
    assert failure.residue == "1/2*t^3 - 1/2*t^2"
    assert failure.residue == format_bipoly(
        spec.op(W(-1)).apply(BiPoly.monomial(0, 2)))
    # a closure cut off before it stabilizes fails at the last frontier
    report = orbit_closure(spec, [T, S], max_rounds=0)
    assert report.data["dimension_trace"] == [2]
    assert [(f.indices, f.residue) for f in report.failures] == [((0, 0), "t")]


def test_orbit_passes_when_the_span_is_invariant(monkeypatch):
    # L_m = W_m = 0 is a module in which every span is invariant
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    zero = Op(ZERO, BiPoly.zero(), BiPoly.zero())
    monkeypatch.setattr(ModuleSpec, "op", lambda self, sym: zero)
    report = orbit_closure(spec, [T, S])
    assert report.data["invariant_in_box"] and report.passed
    assert report.checks == 1 and report.data["dimension_trace"] == [2, 2]


def test_orbit_stabilizes_cleanly_on_invariant_span():
    # for b = 2 the t-multiples stay t-multiples; a single seed t with a
    # wide box stabilizes only when nothing ever overflows
    spec = ModuleSpec.phi(b=sc(2), lam=sc(2), alpha=ZERO, coeffs=())
    report = orbit_closure(spec, [T], window=1, bounds=(12, 12), max_rounds=3)
    assert report.data["overflow"] == 0
    assert report.data["dimension_trace"][-1] > 1
    assert not report.data["reaches_one"]


def test_orbit_seed_validation():
    spec = ModuleSpec.phi(b=sc(2), lam=sc(2), alpha=ZERO, coeffs=())
    with pytest.raises(ValueError):
        orbit_closure(spec, [BiPoly.zero()])
    with pytest.raises(ValueError):
        orbit_closure(spec, [BiPoly.monomial(9, 0)], bounds=(4, 4))
    with pytest.raises(ValueError, match="at least one seed"):
        orbit_closure(spec, [])


def test_bounds_validation():
    with pytest.raises(ValueError):
        SubspaceBasis((-1, 3))
    with pytest.raises(ValueError, match="polynomial exceeds the monomial box"):
        SubspaceBasis((1, 1)).insert(S * S)


def test_negative_window_or_bounds_never_pass_vacuously():
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    with pytest.raises(ValueError, match="nonnegative"):
        orbit_closure(spec, [T], window=-2)
    with pytest.raises(ValueError, match="nonnegative"):
        check_invariant_subspace(spec, lambda i, j: j >= 1, window=-2)
    with pytest.raises(ValueError, match="nonnegative"):
        orbit_closure(spec, [T], max_rounds=-3)
    with pytest.raises(ValueError, match="bounds must be non-negative"):
        check_invariant_subspace(spec, lambda i, j: j >= 1, bounds=(-1, -1))


class _NaiveBasis:
    """Reduced echelon rows keyed by least monomial, reduced one row at a
    time with ``f - row.scale(c)``: the reference for SubspaceBasis."""

    def __init__(self, bounds):
        self.bounds, self.rows = bounds, {}

    def fits(self, f):
        return all(i <= self.bounds[0] and j <= self.bounds[1]
                   for i, j in f.terms)

    def reduce(self, f):
        for pivot in sorted(self.rows):
            c = f.coeff(*pivot)
            if c:
                f = f - self.rows[pivot].scale(c)
        return f

    def insert(self, f):
        f = self.reduce(f)
        if not f:
            return None
        pivot = min(f.terms)
        f = f.scale(f.terms[pivot].inv())
        for key, row in self.rows.items():
            c = row.coeff(*pivot)
            if c:
                self.rows[key] = row - f.scale(c)
        self.rows[pivot] = f
        return f


def _naive_closure(spec, seeds, window, bounds, max_rounds):
    """The closure's data, plus the number of images of nonzero operators
    (``images``) and how many overflows the degree rule decides
    (``decided``)."""
    ops = [spec.op(x(m)) for m in range(-window, window + 1) for x in (L, W)]
    basis = _NaiveBasis(bounds)
    frontier = [p for f in seeds if (p := basis.insert(f)) is not None]
    trace, overflow, escaped, stabilized = [len(basis.rows)], 0, None, False
    images = decided = 0
    for _ in range(max_rounds):
        new_frontier = []
        for f in frontier:
            for op in ops:
                images += bool(op.p or op.q)
                img = op.apply(f)
                if not img:
                    continue
                if not basis.fits(img):
                    overflow += 1
                    escaped = escaped or img
                    decided += _fits_by_degree(
                        op.reach(), (f.deg_s, f.deg_t), bounds) is False
                elif (reduced := basis.insert(img)) is not None:
                    new_frontier.append(reduced)
        trace.append(len(basis.rows))
        frontier = new_frontier
        if not frontier:
            stabilized = True
            break
    one = BiPoly.one()
    residue = None
    if not (stabilized and overflow == 0):
        residue = format_bipoly(escaped or frontier[0])
    return {"dimension_trace": trace, "overflow": overflow,
            "reaches_one": basis.fits(one) and not basis.reduce(one),
            "stabilized": stabilized, "residue": residue,
            "images": images, "decided": decided}


def _assert_matches_naive(spec, seeds, window, bounds, max_rounds):
    report = orbit_closure(spec, seeds, window=window, bounds=bounds,
                           max_rounds=max_rounds)
    expected = _naive_closure(spec, seeds, window, bounds, max_rounds)
    got = {k: report.data[k] for k in
           ("dimension_trace", "overflow", "reaches_one", "stabilized")}
    got["residue"] = report.failures[0].residue if report.failures else None
    assert got == {k: expected[k] for k in got}
    assert report.checks == len(expected["dimension_trace"]) - 1


@pytest.mark.parametrize("spec", REPLAY_SPECS,
                         ids=lambda s: f"{s.family.value}-b{s.b}-alpha{s.alpha}")
@pytest.mark.parametrize("window", [1, 2, 3])
def test_orbit_closure_matches_naive_replay(spec, window):
    rng = random.Random(f"{spec.to_dict()}/{window}")
    for bounds, max_rounds in (((2, 3), 6), ((3, 3), 2), ((3, 2), 12)):
        seeds = [BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): sc(1),
                         (rng.randint(0, 2), rng.randint(1, 2)):
                             sci(rng.randint(-2, 2), rng.randint(0, 1))})
                 for _ in range(rng.randint(1, 3))]
        seeds = [f for f in seeds if f]
        _assert_matches_naive(spec, seeds, window, bounds, max_rounds)
    ops = [spec.op(x(m)) for m in range(-window, window + 1) for x in (L, W)]
    for predicate in (lambda i, j: j >= 1, lambda i, j: j >= 2,
                      lambda i, j: i >= 1, lambda i, j: i + j != 2):
        naive = all(predicate(*key)
                    for i in range(4) for j in range(4) if predicate(i, j)
                    for op in ops
                    for key in op.apply(BiPoly.monomial(i, j)).terms)
        assert check_invariant_subspace(spec, predicate, window=window,
                                        bounds=(3, 3)) is naive


@pytest.mark.parametrize("spec", REPLAY_SPECS,
                         ids=lambda s: f"{s.family.value}-b{s.b}-alpha{s.alpha}")
def test_degree_rule_is_sound(spec):
    # an exact degree past the box means the image leaves it; both bounds
    # inside it mean the image fits; exact degrees are the image's degrees
    rng = random.Random(f"degree-rule/{spec.to_dict()}")
    verdicts = set()
    for window in (1, 2, 3):
        ops = [spec.op(x(m)) for m in range(-window, window + 1)
               for x in (L, W)]
        for _ in range(12):
            f = BiPoly({(rng.randint(0, 3), rng.randint(0, 3)):
                        sci(rng.randint(-2, 2), rng.randint(-1, 1))
                        for _ in range(rng.randint(1, 4))})
            if not f:
                continue
            bounds = (rng.randint(0, 5), rng.randint(0, 5))
            box = SubspaceBasis(bounds)
            for op in ops:
                if not (op.p or op.q):
                    continue
                reach = op.reach()
                fits = _fits_by_degree(reach, (f.deg_s, f.deg_t), bounds)
                img = op.apply(f)
                verdicts.add(fits)
                if fits is not None:
                    assert box.fits(img) is fits
                if reach.s_exact:
                    assert img.deg_s == f.deg_s + reach.s
                if reach.t_exact:
                    assert img.deg_t == f.deg_t + reach.t
                assert img.deg_s <= f.deg_s + reach.s
                assert img.deg_t <= f.deg_t + reach.t
    assert {True, False} <= verdicts


def test_degree_rule_leaves_cancelling_images_undecided(monkeypatch):
    # t * p + d/dt(t) * q = t^2 - t^2 = 0: the top t-terms cancel, so deg_t
    # is only bounded, and the rule must not call this image an overflow
    op = Op(ZERO, T, BiPoly.monomial(0, 2, MINUS_ONE))
    reach = op.reach()
    assert not (reach.s_exact or reach.t_exact)
    assert op.apply(T).is_zero
    assert _fits_by_degree(reach, (0, 1), (0, 1)) is None
    assert _fits_by_degree(reach, (0, 1), (2, 2)) is True
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    monkeypatch.setattr(ModuleSpec, "op", lambda self, sym: op)
    for seeds, bounds in (([T], (0, 1)), ([T], (1, 2)),
                          ([T, S * T], (1, 1)),
                          ([BiPoly.monomial(0, 2) + T], (2, 3)),
                          ([S + T, BiPoly.monomial(1, 2)], (2, 2))):
        _assert_matches_naive(spec, seeds, 1, bounds, 5)


def test_decided_overflows_are_not_built(monkeypatch):
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    expected = _naive_closure(spec, [T], 3, (2, 2), 9)
    # every overflow of this closure is decided by degrees
    assert expected["decided"] == expected["overflow"] > 1
    built = 0
    image = Op._image

    def counted(self, shifted):
        nonlocal built
        built += 1
        return image(self, shifted)

    monkeypatch.setattr(Op, "_image", counted)
    report = orbit_closure(spec, [T], window=3, bounds=(2, 2), max_rounds=9)
    assert report.data["overflow"] == expected["overflow"]
    # the first overflow is built once: its text is the failure's residue
    assert 0 < built <= expected["images"] - expected["decided"] + 1


def _runs_from_rows(rows):
    # the k for which s^0 t^j, ..., s^(k-1) t^j are rows of one term
    runs = {}
    for j in {j for _, j in rows}:
        k = 0
        while (k, j) in rows and len(rows[k, j].terms) == 1:
            k += 1
        if k:
            runs[j] = k
    return runs


def test_subspace_basis_runs_follow_rows(monkeypatch, rng):
    inserts = 0
    insert = SubspaceBasis.insert

    def checked(self, f):
        nonlocal inserts
        out = insert(self, f)
        assert ({j: k for j, k in self.runs.items() if k}
                == _runs_from_rows(self.rows))
        # what the reduction's pivot skip rests on: each row is 1 at its
        # pivot and holds no other row's pivot
        for pivot, row in self.rows.items():
            assert row.terms[pivot] == ONE
            assert row.terms.keys() & self.rows.keys() == {pivot}
        inserts += 1
        return out

    monkeypatch.setattr(SubspaceBasis, "insert", checked)
    # clearing the pivot s leaves the row t + s as t: column 1's run grows
    # through a row that was not inserted
    basis = SubspaceBasis((2, 2))
    basis.insert(T + S)
    assert basis.runs.get(1, 0) == 0
    basis.insert(S)
    assert basis.runs[1] == 1 and basis.rows[0, 1] == T
    basis.insert(BiPoly.one() - BiPoly.monomial(1, 1))
    basis.insert(BiPoly.monomial(1, 1))
    assert basis.runs == {0: 2, 1: 2}
    basis = SubspaceBasis((3, 3))
    for _ in range(40):
        basis.insert(BiPoly({(rng.randint(0, 3), rng.randint(0, 3)):
                             sc(rng.randint(-2, 2)) for _ in range(2)})
                     or BiPoly.one())
    assert basis.runs
    for spec in REPLAY_SPECS:
        orbit_closure(spec, [T], window=2, bounds=(4, 4), max_rounds=30)
    assert inserts > 100


@pytest.mark.parametrize("spec", [
    ModuleSpec.phi(b=ZERO, lam=sc(2), coeffs=()),
    ModuleSpec.theta(lam=sc(2), coeffs=(ZERO, ONE)),
], ids=["phi-b0", "theta"])
def test_saturating_closure_skips_images_in_the_span(monkeypatch, spec):
    # the closure of t fills t*C[s,t] in the box, whole columns of monomial
    # rows, and every image inside them is skipped unbuilt
    _assert_matches_naive(spec, [T], 2, (5, 5), 40)
    expected = _naive_closure(spec, [T], 2, (5, 5), 40)
    assert expected["stabilized"] and expected["dimension_trace"][-1] == 30
    built = 0
    image = Op._image

    def counted(self, shifted):
        nonlocal built
        built += 1
        return image(self, shifted)

    monkeypatch.setattr(Op, "_image", counted)
    orbit_closure(spec, [T], window=2, bounds=(5, 5), max_rounds=40)
    assert 0 < built < expected["images"] - expected["decided"]


@pytest.mark.parametrize("spec", REPLAY_SPECS,
                         ids=lambda s: f"{s.family.value}-b{s.b}-alpha{s.alpha}")
def test_invariance_matches_naive_in_the_workload_box(spec):
    # a (10, 10) box and the predicates of the benchmark's invariance
    # items: t*C[s,t] and t^2*C[s,t] are invariant exactly when b is not
    # +-1 or alpha = 0 (theta included), s*C[s,t] never is
    window = 2
    ops = [spec.op(x(m)) for m in range(-window, window + 1) for x in (L, W)]
    witness = spec.alpha == ZERO or spec.b not in (ONE, MINUS_ONE)
    for predicate, want in ((lambda i, j: j >= 1, witness),
                            (lambda i, j: j >= 2, witness),
                            (lambda i, j: i >= 1, False)):
        naive = all(predicate(*key)
                    for i in range(11) for j in range(11) if predicate(i, j)
                    for op in ops
                    for key in op.apply(BiPoly.monomial(i, j)).terms)
        assert naive is want
        assert check_invariant_subspace(spec, predicate, window=window,
                                        bounds=(10, 10)) is naive


# lambda = i and alpha = 3/2: images with Gaussian-fraction coefficients
GAUSSIAN_SPECS = [spec for spec in REPLAY_SPECS
                  if spec.lam == sci(0, 1) or spec.alpha == sc("3/2")]


@pytest.mark.parametrize("spec", GAUSSIAN_SPECS,
                         ids=lambda s: f"{s.family.value}-b{s.b}-alpha{s.alpha}")
@pytest.mark.parametrize("window", [1, 2, 3])
def test_orbit_closure_matches_naive_on_gaussian_fraction_seeds(spec, window):
    rng = random.Random(f"gaussian/{spec.to_dict()}/{window}")
    seeds = [S * T.scale(sci("1/3", "1/2")) - BiPoly.monomial(0, 2, sc("2/5"))]
    for _ in range(rng.randint(1, 2)):
        seeds.append(BiPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                             sci(f"{rng.randint(-3, 3)}/{rng.randint(1, 5)}",
                                 f"{rng.randint(-3, 3)}/{rng.randint(1, 5)}")
                             for _ in range(3)}) or T)
    for bounds, max_rounds in (((2, 3), 6), ((3, 3), 3), ((4, 3), 12)):
        _assert_matches_naive(spec, seeds, window, bounds, max_rounds)


def test_images_in_the_span_through_a_fractional_row(monkeypatch):
    # every image is c*f for a Gaussian fraction c, so it reduces to zero
    # only through the seed's own row t + 1/6*s, over the denominator 6
    c = sci("1/2", "-1/3")
    op = Op(sc(3), BiPoly.const(c), BiPoly.zero())
    seed = T.scale(sc(2)) + S.scale(sc("1/3"))
    basis = SubspaceBasis((2, 2))
    row = basis.insert(seed)
    assert row == T + S.scale(sc("1/6")) and row._numerators()[0] == 6
    assert op.apply(seed) == seed.shift_s(sc(3)).scale(c)
    assert basis.insert(BiPoly.const(c) * seed) is None
    # the closure's path: shift, image and insert on integer forms
    for shift, independent in ((ZERO, False), (sc(3), True)):
        image = op._image(BiPoly._settled(*seed._shifted(shift)))
        assert (basis.insert(BiPoly._settled(*image)) is not None) is independent
    spec = ModuleSpec.phi(b=ONE, lam=sc(2), alpha=ONE, coeffs=())
    monkeypatch.setattr(ModuleSpec, "op", lambda self, sym: op)
    _assert_matches_naive(spec, [seed], 1, (2, 2), 4)
    zero_shift = Op(ZERO, BiPoly.const(c), BiPoly.zero())
    monkeypatch.setattr(ModuleSpec, "op", lambda self, sym: zero_shift)
    report = orbit_closure(spec, [seed], window=1, bounds=(2, 2))
    assert report.passed and report.data["dimension_trace"] == [1, 1]
    _assert_matches_naive(spec, [seed], 1, (2, 2), 4)


@pytest.mark.parametrize("coeffs, extension, coeffs_text, extension_text", [
    ((ONE, sc(2)), False, '["1", "2"]', "false"),
    ((), True, "[]", "true"),
])
def test_module_reports_echo_spec_fields_as_json_text(
        coeffs, extension, coeffs_text, extension_text):
    spec = ModuleSpec(Family.PHI, ONE, sc(2), ONE, coeffs, extension)
    doc = spec.to_dict()
    for report in (verify_module(spec, window=1, degree=1),
                   orbit_closure(spec, [T], window=1, max_rounds=1)):
        params = json.loads(report.to_json())["params"]
        assert params == report.params
        assert all(isinstance(v, str) for v in params.values())
        assert params["coeffs"] == coeffs_text
        assert params["extension"] == extension_text
        # parsed back, the echo is the spec document
        assert {k: json.loads(params[k]) if k in ("coeffs", "extension")
                else params[k] for k in doc} == doc
        text = report.to_text().splitlines()
        assert f"  coeffs: {coeffs_text}" in text
        assert f"  extension: {extension_text}" in text
