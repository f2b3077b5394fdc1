from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sc, sci
from virab.algebra import AlgElement, BasisSymbol, L, W
from virab.polynomials import (
    BiPoly,
    divided_difference,
    format_bipoly,
    format_unipoly,
)
from virab.scalars import I, MINUS_ONE, ONE, ZERO, Scalar


def rand_t_poly(rng, deg=4):
    return BiPoly({(0, k): sc(rng.randint(-5, 5))
                   for k in range(rng.randint(0, deg) + 1)})


def rand_bipoly(rng, deg=3):
    return BiPoly(
        {
            (i, j): sc(rng.randint(-5, 5))
            for i in range(deg + 1)
            for j in range(deg + 1)
            if rng.random() < 0.4
        }
    )


def _assert_canonical(x):
    """What structural equality relies on: no zero is stored and every
    coefficient is in lowest terms; and the cached integer form, once
    filled, is over the lcm of the denominators and gives back ``terms``."""
    assert all(c and c == Scalar(c.re, c.im) for c in x.terms.values())
    d, nums = x._numerators()
    assert x._numerators() is x._num
    assert d == lcm(*(f.denominator for c in x.terms.values()
                      for f in (c.re, c.im)))
    assert {k: Scalar(Fraction(re, d), Fraction(im, d))
            for k, re, im in nums} == x.terms


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c}


def test_zero_coefficients_never_stored():
    p = BiPoly({(0, 2): ONE}) + BiPoly({(0, 2): MINUS_ONE})
    assert p.is_zero and not p.terms
    q = BiPoly({(1, 1): ONE}) - BiPoly({(1, 1): ONE})
    assert q.is_zero and not q.terms


@pytest.mark.parametrize("x", [
    BiPoly({(0, 3): sc(2), (0, 0): sci(1, -1)}),
    BiPoly({(1, 2): sc("1/2"), (0, 0): I}),
    AlgElement({L(2): sc(-3), W(-1): sc("2/5")}),
])
def test_shared_sparse_core(x):
    cls = type(x)
    assert (x - x).is_zero and not (x - x)
    assert (x + (-x)) == cls.zero()
    assert x.scale(ZERO).is_zero and type(x.scale(ZERO)) is cls
    assert type(x + x) is cls and type(-x) is cls and type(x - x) is cls
    key = next(iter(x.terms))
    dropped = cls({**x.terms, key: ZERO})
    assert key not in dropped.terms and len(dropped.terms) == len(x.terms) - 1
    # no cross-type equality, not even on the same terms
    for other in {BiPoly, AlgElement} - {cls}:
        assert x != other._raw(dict(x.terms)) and cls.zero() != other.zero()
        # nor mixed sums, which would hold keys of two shapes
        for y in (other.zero(), other._raw(dict(x.terms))):
            with pytest.raises(TypeError):
                x + y
            with pytest.raises(TypeError):
                x - y
            with pytest.raises(TypeError):
                x.combine([(x, ONE), (y, ONE)])
    with pytest.raises(TypeError):
        hash(x)
    # combine: one merge equal to the chained sum, dropping what cancels
    y = cls({k: c * sc(3) for k, c in x.terms.items() if k != key})
    pairs = [(x, sc(2)), (y, sci(0, 1)), (x, ZERO), (x, sc(-3)), (y, ONE)]
    chained = x
    for t, c in pairs:
        chained = chained + t.scale(c)
    combined = x.combine(pairs)
    assert combined == chained and type(combined) is cls
    _assert_canonical(combined)
    assert key not in combined.terms and combined == y.scale(sci(1, 1))
    assert type(cls.zero().combine([])) is cls and x.combine([]) == x
    assert x.combine([(x, MINUS_ONE)]).terms == {}
    partial = x.combine([(cls({key: x.terms[key]}), MINUS_ONE)])
    assert key not in partial.terms and partial == dropped


def test_polynomial_in_t_arithmetic():
    p = BiPoly({(0, 2): ONE, (0, 0): sc(-3)})  # t^2 - 3
    q = BiPoly({(0, 1): sc(2)})  # 2t
    assert (p * q).coeff(0, 3) == sc(2)
    assert (p * q).coeff(0, 1) == sc(-6)
    assert p.partial_t() == BiPoly({(0, 1): sc(2)})
    assert p.scale(sc("1/2")).coeff(0, 0) == sc("-3/2")


def test_ring_axioms_random(rng):
    for _ in range(60):
        p, q, r = (rand_bipoly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


gaussians = st.builds(lambda re, den, im: sci(Fraction(re, den), im),
                      st.integers(-3, 3), st.integers(1, 3), st.integers(-2, 2))
bipolys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          gaussians, max_size=4).map(BiPoly)
products = st.lists(st.tuples(bipolys, bipolys), max_size=3)


def _add_products(acc, a, b, sign):
    """Add sign * a * b into the dict ``acc``, term by term, with Scalar
    * and + only."""
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            k = (i1 + i2, j1 + j2)
            acc[k] = acc.get(k, ZERO) + sign * c1 * c2
    return acc


@given(plus=products, minus=products,
       scaled=st.lists(st.tuples(bipolys, gaussians), max_size=2),
       cancel=st.booleans())
def test_sum_of_products_matches_chained_arithmetic(plus, minus, scaled,
                                                    cancel):
    if cancel:
        # the same products with their factors swapped, and each scaled
        # term as a product with one: everything cancels
        minus = ([(b, a) for a, b in reversed(plus)]
                 + [(p.scale(c), BiPoly.one()) for p, c in scaled])
    got = BiPoly.sum_of_products(
        plus + [(p, BiPoly.const(c)) for p, c in scaled], minus)
    chained = {}
    for a, b in plus:
        _add_products(chained, a, b, ONE)
    for p, c in scaled:
        for k, v in p.terms.items():
            chained[k] = chained.get(k, ZERO) + v * c
    for a, b in minus:
        _add_products(chained, a, b, MINUS_ONE)
    assert got.terms == _nonzero(chained) and all(got.terms.values())
    _assert_canonical(got)
    if cancel:
        assert got.terms == {}
    for a, b in plus:
        assert (a * b).terms == _nonzero(_add_products({}, a, b, ONE))
        _assert_canonical(a * b)


@given(f=st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 2)),
                         gaussians, max_size=5).map(BiPoly),
       c=gaussians)
def test_shift_s_is_substitution(f, c):
    # f.shift_s(c) must equal f(s - c, t): sum of c_ij (s - c)^i t^j,
    # with the powers of s - c multiplied out one factor at a time
    want = {}
    for (i, j), coef in f.terms.items():
        term = {(0, j): coef}
        for _ in range(i):
            times_s_minus_c = {}
            for (p, q), v in term.items():
                for k, w in (((p + 1, q), v), ((p, q), -(v * c))):
                    times_s_minus_c[k] = times_s_minus_c.get(k, ZERO) + w
            term = times_s_minus_c
        for k, v in term.items():
            want[k] = want.get(k, ZERO) + v
    got = f.shift_s(c)
    assert got.terms == _nonzero(want)
    _assert_canonical(got)


elements = st.dictionaries(
    st.builds(BasisSymbol, st.sampled_from("LWC"), st.integers(-2, 2)),
    gaussians, max_size=4).map(AlgElement)


@pytest.mark.parametrize("values", [bipolys, elements],
                         ids=["bipoly", "element"])
@given(data=st.data())
def test_combine_matches_scalar_arithmetic(values, data):
    # multipliers with denominators and imaginary parts, for both kinds of
    # key, against the sum taken with Scalar * and + in a plain dict
    x = data.draw(values)
    pairs = data.draw(st.lists(st.tuples(values, gaussians), max_size=4))
    want = dict(x.terms)
    for t, c in pairs:
        for k, v in t.terms.items():
            want[k] = want.get(k, ZERO) + v * c
    got = x.combine(pairs)
    assert got.terms == _nonzero(want) and type(got) is type(x)
    _assert_canonical(got)
    undone = got.combine([(x, MINUS_ONE)] + [(t, -c) for t, c in pairs])
    assert undone.terms == {}


def test_shift_s_zero_is_identity(rng):
    f = rand_bipoly(rng)
    assert f.shift_s(ZERO) is f


def test_partial_t():
    f = BiPoly({(2, 3): sc(2), (1, 0): sc(5)})
    assert f.partial_t() == BiPoly({(2, 2): sc(6)})


def test_divided_difference_matches_long_division():
    # (t^k - alpha^k) / (t - alpha) computed by naive long division
    def long_division(k, alpha):
        num = {k: ONE, 0: -(alpha**k)}
        out = {}
        for d in range(k - 1, -1, -1):
            c = num.get(d + 1, ZERO)
            if c:
                out[d] = c
                num[d + 1] = ZERO
                num[d] = num.get(d, ZERO) + c * alpha
        assert all(not v for v in num.values())
        return BiPoly({(0, d): c for d, c in out.items()})

    for k in range(1, 6):
        for alpha in (sc(2), sc("1/2"), sc(-3), I, sci(1, -1)):
            assert divided_difference(k, alpha) == long_division(k, alpha)
    assert divided_difference(3, sc(2)) == BiPoly(
        {(0, 2): ONE, (0, 1): sc(2), (0, 0): sc(4)})
    assert divided_difference(0, sc(7)).is_zero


def test_embed_and_projection(rng):
    # BiPoly.embed, kept for bench/, is the identity: the t-polynomials it
    # embedded are BiPolys already
    p = rand_t_poly(rng)
    assert p.embed() is p
    assert BiPoly.s_var().embed() == BiPoly.s_var()


def test_degrees():
    f = BiPoly({(2, 1): ONE, (0, 4): sc(3)})
    assert f.deg_s == 2 and f.deg_t == 4
    assert f.total_degree == 4
    assert BiPoly.zero().total_degree == float("-inf")


def test_format_unipoly():
    p = BiPoly({(0, 2): sc(3), (0, 1): MINUS_ONE, (0, 0): sc("1/2")})
    assert format_unipoly(p) == "3*t^2 - t + 1/2"
    assert format_unipoly(BiPoly.zero()) == "0"
    assert format_unipoly(BiPoly({(0, 1): sci(2, 1)})) == "(2+i)*t"


def test_format_bipoly_graded_lex():
    f = BiPoly({(1, 1): ONE, (2, 0): ONE, (0, 0): MINUS_ONE, (0, 2): sc(4)})
    # total degree descending, higher s-power first within a degree
    assert format_bipoly(f) == "s^2 + s*t + 4*t^2 - 1"
    assert format_bipoly(BiPoly.monomial(0, 1).scale(-I)) == "-i*t"
    assert format_bipoly(BiPoly.monomial(1, 0).scale(sci(3, -2))) == "(3-2i)*s"
    assert format_bipoly(BiPoly.zero()) == "0"
