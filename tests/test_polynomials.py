import sys
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import sc, sci
from virab import algebra, repmod
from virab.algebra import (COCYCLES, AlgElement, BasisSymbol, L, W,
                           format_element)
from virab.polynomials import (
    INDEX_BITS,
    BiPoly,
    divided_difference,
    format_bipoly,
    format_unipoly,
    zero_patterns,
)
from virab.scalars import I, MINUS_ONE, ONE, ZERO, Scalar, _make, format_scalar


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
       scaled=st.lists(st.tuples(bipolys, gaussians), max_size=3),
       cancel=st.booleans())
@example(plus=[(BiPoly.s_var(), BiPoly.t_var())], minus=[],
         scaled=[(BiPoly.zero(), sc(2)), (BiPoly.t_var(), ZERO),
                 (BiPoly({(1, 1): sc("1/2")}), sci(1, -3))], cancel=True)
def test_sum_of_products_matches_chained_arithmetic(plus, minus, scaled,
                                                    cancel):
    if cancel:
        # the same products with their factors swapped, and each scaled
        # term as a product with one: everything cancels
        minus = ([(b, a) for a, b in reversed(plus)]
                 + [(p.scale(c), BiPoly.one()) for p, c in scaled])
    # each scaled term c*p with the Scalar c as its factor, among the
    # BiPoly products of the same call, and with BiPoly.const(c) in its
    # place: the same value
    got = BiPoly.sum_of_products(plus + [(c, p) for p, c in scaled], minus)
    assert got == BiPoly.sum_of_products(
        plus + [(BiPoly.const(c), p) for p, c in scaled], minus)
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


@given(f=st.dictionaries(st.tuples(st.just(0), st.integers(0, 4)),
                         gaussians, min_size=1, max_size=4).map(BiPoly),
       c=gaussians.filter(bool))
def test_shift_s_returns_an_s_free_polynomial_itself(f, c):
    # s -> s - c leaves a polynomial in t alone unchanged
    assert f.shift_s(c) is f


@given(f=bipolys, c=gaussians)
def test_shift_s_by_an_index_polynomial(f, c):
    # a constant index polynomial shifts as its Scalar does; the index
    # variable m shifts and shifts back; and products with m shift along
    m = BiPoly.index_var(1)
    assert f.shift_s(BiPoly.const(c)) == f.shift_s(c)
    assert f.shift_s(m).shift_s(-m) == f
    assert (f * m).shift_s(m + m) == f.shift_s(m + m) * m
    g = f * BiPoly.s_var()
    assert g.shift_s(m) == f.shift_s(m) * (BiPoly.s_var() - m)


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


def test_negative_exponents_are_refused():
    with pytest.raises(ValueError, match="negative exponent"):
        BiPoly.monomial(-1, 0)
    with pytest.raises(ValueError, match="negative exponent"):
        divided_difference(-1, sc(2))


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


# --- a reference formatter ----------------------------------------------

# The formatters before they shared one term writer: a (sign, body) pair
# per term, a negated Scalar for each negative coefficient, the monomial
# text built afresh for every term, and a join of the pairs.  Their text
# is the specification the term writer is held to.

def _ref_monomial_text(parts):
    bits = []
    for name, e in parts:
        if e == 0:
            continue
        bits.append(name if e == 1 else f"{name}^{e}")
    return "*".join(bits)


def _ref_term_text(c, monom):
    a, b, d = c._a, c._b, c._d
    sign = "+"
    if a < 0 if b == 0 else a == 0 and b < 0:
        sign = "-"
        a, b = -a, -b
        c = _make(a, b, d)
    if monom and a == d and b == 0:
        return sign, monom
    cs = f"({format_scalar(c)})" if a and b else format_scalar(c)
    return sign, f"{cs}*{monom}" if monom else cs


def _ref_join_terms(terms):
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = [first_body if first_sign == "+" else f"-{first_body}"]
    for sign, body in terms[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


def _ref_format_bipoly(p):
    keys = sorted(p.terms, key=lambda ij: (ij[0] + ij[1], ij[0]), reverse=True)
    return _ref_join_terms([
        _ref_term_text(p.terms[i, j], _ref_monomial_text([("s", i), ("t", j)]))
        for i, j in keys])


def _ref_format_element(e):
    order = {"L": 0, "W": 1, "C": 2}
    keys = sorted(e.terms, key=lambda s: (order[s.kind], s.index))
    return _ref_join_terms([_ref_term_text(e.terms[k], str(k)) for k in keys])


# coefficients of every shape the writer tells apart: zero, units (+-1,
# +-i), integers, fractions, pure imaginary and mixed, either sign on
# either part, and a few past a machine word
_parts = st.one_of(st.sampled_from([0, 1, -1]),
                   st.fractions(min_value=-9, max_value=9, max_denominator=6),
                   st.integers(-10 ** 30, 10 ** 30))
_coeffs = st.builds(lambda re, im: sc(re) + sc(im) * I, _parts, _parts)
# exponents: the constant term, low and high powers, and the s exponents
# of the index variables, negative ones too (BiPoly.index_var)
_exponents = st.one_of(st.integers(0, 3), st.integers(0, 500),
                       st.sampled_from([1 << INDEX_BITS, -(1 << INDEX_BITS),
                                        (1 << 2 * INDEX_BITS) - 3]))


@pytest.mark.oracle
@given(st.dictionaries(st.tuples(_exponents,
                                 st.integers(0, 3) | st.integers(0, 500)),
                       _coeffs, max_size=8),
       st.dictionaries(st.builds(BasisSymbol, st.sampled_from("LWC"),
                                 st.integers(-10 ** 6, 10 ** 6)),
                       _coeffs, max_size=8))
@example({(0, 0): sci(-1, 0), (1, 0): sci(0, -1), (0, 1): sci(-2, 3)},
         {L(0): MINUS_ONE, W(-1): sci(0, 1), BasisSymbol("C", 1): sci(-1, -1)})
def test_the_formatters_agree_with_the_reference_formatter(poly, element):
    # each text twice, so the second reads the monomials the first wrote
    p, e = BiPoly(poly), AlgElement(element)
    for _ in range(2):
        assert format_bipoly(p) == _ref_format_bipoly(p)
        assert format_unipoly(p) == _ref_format_bipoly(p)
        assert format_element(e) == _ref_format_element(e)


def test_the_term_writer_formats_past_the_digit_limit(digit_limit):
    # a coefficient of more digits than the limit, negative and mixed, in
    # a polynomial and in an element; the caller's limit is put back
    big = 10 ** (digit_limit + 700)
    p = BiPoly({(2, 1): sci(-big, 0), (0, 0): Scalar.rational(big, 3) - I,
                (1, 0): sci(0, -big)})
    e = AlgElement({L(1): sci(-big, big), W(2): Scalar.rational(-1, big)})
    digits = "1" + "0" * (digit_limit + 700)
    assert format_bipoly(p) == (f"-{digits}*s^2*t - {digits}i*s"
                                f" + ({digits}/3-i)")
    assert format_bipoly(p) == _ref_format_bipoly(p)
    assert format_element(e) == f"(-{digits}+{digits}i)*L:1 - 1/{digits}*W:2"
    assert format_element(e) == _ref_format_element(e)
    assert sys.get_int_max_str_digits() == digit_limit


def _at(p, point):
    """p, a polynomial in the index variables with no s or t, at
    ``point`` ({variable number: Scalar}): each key's s exponent read as
    signed base-2^INDEX_BITS digits, the power of s and then one exponent
    per variable (:meth:`BiPoly.index_var`)."""
    mask, half = (1 << INDEX_BITS) - 1, 1 << INDEX_BITS - 1
    total = ZERO
    for (key, j), c in p.terms.items():
        assert j == 0 and key & mask == 0, p
        key, v = key >> INDEX_BITS, 1
        while key:
            e = ((key + half) & mask) - half
            if e:
                c = c * point[v] ** e
            key, v = (key - e) >> INDEX_BITS, v + 1
        total = total + c
    return total


def _sites():
    """(name, variables, forms, patterns): the forms each site decides
    and the patterns it reads, repmod's of (m, n, m + n) and algebra's of
    "index sum - c" over each case's planes c, for pairs and triples, and
    a set of forms with non-unit pivots."""
    m, n = BiPoly.index_var(1), BiPoly.index_var(2)
    yield "repmod", (1, 2), [m, n, m + n], [
        pattern for group in repmod._PATTERNS for pattern in group]
    # forms whose pivots need their content divided out, one of them with
    # no integer point (test_zero_patterns_of_m_n_and_their_sum)
    one, two = BiPoly.one(), BiPoly.const(sc(2))
    forms = [m + n, n - m, two * (m + n - two), two * (n - m) + one]
    yield "content", (1, 2), forms, [
        pattern for group in zero_patterns((1, 2), forms) for pattern in group]
    for case, rows in COCYCLES.items():
        planes = sorted({row[2] for row in rows})
        for variables in ((1, 2), (1, 2, 3)):
            total = sum(map(BiPoly.index_var, variables), BiPoly.zero())
            yield (f"{case.value}-{len(variables)}", variables,
                   [total - BiPoly.const(sc(c)) for c in planes],
                   algebra._patterns(rows, variables))


@pytest.mark.parametrize("name, variables, forms, patterns",
                         [pytest.param(*site, id=site[0]) for site in _sites()])
def test_every_index_tuple_lies_on_exactly_one_pattern(name, variables, forms,
                                                       patterns):
    # with the tuples of a box: each is on one pattern (the variables'
    # values there give it back and the pattern's nonzero forms are
    # nonzero at it), and that pattern decides every form, which is zero at
    # the tuple exactly when it is zero at every tuple of the pattern
    box = [dict(zip(variables, map(sc, x)))
           for x in product(range(-4, 5), repeat=len(variables))]
    zero_on = []
    for values, _ in patterns:
        on_it = [dict(zip(variables, (_at(v, y) for v in values)))
                 for y in box]
        zero_on.append([all(not _at(f, x) for x in on_it) for f in forms])
    for point in box:
        on = [k for k, (values, nonzero) in enumerate(patterns)
              if [_at(v, point) for v in values] == list(point.values())
              and all(_at(u, point) for u in nonzero)]
        assert len(on) == 1, (name, point, on)
        assert [not _at(f, point) for f in forms] == zero_on[on[0]], point


def test_zero_patterns_of_m_n_and_their_sum():
    # none zero, then m = 0, n = 0, m + n = 0 and all zero in one group:
    # their nonzero forms are their free variables; the pair m = n = 0
    # forces m + n to zero, so only the three-form set holds it
    m, n, zero = BiPoly.index_var(1), BiPoly.index_var(2), BiPoly.zero()
    assert zero_patterns((1, 2), [m, n, m + n]) == (
        (((m, n), (m, n, m + n)),),
        (((zero, n), (n,)), ((m, zero), (m,)), ((-n, n), (n,)),
         ((zero, zero), ())))
    # two planes at once have no solution, and a form that is constant
    # there is dropped; the others lead with 1, -n as n
    one = BiPoly.one()
    assert zero_patterns((1, 2), [m + n, m + n - one, -n]) == (
        (((m, n), (m + n, m + n - one, n)),),
        (((-n, n), (n,)), ((one - n, n), (n,)), ((zero, zero), ()),
         ((one, zero), ())),
        (((m, zero), (m, m - one)),))
    # once m = -n, n - m is 2n, which has no unit pivot: divided by its
    # content 2 it is n, so m = n = 0; m = n makes m + n 2n, led by n
    assert zero_patterns((1, 2), [m + n, n - m]) == (
        (((m, n), (m + n, m - n)),),
        (((-n, n), (n,)), ((n, n), (n,)), ((zero, zero), ())))
    # 2m + 2n - 4 is m + n - 2; 2n - 2m + 1 has content 2, which does not
    # divide 1, so every pattern where it is zero has no integer point
    two = BiPoly.const(sc(2))
    assert zero_patterns((1, 2), [two * (m + n) - two - two,
                                  two * (n - m) + one]) == (
        (((m, n), (m + n - two, m - n - BiPoly.const(sc("1/2")))),),
        (((two - n, n), (n - BiPoly.const(sc("3/4")),)),))
    # 2m + 3n has content 1 and no unit: its integer points m = 3k,
    # n = -2k need a new variable
    with pytest.raises(ValueError, match="no unit pivot"):
        zero_patterns((1, 2), [two * m + two * n + n])
