import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import sc, sci
from virab.grammar import parse_bipoly, parse_element
from virab.polynomials import format_bipoly
from virab.repmod import q_poly
from virab.scalars import (
    I,
    MINUS_ONE,
    ONE,
    ParseError,
    Scalar,
    ZERO,
    format_scalar,
    intpow,
    parse_scalar,
)


def test_construction_reduces():
    x = Scalar.rational(4, 6)
    assert x == sc("2/3")
    assert x.re == Fraction(2, 3) and x.im == 0


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Scalar.rational(1, 0)


def test_field_arithmetic():
    x = sci("1/2", 1)
    y = sci(3, "-2")
    assert x + y == sci("7/2", -1)
    assert x - y == sci("-5/2", 3)
    assert x * y == sci("7/2", 2)  # (1/2 + i)(3 - 2i) = 3/2 + 2 + (3 - 1)i
    assert -x == sci("-1/2", -1)
    assert (x / y) * y == x
    assert x * x.inv() == ONE
    assert I * I == MINUS_ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_powers():
    x = sci(1, 1)
    assert x**2 == sci(0, 2)
    assert x**0 == ONE
    assert intpow(sc(2), -3) == sc("1/8")
    assert intpow(x, 4) == sc(-4)
    assert intpow(sc("-1/2"), 3) == sc("-1/8")


def test_conj():
    x = sci("2/3", -5)
    assert x.conj() == sci("2/3", 5)
    assert x * x.conj() == sc(Fraction(4, 9) + 25)


def test_equality_and_hash():
    assert hash(sc("1/2")) == hash(Scalar.rational(2, 4))
    assert sc(0) == ZERO
    assert bool(ZERO) is False and bool(I) is True
    assert len({sc(1), sc("2/2"), ONE}) == 1


def test_random_field_axioms(rng):
    def rand():
        return sci(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    for _ in range(200):
        x, y, z = rand(), rand(), rand()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        if y:
            assert (x / y) * y == x


def _canonical(x, re, im):
    # the value re + im*i, reduced, over a positive denominator, so the
    # sign lives in the numerators
    a, b, d = x._a, x._b, x._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (re, im)


def test_arithmetic_matches_fraction_pair_oracle(rng):
    # a quarter of the draws are zero and a quarter integers (d = 1), and
    # n is often 0, so the fast paths for them meet the reference too
    def part(whole):
        return Fraction(rng.randint(-20, 20), 1 if whole else rng.randint(1, 12))

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(0), Fraction(0)
        return part(kind == 1), part(kind == 1)

    for _ in range(500):
        (p, q), (r, s) = draw(), draw()
        x, y = Scalar(p, q), Scalar(r, s)
        n = rng.choice((0, rng.randint(-9, 9)))
        _canonical(x, p, q)
        _canonical(x + y, p + r, q + s)
        _canonical(x - y, p - r, q - s)
        _canonical(x * y, p * r - q * s, p * s + q * r)
        _canonical(x.mul_int(n), p * n, q * n)
        _canonical(x.add_int(n), p + n, q)
        if p or q:
            norm = p * p + q * q
            _canonical(x.inv(), p / norm, -q / norm)


def test_format_basics():
    assert format_scalar(sc(2)) == "2"
    assert format_scalar(sc("-1/2")) == "-1/2"
    assert format_scalar(I) == "i"
    assert format_scalar(-I) == "-i"
    assert format_scalar(sci(0, 2)) == "2i"
    assert format_scalar(sci(0, "-1/2")) == "-1/2i"
    assert format_scalar(sci("3/4", -2)) == "3/4-2i"
    assert format_scalar(sci("1/2", 1)) == "1/2+i"
    assert format_scalar(sci(-3, -1)) == "-3-i"
    assert format_scalar(sci(2, "1/3")) == "2+1/3i"
    assert format_scalar(sci("-1/2", "-1/2")) == "-1/2-1/2i"
    assert format_scalar(ZERO) == "0"


def test_parse_basics():
    assert parse_scalar("2") == sc(2)
    assert parse_scalar("-1/2") == sc("-1/2")
    assert parse_scalar("i") == I
    assert parse_scalar("2i") == sci(0, 2)
    assert parse_scalar(" 3/4 - 2i ") == sci("3/4", -2)
    assert parse_scalar("-i") == -I
    assert parse_scalar("0") == ZERO


def test_parse_format_round_trip(rng):
    for _ in range(300):
        x = sci(
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
        )
        assert parse_scalar(format_scalar(x)) == x


def test_parse_errors_carry_position():
    for bad, pos in [("", 0), ("1/", 2), ("2 + ", 4), ("x", 0), ("1//2", 2)]:
        with pytest.raises(ParseError) as err:
            parse_scalar(bad)
        assert err.value.pos == pos


@pytest.mark.parametrize("text, pos", [
    ("0i+2i", 2), ("0i-1/2i", 2), (" -0/3i + i", 7), ("2i+1", 2)])
def test_parse_refuses_an_imaginary_first_component(text, pos):
    # the 'i' decides, not the value: a zero imaginary first is refused too
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert (err.value.message, err.value.pos) == (
        "imaginary part must come last", pos)


def test_parse_refuses_numbers_past_the_digit_limit(digit_limit):
    # int() raises a bare ValueError past the limit; the scanner reports it
    # as a ParseError at the digits
    with pytest.raises(ParseError) as err:
        parse_scalar("1" * (digit_limit + 700))
    assert err.value.pos == 0
    with pytest.raises(ParseError) as err:
        parse_scalar("1/" + "3" * (digit_limit + 700))
    assert err.value.pos == 2
    # and at its digits in a polynomial or an element: a coefficient, a
    # parenthesized denominator, a power or a symbol's index
    digits = "7" * (digit_limit + 700)
    for parse, text, pos in [(parse_bipoly, f"s + {digits}*t", 4),
                             (parse_bipoly, f"(1/{digits}+i)*s", 3),
                             (parse_bipoly, f"t^{digits}", 2),
                             (parse_element, f"L:-{digits}", 3)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.pos == pos
        assert err.value.message.startswith(f"{digit_limit + 700} digits")


def _ref_format_scalar(x):
    # the formatter as it was written on Fractions
    def imag(f):
        return "i" if f == 1 else "-i" if f == -1 else f"{f}i"

    if x.im == 0:
        return str(x.re)
    if x.re == 0:
        return imag(x.im)
    return f"{x.re}{'+' if x.im > 0 else ''}{imag(x.im)}"


# zero, +-1 and +-1/2 (b = +-d, and b = +-d over a denominator) are drawn
# as often as any other part
_format_parts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                     Fraction(-1, 2)]),
    st.fractions(min_value=-50, max_value=50, max_denominator=30))


@given(re=_format_parts, im=_format_parts)
@example(re=Fraction(0), im=Fraction(0))
@example(re=Fraction(0), im=Fraction(1))
@example(re=Fraction(0), im=Fraction(-1))
@example(re=Fraction(-7, 3), im=Fraction(1))
@example(re=Fraction(5, 6), im=Fraction(-1))
@example(re=Fraction(0), im=Fraction(-4, 9))
def test_format_matches_fraction_reference(re, im):
    x = Scalar(re, im)
    assert format_scalar(x) == _ref_format_scalar(x)


def test_format_numbers_past_the_digit_limit(digit_limit):
    # str() raises a bare ValueError past the limit; formatting lifts it
    # for the one call and puts the caller's back
    digits = "1" + "0" * (digit_limit + 700)
    big = 10 ** (digit_limit + 700)
    x = Scalar.rational(big, 3) - I.mul_int(big)
    assert format_scalar(x) == f"{digits}/3-{digits}i"
    text = format_bipoly(q_poly(3, 500, Scalar(10 ** 10), ONE))
    assert text.startswith("3*t^500 - 30000000000*t^499 - ")
    assert max(len(word) for word in text.split()) > digit_limit
    assert sys.get_int_max_str_digits() == digit_limit


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_scalar("2 2")
    with pytest.raises(ParseError):
        parse_scalar("1/2i + ")
