import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sc, sci
from virab.algebra import AlgElement, BasisSymbol, C, L, W, format_element
from virab.grammar import (
    format_bipoly,
    format_unipoly,
    parse_bipoly,
    parse_element,
    parse_symbol,
    parse_unipoly,
)
from virab.polynomials import BiPoly
from virab.scalars import (
    I,
    MINUS_ONE,
    ONE,
    ParseError,
    format_scalar,
    parse_scalar,
)


def test_parse_bipoly_basics():
    assert parse_bipoly("2*s^2*t - 1/2") == BiPoly({(2, 1): sc(2), (0, 0): sc("-1/2")})
    assert parse_bipoly("t") == BiPoly({(0, 1): ONE})
    assert parse_bipoly("s + s") == BiPoly({(1, 0): sc(2)})
    assert format_bipoly(parse_bipoly("s + s")) == "2*s"
    assert parse_bipoly("0").is_zero
    assert parse_bipoly("-s^3") == BiPoly({(3, 0): MINUS_ONE})


def test_parse_bipoly_aliases():
    assert parse_bipoly("L0^2*W0") == parse_bipoly("s^2*t")
    assert parse_bipoly("3*W0") == BiPoly({(0, 1): sc(3)})


def test_parse_mixed_coefficients():
    assert parse_bipoly("(3/4-2i)*s") == BiPoly({(1, 0): sci("3/4", -2)})
    assert parse_bipoly("i*t - 2i") == BiPoly({(0, 1): I, (0, 0): sci(0, -2)})


def test_parse_unipoly():
    assert parse_unipoly("t^3 - 2*t + 5") == BiPoly(
        {(0, 3): ONE, (0, 1): sc(-2), (0, 0): sc(5)})
    assert parse_unipoly("W0") == BiPoly({(0, 1): ONE})
    with pytest.raises(ParseError):
        parse_unipoly("s")  # wrong variable for the one-variable grammar


def test_whitespace_tolerance():
    assert parse_bipoly("  2 * s ^ 2  -  t ") == BiPoly({(2, 0): sc(2), (0, 1): MINUS_ONE})


def test_parse_errors_have_positions():
    for bad in ("", "s +", "2**s", "s^", "(2", "s t"):
        with pytest.raises(ParseError):
            parse_bipoly(bad)
    try:
        parse_bipoly("s t")
    except ParseError as err:
        assert err.pos == 2
    with pytest.raises(ParseError) as err:
        parse_bipoly("t^")
    assert err.value.pos == 2 and err.value.message == "expected digits"
    for parse, bad, message, pos in [
        (parse_bipoly, "W", "expected digits", 0),
        (parse_bipoly, "s*W0^", "expected digits", 5),
        (parse_bipoly, "t ^ x", "expected digits", 4),
        (parse_bipoly, "  -", "expected digits", 3),
        (parse_bipoly, "2*(1/0)*t", "zero denominator", 5),
        (parse_bipoly, "s + (1+)*t", "expected digits", 7),
        (parse_bipoly, "W0 W0", "expected '+', '-' or end of input", 3),
        (parse_unipoly, "t + s", "expected digits", 4),
        (parse_unipoly, "L0", "expected digits", 0),
        (parse_element, "L:1 +", "expected a basis symbol", 5),
        (parse_element, "2*", "expected a basis symbol", 2),
        (parse_element, "2 L:1", "expected '*' before basis symbol", 2),
        (parse_element, "L:1 * L:2", "expected '+', '-' or end of input", 4),
        (parse_element, "C:", "expected digits", 2),
        (parse_element, "", "empty input", 0),
        (parse_element, "0 + L:1", "expected '*' before basis symbol", 2),
        (parse_element, "L2", "expected ':' after symbol kind", 1),
        (parse_element, "L:+2", "expected digits", 2),
        (parse_scalar, "1+2", "second component must be imaginary", 2),
        (parse_scalar, "1+2i 3", "trailing characters after scalar", 5),
        # digits are ASCII 0-9 only: no other script's digits, and no
        # superscripts
        (parse_scalar, "\u0663/2", "expected digits", 0),
        (parse_scalar, "\u00b2", "expected digits", 0),
        (parse_scalar, "1/\u0663", "expected digits", 2),
        (parse_bipoly, "t^\u0663", "expected digits", 2),
        (parse_bipoly, "s^\u00b2", "expected digits", 2),
        (parse_element, "L:\u00b2", "expected digits", 2),
        # whitespace is the ASCII space and tab only: an em space or an
        # ideographic space is a character like any other
        (parse_bipoly, "s\u2003+ t", "expected '+', '-' or end of input", 1),
        (parse_scalar, "\u30001/2", "expected digits", 0),
        (parse_element, "L:1 +\u2003W:2", "expected digits", 5),
    ] + [(parse_symbol, bad, "expected a symbol like L:2, W:-1 or C:1", pos)
         # the position of the offending character in the text as given,
         # leading whitespace counted
         for bad, pos in (("L:1 +", 4), ("2*", 0), ("2 L:1", 0),
                          ("L:1 * L:2", 4), ("C:", 2), ("", 0), ("0 + L:1", 0),
                          ("L2", 1), ("L:+2", 2), ("L:\u00b2", 2),
                          ("W:\u0663", 2), (" L:2\u3000", 4), ("\u2003L:2", 0),
                          ("L:2\n", 3), ("\t L;2", 3), ("  X:2 ", 2))]:
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert (err.value.message, err.value.pos) == (message, pos), bad


def test_parse_merges_repeated_monomials():
    assert parse_bipoly("s - s").terms == {}
    assert parse_bipoly("s*t + 2 - t*s") == BiPoly({(0, 0): sc(2)})
    assert parse_bipoly("L0 + s") == BiPoly({(1, 0): sc(2)})
    assert parse_bipoly("W0^2*t - t^3 + 1/2*t*t*t") == BiPoly(
        {(0, 3): sc("1/2")})
    assert parse_bipoly("s - s + t - t").is_zero


def test_parse_symbol():
    assert parse_symbol("L:2") == L(2)
    assert parse_symbol("W:-1") == W(-1)
    assert parse_symbol("C:1") == C(1)
    assert parse_symbol(" L:10 ") == L(10)
    assert parse_symbol("\tW:-3 \t") == W(-3)
    assert parse_bipoly("s\t+ t") == parse_bipoly("s + t")
    assert parse_scalar(" \t1/2\t") == sc("1/2")
    for bad in ("L2", "L:", "X:1", "L:1.5", "L:+2", ""):
        with pytest.raises(ParseError):
            parse_symbol(bad)


def test_parse_element():
    e = parse_element("-4*L:0 + 1/2*C:1")
    assert e == AlgElement({BasisSymbol("L", 0): sc(-4), BasisSymbol("C", 1): sc("1/2")})
    assert parse_element("0").is_zero
    assert parse_element("L:2") == AlgElement({L(2): ONE})
    assert parse_element("-W:-3") == AlgElement({W(-3): MINUS_ONE})
    assert parse_element("(1+i)*W:2 - L:1") == AlgElement(
        {W(2): sci(1, 1), L(1): MINUS_ONE}
    )
    # like terms combine
    assert parse_element("L:1 + L:1") == AlgElement({L(1): sc(2)})


def test_parse_element_errors():
    for bad in ("L:1 +", "2*", "2 L:1", "L:1 * L:2", "C:"):
        with pytest.raises(ParseError):
            parse_element(bad)


# Gaussian rationals of every printed shape: zero, real, pure imaginary and
# mixed, with either sign on either part
_parts = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_scalars = st.builds(lambda re, im: sc(re) + sc(im) * I, _parts, _parts)
_symbols = st.one_of(
    st.builds(BasisSymbol, st.sampled_from("LW"), st.integers(-5, 5)),
    st.builds(C, st.integers(1, 4)))
_TEXT_FORMS = {
    "scalar": (_scalars, format_scalar, parse_scalar),
    "unipoly": (st.dictionaries(st.integers(0, 6), _scalars, max_size=5)
                .map(lambda d: BiPoly({(0, k): c for k, c in d.items()})),
                format_unipoly, parse_unipoly),
    "bipoly": (st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                               _scalars, max_size=6)
               .map(BiPoly), format_bipoly, parse_bipoly),
    "element": (st.dictionaries(_symbols, _scalars, max_size=5)
                .map(AlgElement), format_element, parse_element),
}


@pytest.mark.parametrize("kind", _TEXT_FORMS)
@given(data=st.data())
def test_parse_inverts_format(kind, data):
    values, fmt, parse = _TEXT_FORMS[kind]
    x = data.draw(values)
    text = fmt(x)
    if kind == "unipoly":
        # a polynomial in t alone prints the same through either formatter
        assert format_bipoly(x) == text
    assert parse(text) == x
