import re
from functools import partial

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
    ZERO,
    ParseError,
    Scalar,
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


def test_parse_accepts_more_than_the_formatters_emit():
    # forms no formatter prints, which the grammar reads all the same: a
    # power of zero or with a leading zero, leading zeros in a number,
    # repeated factors, a parenthesized real, a leading '+'
    for text, value in [
        ("t^01", BiPoly({(0, 1): ONE})),
        ("007", BiPoly({(0, 0): sc(7)})),
        ("2*3*s", BiPoly({(1, 0): sc(6)})),
        ("s*s", BiPoly({(2, 0): ONE})),
        ("(1)", BiPoly({(0, 0): ONE})),
        ("+ s", BiPoly({(1, 0): ONE})),
        ("s^0", BiPoly({(0, 0): ONE})),
        ("L0*W0", BiPoly({(1, 1): ONE})),
    ]:
        assert parse_bipoly(text) == value, text
    assert parse_element("2*3*L:1") == AlgElement({L(1): sc(6)})


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


# --- a reference scanner ------------------------------------------------

# The scanner the grammar had before it read each factor with one compiled
# pattern: a character loop per token, a Scalar per factor and Scalar
# arithmetic for every product and sum.  Its values and its errors, message
# and position, are the specification the compiled scanner is held to.

def _ref_skip(text, i):
    while i < len(text) and text[i] in " \t":
        i += 1
    return i


def _ref_nat(text, i):
    j = i
    while j < len(text) and "0" <= text[j] <= "9":
        j += 1
    if j == i:
        raise ParseError("expected digits", i)
    return int(text[i:j]), j


def _ref_atom(text, i):
    n = len(text)
    if i < n and text[i] == "i":
        return I, i + 1
    num, j = _ref_nat(text, i)
    den = 1
    if j < n and text[j] == "/":
        den, j = _ref_nat(text, j + 1)
        if den == 0:
            raise ParseError("zero denominator", j - 1)
    if j < n and text[j] == "i":
        return Scalar.rational(num, den) * I, j + 1
    return Scalar.rational(num, den), j


def _ref_parse_scalar(text):
    n = len(text)
    i = _ref_skip(text, 0)
    negative = i < n and text[i] == "-"
    if i < n and text[i] in "+-":
        i = _ref_skip(text, i + 1)
    first, i = _ref_atom(text, i)
    imaginary = text[i - 1] == "i"  # 0i too: the 'i', not the value
    if negative:
        first = -first
    i = _ref_skip(text, i)
    if i == n:
        return first
    if text[i] not in "+-":
        raise ParseError("unexpected character in scalar", i)
    if imaginary:
        raise ParseError("imaginary part must come last", i)
    sign2 = -1 if text[i] == "-" else 1
    i = _ref_skip(text, i + 1)
    second, i = _ref_atom(text, i)
    if second.im == 0:
        raise ParseError("second component must be imaginary", i - 1)
    i = _ref_skip(text, i)
    if i != n:
        raise ParseError("trailing characters after scalar", i)
    return first + (-second if sign2 < 0 else second)


def _ref_coeff(text, pos):
    if pos >= len(text) or text[pos] != "(":
        return _ref_atom(text, pos)
    close = text.find(")", pos + 1)
    if close < 0:
        raise ParseError("unbalanced parenthesis", pos)
    try:
        value = _ref_parse_scalar(text[pos + 1 : close])
    except ParseError as exc:
        raise ParseError(exc.message, pos + 1 + exc.pos) from None
    return value, close + 1


def _ref_term(names, text, pos):
    coeff = ONE
    powers = [0, 0]
    while True:
        pos = _ref_skip(text, pos)
        var = next((name for name in names if text.startswith(name, pos)), None)
        if var is not None:
            pos = _ref_skip(text, pos + len(var))
            exp = 1
            if pos < len(text) and text[pos] == "^":
                exp, pos = _ref_nat(text, _ref_skip(text, pos + 1))
            powers[names[var]] += exp
        else:
            value, pos = _ref_coeff(text, pos)
            coeff = coeff * value
        pos = _ref_skip(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos += 1
            continue
        return coeff, tuple(powers), pos


def _ref_symbol(text, pos):
    if pos >= len(text) or text[pos] not in "LWC":
        raise ParseError("expected a basis symbol", pos)
    kind = text[pos]
    pos += 1
    if pos >= len(text) or text[pos] != ":":
        raise ParseError("expected ':' after symbol kind", pos)
    pos += 1
    negative = pos < len(text) and text[pos] == "-"
    value, pos = _ref_nat(text, pos + negative)
    return BasisSymbol(kind, -value if negative else value), pos


def _ref_eterm(text, pos):
    coeff = ONE
    pos = _ref_skip(text, pos)
    while pos < len(text) and text[pos] not in "LWC":
        value, pos = _ref_coeff(text, pos)
        coeff = coeff * value
        pos = _ref_skip(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos = _ref_skip(text, pos + 1)
        else:
            raise ParseError("expected '*' before basis symbol", pos)
    sym, pos = _ref_symbol(text, pos)
    return coeff, sym, pos


def _ref_sum(text, scan_term, cls):
    pos = _ref_skip(text, 0)
    if pos == len(text):
        raise ParseError("empty input", pos)
    acc = {}
    sign = ONE
    if text[pos] in "+-":
        sign = MINUS_ONE if text[pos] == "-" else ONE
        pos += 1
    while True:
        coeff, key, pos = scan_term(text, pos)
        acc[key] = acc.get(key, ZERO) + sign * coeff
        pos = _ref_skip(text, pos)
        if pos == len(text):
            return cls(acc)
        if text[pos] not in "+-":
            raise ParseError("expected '+', '-' or end of input", pos)
        sign = MINUS_ONE if text[pos] == "-" else ONE
        pos += 1


def _ref_parse_element(text):
    pos = _ref_skip(text, 0)
    if text[pos : pos + 1] == "0" and _ref_skip(text, pos + 1) == len(text):
        return AlgElement.zero()
    return _ref_sum(text, _ref_eterm, AlgElement)


_REFERENCE = {
    parse_scalar: _ref_parse_scalar,
    parse_bipoly: partial(_ref_sum, scan_term=partial(
        _ref_term, {"L0": 0, "W0": 1, "s": 0, "t": 1}), cls=BiPoly),
    parse_unipoly: partial(_ref_sum, scan_term=partial(
        _ref_term, {"W0": 1, "t": 1}), cls=BiPoly),
    parse_element: _ref_parse_element,
}


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except ParseError as err:
        return "error", err.message, err.pos


# a token of the formatters' output: an atom, a variable, a basis symbol or
# one character; spaces may stand between any two of them
_TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?i?|i|L0|W0|[LWC]:-?[0-9]+|\S")
# the characters of the grammars, and a digit of another script, a
# superscript digit and an em space, none of which the grammars accept
_EDITS = " \t0123456789/i()+-*^stLW:\u0663\u00b2\u2003"


@st.composite
def _edited_text(draw, kind):
    values, fmt, _ = _TEXT_FORMS[kind]
    tokens = _TOKEN.findall(fmt(draw(values)))
    space = st.sampled_from(["", "", " ", "\t", "  ", " \t "])
    text = draw(space) + "".join(tok + draw(space) for tok in tokens)
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(_EDITS))
        cut = draw(st.sampled_from([0, 1]))  # insert, or replace or delete
        if cut and draw(st.booleans()):
            char = ""
        text = text[:pos] + char + text[pos + cut:]
    return text


@pytest.mark.oracle
@pytest.mark.parametrize("kind", _TEXT_FORMS)
@given(data=st.data())
def test_scanner_matches_the_reference_scanner(kind, data):
    # every input gives the reference's value, or its error message and
    # position
    text = data.draw(_edited_text(kind))
    parse = _TEXT_FORMS[kind][2]
    assert _outcome(parse, text) == _outcome(_REFERENCE[parse], text), text


# texts that single-character edits of formatted values seldom reach: zero
# denominators, components out of order, parentheses, symbols and the forms
# the formatters never emit
_RARE_TEXTS = {
    "scalar": ["1/0", "-3/00i", "2i+1", "1+0i", "0i+2i", "0i-1/2i", "i+i", "+ - 1",
               "(1)", "", "1/2/3", "i2", "1i/2"],
    "bipoly": ["2*(1/0)*t", "(1/2i+1)*s", "(0i+2i)*s", "(1+2i", "s^", "1/0*s + t",
               "( )*s", "t^01 + 007", "(1) * s*s", "L0 * W0 - s*t", "+ s^0"],
    "unipoly": ["t + 1/0", "L0", "s^2", "W0^2*t", "-(i)*t"],
    "element": ["1/0*L:1", "(1/0)*W:2", "L:1 + X:2", "L1", "0*L:1", "0",
                " 0 ", "L:-", "2*3*L:1", "s*L:1", "L:1 - -W:2", "C:1 C:2"],
}


@pytest.mark.parametrize("kind, text", [
    (kind, text) for kind, texts in _RARE_TEXTS.items() for text in texts])
def test_scanner_matches_the_reference_scanner_on_rare_texts(kind, text):
    parse = _TEXT_FORMS[kind][2]
    assert _outcome(parse, text) == _outcome(_REFERENCE[parse], text)
