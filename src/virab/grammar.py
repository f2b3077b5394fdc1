"""Text forms for polynomials and algebra elements.

The parsers accept this language, a superset of what the formatters emit,
so parse(format(x)) == x:

    poly    := [sign] term (sign term)*
    term    := factor ('*' factor)*
    factor  := var ['^' nat] | coeff
    coeff   := '(' scalar ')' | atom
    element := '0' | [sign] eterm (sign eterm)*
    eterm   := (coeff '*')* symbol
    symbol  := ('L'|'W'|'C') ':' ['-'] nat
    sign    := '+' | '-'

``scalar``, ``atom`` and ``nat`` are those of :mod:`virab.scalars`, so a
mixed coefficient is parenthesized, as in ``(3/4-2i)*s``, a number may
have leading zeros and a power may be 0.  A term's coefficient
is the product of its coefficient factors, its monomial the product of its
variables, and repeated monomials or symbols add up.  Spaces and tabs may
stand between any two tokens, never inside a number or a name.  Variables
are ``s`` and ``t``; ``L0`` and ``W0`` are accepted as aliases since the
polynomial ring doubles as the enveloping algebra of their span.
:func:`parse_unipoly` reads ``t`` (or ``W0``) alone and refuses ``s``;
both polynomial parsers return a BiPoly.

Each factor, with the spaces around it and the ``*`` after it, is read by
one match of one compiled pattern, whose groups give its value or its
error.  A term's coefficient is kept as Gaussian-integer numerators over a
denominator, and :func:`_parse_sum` adds the terms into one accumulator
over a common denominator, so the value is built once, with one gcd per
coefficient.  Syntax errors carry the offending position.
"""

from __future__ import annotations

import re
from functools import partial
from math import gcd

from .algebra import AlgElement, BasisSymbol, format_element
from .polynomials import _T, BiPoly, format_bipoly, format_unipoly
from .scalars import (
    ATOM,
    SCALAR,
    ParseError,
    _atom,
    _nat,
    _scalar,
    _skip_space,
    format_scalar,
    parse_scalar,
)

__all__ = [
    "parse_unipoly",
    "parse_bipoly",
    "parse_symbol",
    "parse_element",
    "format_unipoly",
    "format_bipoly",
    "format_element",
    "format_scalar",
    "parse_scalar",
]

# One factor with the spaces around it and the '*' after it: a variable
# (group 1) with its power's digits (2), a parenthesized SCALAR with its
# ')' (empty when none follows), or a bare ATOM.  Each branch is
# permissive, so a match always succeeds and the groups decide the value,
# or the error and its position.
_FACTOR = re.compile(r"[ \t]*(?:(L0|W0|s|t)[ \t]*(?:\^[ \t]*([0-9]*))?"
                     r"|\(" + SCALAR + r"(\)?)|" + ATOM + r")[ \t]*(\*?)[ \t]*")
_CLOSE = 3 + re.compile(SCALAR).groups  # groups 3 to _CLOSE - 1: SCALAR's
_NUM = _CLOSE + 1  # the ATOM's three groups start here; the '*' is last
_SYMBOL = re.compile(r"([LWC]?)(:?)(-?)([0-9]*)[ \t]*")

# each variable name maps to its position in a monomial key (s_exp, t_exp)
_BI_VARS = {"L0": 0, "W0": 1, "s": 0, "t": 1}
_UNI_VARS = {"W0": 1, "t": 1}


def _coefficient(text: str, m: re.Match, groups: tuple) -> tuple[int, int, int]:
    """The scalar factor of a _FACTOR match, as (re, im, den); ``groups``
    is ``m.groups()``."""
    if groups[0] is not None:  # a variable the grammar does not take here
        raise ParseError("expected digits", m.start(1))
    if groups[2] is None:
        return _atom(m, groups, _NUM)
    end = text.find(")", m.start(_CLOSE))  # the ')', or a later one
    if end < 0:
        raise ParseError("unbalanced parenthesis", m.start(3) - 1)
    return _scalar(m, groups, 3, end)


def _times(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, d = x
    c, e, f = y
    return a * c - b * e, a * e + b * c, d * f


def _scan_term(names: dict[str, int], text: str, pos: int):
    """One product of factors.  Returns (re, im, den, (s_exp, t_exp), pos)
    with pos past the spaces after the term."""
    coeff = None
    powers = [0, 0]
    while True:
        m = _FACTOR.match(text, pos)
        groups = m.groups()
        var = names.get(groups[0])
        if var is None:
            value = _coefficient(text, m, groups)
            coeff = value if coeff is None else _times(coeff, value)
        else:
            exp = groups[1]
            powers[var] += 1 if exp is None else _nat(exp, m, 2)
        if not groups[-1]:
            a, b, d = coeff or (1, 0, 1)
            return a, b, d, (powers[0], powers[1]), m.end()
        pos = m.end()


def _scan_eterm(text: str, pos: int):
    """Coefficient factors, each followed by '*', then one basis symbol.
    Returns (re, im, den, symbol, pos) with pos past the spaces after it."""
    coeff = (1, 0, 1)
    pos = _skip_space(text, pos)
    while pos < len(text) and text[pos] not in "LWC":
        m = _FACTOR.match(text, pos)
        groups = m.groups()
        coeff = _times(coeff, _coefficient(text, m, groups))
        if not groups[-1]:
            raise ParseError("expected '*' before basis symbol", m.end())
        pos = m.end()
    sym, pos = _scan_symbol(text, pos)
    return (*coeff, sym, pos)


def _parse_sum(text: str, scan_term, cls: type[_T]) -> _T:
    """term (('+'|'-') term)* with an optional leading sign.  scan_term
    returns (re, im, den, key, pos); each term adds into one accumulator
    (D, {key: [re, im]}) over a common denominator D, and the value is
    built once, with one gcd per coefficient."""
    pos = _skip_space(text, 0)
    n = len(text)
    if pos == n:
        raise ParseError("empty input", pos)
    d = 1
    acc: dict = {}
    minus = text[pos] == "-"
    if minus or text[pos] == "+":
        pos += 1
    while True:
        a, b, den, key, pos = scan_term(text, pos)
        if d % den:
            f = den // gcd(d, den)
            for num in acc.values():
                num[0] *= f
                num[1] *= f
            d *= f
        f = -(d // den) if minus else d // den
        num = acc.get(key)
        if num is None:
            acc[key] = [a * f, b * f]
        else:
            num[0] += a * f
            num[1] += b * f
        if pos == n:
            return cls._from_numerators(d, acc)  # drops what cancelled
        if text[pos] not in "+-":
            raise ParseError("expected '+', '-' or end of input", pos)
        minus = text[pos] == "-"
        pos += 1


def parse_bipoly(text: str) -> BiPoly:
    return _parse_sum(text, partial(_scan_term, _BI_VARS), BiPoly)


def parse_unipoly(text: str) -> BiPoly:
    """A polynomial in t alone (alias W0), as a BiPoly; s is a syntax
    error."""
    return _parse_sum(text, partial(_scan_term, _UNI_VARS), BiPoly)


def parse_symbol(text: str) -> BasisSymbol:
    """One basis symbol, with whitespace around it; an error names the
    position of the offending character in ``text``."""
    try:
        sym, pos = _scan_symbol(text, _skip_space(text, 0))
        if pos == len(text):
            return sym
    except ParseError as exc:
        pos = exc.pos
    raise ParseError("expected a symbol like L:2, W:-1 or C:1", pos)


def _scan_symbol(text: str, pos: int) -> tuple[BasisSymbol, int]:
    """One basis symbol at ``pos``, and the position past the spaces after
    it."""
    m = _SYMBOL.match(text, pos)
    kind, colon, minus, digits = m.groups()
    if not kind:
        raise ParseError("expected a basis symbol", pos)
    if not colon:
        raise ParseError("expected ':' after symbol kind", pos + 1)
    value = _nat(digits, m, 4)
    return BasisSymbol(kind, -value if minus else value), m.end()


def parse_element(text: str) -> AlgElement:
    pos = _skip_space(text, 0)
    if text[pos : pos + 1] == "0" and _skip_space(text, pos + 1) == len(text):
        return AlgElement.zero()
    return _parse_sum(text, _scan_eterm, AlgElement)
