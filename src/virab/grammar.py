"""Text forms for polynomials and algebra elements.

The grammar mirrors what the formatters emit, so parse(format(x)) == x:

    poly    := term (('+'|'-') term)*
    term    := ['-'] factor ('*' factor)*
    factor  := '(' scalar ')' | scalar-atom | var ('^' nat)?
    element := '0' | eterm (('+'|'-') eterm)*
    eterm   := ['-'] [factor '*'] symbol
    symbol  := ('L'|'W'|'C') ':' int

Variables are ``s`` and ``t``; ``L0`` and ``W0`` are accepted as aliases
since the polynomial ring doubles as the enveloping algebra of their span.
:func:`parse_unipoly` reads ``t`` (or ``W0``) alone and refuses ``s``;
both polynomial parsers return a BiPoly.  Polynomials and elements are
read by one loop over ``poly`` or ``element`` (:func:`_parse_sum`), which
adds like terms in one dict, with a term scanner for each; a symbol alone
is read by the element's symbol scanner.
Mixed complex coefficients must be parenthesized, e.g. ``(3/4-2i)*s``;
bare atoms are single components like ``2``, ``-1/2`` or ``3i``.
Multiplication and powers are always explicit, and digits are ASCII 0-9
only.  Syntax errors carry the offending position.
"""

from __future__ import annotations

from functools import partial

from .algebra import AlgElement, BasisSymbol, format_element
from .polynomials import _T, BiPoly, format_bipoly, format_unipoly
from .scalars import (
    MINUS_ONE,
    ONE,
    ParseError,
    Scalar,
    _scan_nat,
    _skip_space,
    format_scalar,
    parse_scalar,
    scan_scalar_atom,
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

# each declared longest alias first, the order _scan_var tries them in;
# each name maps to its position in a monomial key (s_exp, t_exp)
_BI_VARS = {"L0": 0, "W0": 1, "s": 0, "t": 1}
_UNI_VARS = {"W0": 1, "t": 1}


def _scan_var(text: str, pos: int, names: dict[str, int]) -> tuple[int, int] | None:
    for name, var in names.items():
        if text.startswith(name, pos):
            return var, pos + len(name)
    return None


def _scan_coeff(text: str, pos: int) -> tuple[Scalar, int]:
    """One coefficient factor: a parenthesized scalar or a bare atom."""
    if pos >= len(text) or text[pos] != "(":
        return scan_scalar_atom(text, pos)
    close = text.find(")", pos + 1)
    if close < 0:
        raise ParseError("unbalanced parenthesis", pos)
    inner = text[pos + 1 : close]
    try:
        value = parse_scalar(inner)
    except ParseError as exc:
        raise ParseError(exc.message, pos + 1 + exc.pos) from None
    return value, close + 1


def _scan_power(text: str, pos: int) -> tuple[int, int]:
    pos = _skip_space(text, pos)
    if pos < len(text) and text[pos] == "^":
        return _scan_nat(text, _skip_space(text, pos + 1))
    return 1, pos


def _scan_term(names: dict[str, int], text: str, pos: int):
    """One product of factors.  Returns (coefficient, (s_exp, t_exp), pos)."""
    coeff = ONE
    powers = [0, 0]
    while True:
        pos = _skip_space(text, pos)
        found = _scan_var(text, pos, names)
        if found is not None:
            var, pos = found
            exp, pos = _scan_power(text, pos)
            powers[var] += exp
        else:
            value, pos = _scan_coeff(text, pos)
            coeff = coeff * value
        pos = _skip_space(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos += 1
            continue
        return coeff, tuple(powers), pos


def _scan_eterm(text: str, pos: int) -> tuple[Scalar, BasisSymbol, int]:
    """Coefficient factors, each followed by '*', then one basis symbol."""
    coeff = ONE
    pos = _skip_space(text, pos)
    while pos < len(text) and text[pos] not in "LWC":
        value, pos = _scan_coeff(text, pos)
        coeff = coeff * value
        pos = _skip_space(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos = _skip_space(text, pos + 1)
        else:
            raise ParseError("expected '*' before basis symbol", pos)
    sym, pos = _scan_symbol(text, pos)
    return coeff, sym, pos


def _parse_sum(text: str, scan_term, cls: type[_T]) -> _T:
    """term (('+'|'-') term)* with an optional leading sign.  scan_term
    returns (coefficient, key, pos); like keys add up in one dict, and
    the value is built once."""
    pos = _skip_space(text, 0)
    if pos == len(text):
        raise ParseError("empty input", pos)
    acc: dict = {}
    sign = ONE
    if text[pos] in "+-":
        if text[pos] == "-":
            sign = MINUS_ONE
        pos += 1
    while True:
        coeff, key, pos = scan_term(text, pos)
        prev = acc.get(key)
        acc[key] = sign * coeff if prev is None else prev + sign * coeff
        pos = _skip_space(text, pos)
        if pos == len(text):
            return cls(acc)  # drops what cancelled
        if text[pos] == "+":
            sign = ONE
        elif text[pos] == "-":
            sign = MINUS_ONE
        else:
            raise ParseError("expected '+', '-' or end of input", pos)
        pos += 1


def parse_bipoly(text: str) -> BiPoly:
    return _parse_sum(text, partial(_scan_term, _BI_VARS), BiPoly)


def parse_unipoly(text: str) -> BiPoly:
    """A polynomial in t alone (alias W0), as a BiPoly; s is a syntax
    error."""
    return _parse_sum(text, partial(_scan_term, _UNI_VARS), BiPoly)


def parse_symbol(text: str) -> BasisSymbol:
    text = text.strip()
    try:
        sym, pos = _scan_symbol(text, 0)
        if pos == len(text):
            return sym
    except ParseError:
        pass
    raise ParseError("expected a symbol like L:2, W:-1 or C:1", 0)


def _scan_symbol(text: str, pos: int) -> tuple[BasisSymbol, int]:
    if pos >= len(text) or text[pos] not in "LWC":
        raise ParseError("expected a basis symbol", pos)
    kind = text[pos]
    pos += 1
    if pos >= len(text) or text[pos] != ":":
        raise ParseError("expected ':' after symbol kind", pos)
    pos += 1
    neg = False
    if pos < len(text) and text[pos] == "-":
        neg = True
        pos += 1
    value, pos = _scan_nat(text, pos)
    return BasisSymbol(kind, -value if neg else value), pos


def parse_element(text: str) -> AlgElement:
    pos = _skip_space(text, 0)
    if text[pos : pos + 1] == "0" and _skip_space(text, pos + 1) == len(text):
        return AlgElement.zero()
    return _parse_sum(text, _scan_eterm, AlgElement)
