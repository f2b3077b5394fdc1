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
both polynomial parsers return a BiPoly.
Mixed complex coefficients must be parenthesized, e.g. ``(3/4-2i)*s``;
bare atoms are single components like ``2``, ``-1/2`` or ``3i``.
Multiplication and powers are always explicit.  Syntax errors carry the
offending position.
"""

from __future__ import annotations

from .algebra import AlgElement, BasisSymbol, format_element
from .polynomials import BiPoly, format_bipoly, format_unipoly
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

# each declared longest alias first, the order _scan_var tries them in
_BI_VARS = {"L0": "s", "W0": "t", "s": "s", "t": "t"}
_UNI_VARS = {"W0": "t", "t": "t"}


def _scan_var(text: str, pos: int, names: dict[str, str]) -> tuple[str, int] | None:
    for name, var in names.items():
        if text.startswith(name, pos):
            return var, pos + len(name)
    return None


def _scan_paren_scalar(text: str, pos: int) -> tuple[Scalar, int]:
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


def _scan_term(text: str, pos: int, names: dict[str, str]):
    """One product of factors.  Returns (coefficient, {var: exponent}, pos)."""
    coeff = ONE
    powers: dict[str, int] = {}
    while True:
        pos = _skip_space(text, pos)
        var = _scan_var(text, pos, names)
        if var is not None:
            name, pos = var
            exp, pos = _scan_power(text, pos)
            powers[name] = powers.get(name, 0) + exp
        elif pos < len(text) and text[pos] == "(":
            value, pos = _scan_paren_scalar(text, pos)
            coeff = coeff * value
        else:
            value, pos = scan_scalar_atom(text, pos)
            coeff = coeff * value
        pos = _skip_space(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos += 1
            continue
        return coeff, powers, pos


def _parse_poly(text: str, names: dict[str, str]) -> BiPoly:
    pos = _skip_space(text, 0)
    if pos == len(text):
        raise ParseError("empty input", pos)
    acc: dict[tuple[int, int], Scalar] = {}
    sign = ONE
    if text[pos] in "+-":
        if text[pos] == "-":
            sign = MINUS_ONE
        pos += 1
    while True:
        coeff, powers, pos = _scan_term(text, pos, names)
        key = (powers.get("s", 0), powers.get("t", 0))
        prev = acc.get(key)
        acc[key] = sign * coeff if prev is None else prev + sign * coeff
        pos = _skip_space(text, pos)
        if pos == len(text):
            return BiPoly(acc)  # drops what cancelled
        if text[pos] == "+":
            sign = ONE
        elif text[pos] == "-":
            sign = MINUS_ONE
        else:
            raise ParseError("expected '+', '-' or end of input", pos)
        pos += 1


def parse_bipoly(text: str) -> BiPoly:
    return _parse_poly(text, _BI_VARS)


def parse_unipoly(text: str) -> BiPoly:
    """A polynomial in t alone (alias W0), as a BiPoly; s is a syntax
    error."""
    return _parse_poly(text, _UNI_VARS)


def parse_symbol(text: str) -> BasisSymbol:
    text = text.strip()
    if len(text) >= 3 and text[0] in "LWC" and text[1] == ":":
        body = text[2:]
        neg = body.startswith("-")
        if body[1:].isdigit() if neg else body.isdigit():
            return BasisSymbol(text[0], int(body))
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
    if pos == len(text):
        raise ParseError("empty input", pos)
    out = AlgElement.zero()
    sign = ONE
    if text[pos] in "+-":
        if text[pos] == "-":
            sign = MINUS_ONE
        pos += 1
    while True:
        pos = _skip_space(text, pos)
        coeff = sign
        # optional coefficient factors before the symbol
        while pos < len(text) and text[pos] not in "LWC":
            if text[pos] == "(":
                value, pos = _scan_paren_scalar(text, pos)
            else:
                value, pos = scan_scalar_atom(text, pos)
            coeff = coeff * value
            pos = _skip_space(text, pos)
            if pos < len(text) and text[pos] == "*":
                pos = _skip_space(text, pos + 1)
            else:
                raise ParseError("expected '*' before basis symbol", pos)
        sym, pos = _scan_symbol(text, pos)
        out = out + AlgElement.single(sym, coeff)
        pos = _skip_space(text, pos)
        if pos == len(text):
            return out
        if text[pos] == "+":
            sign = ONE
        elif text[pos] == "-":
            sign = MINUS_ONE
        else:
            raise ParseError("expected '+', '-' or end of input", pos)
        pos += 1
