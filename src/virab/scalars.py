"""Exact arithmetic in the Gaussian rationals Q(i).

Every coefficient in this package is a :class:`Scalar`: the complex number
(a + b*i)/d held exactly with integers a, b and d > 0, reduced so that
gcd(a, b, d) == 1.  Every denominator arises positive (a product or lcm of
denominators, or a^2 + b^2 in ``inv``), so the sign lives in a and b.
Values are immutable and hashable, equality is structural on the
canonical form, and there is no floating point anywhere.

Text form (used in JSON documents, CLI arguments and reports):

    scalar := [sign] atom | [sign] real sign imag
    atom   := real | imag
    real   := nat ['/' nat]
    imag   := real 'i' | 'i'
    nat    := [0-9]+
    sign   := '+' | '-'

No denominator is 0, and the imaginary atom of a two-atom scalar is
nonzero: ``0i+2i`` (its first atom imaginary) and ``1+0i`` are refused.
``-1/2i`` means -(1/2)i.  Examples: ``2``, ``-1/2``, ``i``, ``2i``,
``3/4-2i``.  The
formatter reduces fractions over a positive denominator, so parse and
format are mutually inverse on canonical strings.  Whitespace, here and in every text form of
the package, is :data:`SPACE`: the ASCII space and tab, nothing else, and
it may stand before, between and after the signs and atoms.  The scanner
reads a scalar with one match of one compiled pattern, straight into the
integer form (a, b, d).
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd


class ParseError(ValueError):
    """Syntax error in scalar/polynomial/element text, carrying a position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


class Scalar:
    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        re = Fraction(re)
        im = Fraction(im)
        rd, id_ = re.denominator, im.denominator
        d = rd * id_ // gcd(rd, id_)
        # d = lcm of reduced denominators, so gcd(a, b, d) == 1 already
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // id_)
        self._d = d

    @classmethod
    def from_int(cls, n: int) -> Scalar:
        return _make(n, 0, 1)

    @classmethod
    def rational(cls, num: int, den: int = 1) -> Scalar:
        return cls(Fraction(num, den))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self._a == other._a and self._b == other._b and self._d == other._d
        )

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __add__(self, other: Scalar) -> Scalar:
        if not isinstance(other, Scalar):
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == 1 and d2 == 1:
            return _make(self._a + other._a, self._b + other._b, 1)
        return _reduced(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    def __sub__(self, other: Scalar) -> Scalar:
        if not isinstance(other, Scalar):
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == 1 and d2 == 1:
            return _make(self._a - other._a, self._b - other._b, 1)
        return _reduced(
            self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2
        )

    def __neg__(self) -> Scalar:
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other: Scalar) -> Scalar:
        if not isinstance(other, Scalar):
            return NotImplemented
        a1, b1 = self._a, self._b
        a2, b2 = other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    def mul_int(self, n: int) -> Scalar:
        if n == 0:
            return ZERO
        if self._d == 1:
            return _make(self._a * n, self._b * n, 1)
        return _reduced(self._a * n, self._b * n, self._d)

    def add_int(self, n: int) -> Scalar:
        if n == 0:
            return self
        return _make(self._a + n * self._d, self._b, self._d)

    # n + x and n * x for an int n, so that an index formula reads the
    # same at an int and at a symbolic index (virab.repmod.Index)
    def __radd__(self, n: int) -> Scalar:
        return self.add_int(n) if type(n) is int else NotImplemented

    def __rmul__(self, n: int) -> Scalar:
        return self.mul_int(n) if type(n) is int else NotImplemented

    def inv(self) -> Scalar:
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other: Scalar) -> Scalar:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, m: int) -> Scalar:
        return intpow(self, m) if type(m) is int else NotImplemented

    def conj(self) -> Scalar:
        return _make(self._a, -self._b, self._d)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


def _make(a: int, b: int, d: int) -> Scalar:
    s = object.__new__(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _reduced(a: int, b: int, d: int) -> Scalar:
    # caller guarantees d > 0; sign lives in the numerators
    g = gcd(a, b, d)
    if g > 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
MINUS_ONE = _make(-1, 0, 1)
I = _make(0, 1, 1)
HALF = _make(1, 0, 2)


def intpow(x: Scalar, m: int) -> Scalar:
    """x**m for any integer m, exactly; 0**negative raises ZeroDivisionError."""
    if m < 0:
        x = x.inv()
        m = -m
    out = ONE
    while m:
        if m & 1:
            out = out * x
        x = x * x
        m >>= 1
    return out


# --- text form ---------------------------------------------------------

SPACE = " \t"

# One unsigned component, nat('/'nat)?'i'? or 'i', as three groups: the
# numerator's digits, the denominator's (None without a '/') and the 'i'.
# The full scalar, as one group holding it with the spaces around it, then
# the sign, the first component, the operator and the second component.
# Every part may be empty, so a match always succeeds, and _atom and
# _scalar read the value, or the error and its position, from the groups.
ATOM = r"([0-9]*)(?:/([0-9]*))?(i?)"
SCALAR = (r"([ \t]*([+-]?)[ \t]*" + ATOM + r"[ \t]*(?:([+-])[ \t]*" + ATOM
          + r")?[ \t]*)")
_SCALAR = re.compile(SCALAR)


def _nat(digits: str, m: re.Match, g: int) -> int:
    """The value of ``digits``, the ASCII digits of group ``g`` of ``m``."""
    try:
        return int(digits)
    except ValueError:  # none, or more than the interpreter's limit
        message = (f"{len(digits)} digits exceed the interpreter's limit on "
                   f"integer conversion" if digits else "expected digits")
        raise ParseError(message, m.start(g)) from None


def _atom(m: re.Match, groups: tuple, g: int) -> tuple[int, int, int]:
    """The component of an ``ATOM`` whose first group is ``g`` of ``m``
    (``groups`` is ``m.groups()``), as the integer form (re, im, den) with
    den > 0, not reduced."""
    num, den, imag = groups[g - 1 : g + 2]
    if not num and imag and den is None:
        return 0, 1, 1
    try:
        n = int(num)
        d = 1 if den is None else int(den)
    except ValueError:  # no digits, or more than the interpreter's limit
        n = _nat(num, m, g)
        d = _nat(den, m, g + 1)  # raises if the numerator did not
    if d == 0:
        raise ParseError("zero denominator", m.end(g + 1) - 1)
    return (0, n, d) if imag else (n, 0, d)


def _scalar(m: re.Match, groups: tuple, g: int, end: int) -> tuple[int, int, int]:
    """The scalar of a ``SCALAR`` whose first group is ``g`` of ``m`` and
    which must end at ``end``, as the integer form (re, im, den)."""
    a, b, d = _atom(m, groups, g + 2)
    if groups[g] == "-":
        a, b = -a, -b
    op = groups[g + 4]
    if op is None:
        if m.end(g) != end:
            raise ParseError("unexpected character in scalar", m.end(g))
        return a, b, d
    if groups[g + 3]:  # the first component carries an 'i'
        raise ParseError("imaginary part must come last", m.start(g + 5))
    _, b2, d2 = _atom(m, groups, g + 6)
    if not b2:
        raise ParseError("second component must be imaginary",
                         m.end(g + 8) - 1)
    if m.end(g) != end:
        raise ParseError("trailing characters after scalar", m.end(g))
    return a * d2, (-b2 if op == "-" else b2) * d, d * d2


def _skip_space(text: str, i: int) -> int:
    while i < len(text) and text[i] in SPACE:
        i += 1
    return i


def parse_scalar(text: str) -> Scalar:
    """Parse the full scalar grammar; the whole string must be consumed.
    Whitespace is allowed around components but not inside them."""
    m = _SCALAR.match(text)
    return _reduced(*_scalar(m, m.groups(), 1, len(text)))


@contextmanager
def _any_integer_length():
    """Exact numbers may have any number of digits: lift Python's limit on
    int-string conversion (3.10.7 on; 0 is no limit) for the block, and
    restore the caller's limit after it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def format_scalar(x: Scalar) -> str:
    return _format_scalar(x._a, x._b, x._d)


def _ratio(n: int, d: int) -> str:
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _format_scalar(a: int, b: int, d: int) -> str:
    """The text of (a + b*i)/d, d > 0, of any number of digits."""
    try:
        if b == 0:
            return _ratio(a, d)
        im = "i" if b == d else "-i" if b == -d else f"{_ratio(b, d)}i"
        if a == 0:
            return im
        return f"{_ratio(a, d)}{'+' if b > 0 else ''}{im}"
    except ValueError:  # past the int-string limit: format it all the same
        with _any_integer_length():
            return _format_scalar(a, b, d)
