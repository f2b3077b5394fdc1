"""Exact arithmetic in the Gaussian rationals Q(i).

Every coefficient in this package is a :class:`Scalar`: the complex number
(a + b*i)/d held exactly with integers a, b and d > 0, reduced so that
gcd(a, b, d) == 1.  Every denominator arises positive (a product or lcm of
denominators, or a^2 + b^2 in ``inv``), so the sign lives in a and b.
Values are immutable and hashable, equality is structural on the
canonical form, and there is no floating point anywhere.

Text form (used in JSON documents, CLI arguments and reports):

    scalar := real | imag | real ('+'|'-') imagAbs
    real   := sign? nat ('/' nat)?
    imag   := sign? (nat ('/' nat)?)? 'i'
    nat    := [0-9]+

Examples: ``2``, ``-1/2``, ``i``, ``2i``, ``-1/2i`` (meaning -(1/2)i),
``3/4-2i``.  Fractions are reduced with a positive denominator, so
parse and format are mutually inverse on canonical strings.  Whitespace,
here and in every text form of the package, is :data:`SPACE`: the ASCII
space and tab, nothing else.
"""

from __future__ import annotations

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

    @property
    def is_mixed(self) -> bool:
        """True when both the real and imaginary parts are nonzero."""
        return self._a != 0 and self._b != 0

    @property
    def is_negative_like(self) -> bool:
        """True for pure-real negatives and pure-imaginary negatives.

        Used by the formatters to pull a leading minus out of a term;
        mixed scalars are never split this way.
        """
        if self._b == 0:
            return self._a < 0
        if self._a == 0:
            return self._b < 0
        return False

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

def _scan_nat(text: str, i: int) -> tuple[int, int]:
    j = i
    n = len(text)
    while j < n and "0" <= text[j] <= "9":
        j += 1
    if j == i:
        raise ParseError("expected digits", i)
    try:
        return int(text[i:j]), j
    except ValueError:  # more digits than the interpreter's limit
        raise ParseError(f"{j - i} digits exceed the interpreter's limit on "
                         f"integer conversion", i) from None


def scan_scalar_atom(text: str, i: int) -> tuple[Scalar, int]:
    """Scan one unsigned scalar component at ``i``: nat('/'nat)?'i'? or 'i'.

    Returns the value and the index just past it.  Signs and the composite
    real+imag form are handled by the callers.
    """
    n = len(text)
    if i < n and text[i] == "i":
        return I, i + 1
    num, j = _scan_nat(text, i)
    den = 1
    if j < n and text[j] == "/":
        den, j = _scan_nat(text, j + 1)
        if den == 0:
            raise ParseError("zero denominator", j - 1)
    if j < n and text[j] == "i":
        return _reduced(0, num, den), j + 1
    return _reduced(num, 0, den), j


SPACE = " \t"


def _skip_space(text: str, i: int) -> int:
    while i < len(text) and text[i] in SPACE:
        i += 1
    return i


def parse_scalar(text: str) -> Scalar:
    """Parse the full scalar grammar; the whole string must be consumed.
    Whitespace is allowed around components but not inside them."""
    n = len(text)
    i = _skip_space(text, 0)
    sign = 1
    if i < n and text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        i = _skip_space(text, i + 1)
    first, i = scan_scalar_atom(text, i)
    if sign < 0:
        first = -first
    i = _skip_space(text, i)
    if i == n:
        return first
    if text[i] not in "+-":
        raise ParseError("unexpected character in scalar", i)
    if first._b != 0:
        raise ParseError("imaginary part must come last", i)
    sign2 = -1 if text[i] == "-" else 1
    i = _skip_space(text, i + 1)
    second, i = scan_scalar_atom(text, i)
    if second._b == 0:
        raise ParseError("second component must be imaginary", i - 1)
    i = _skip_space(text, i)
    if i != n:
        raise ParseError("trailing characters after scalar", i)
    return first + (-second if sign2 < 0 else second)


def _imag_str(x: Fraction) -> str:
    if x == 1:
        return "i"
    if x == -1:
        return "-i"
    return f"{x}i"


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
    try:
        return _format_scalar(x)
    except ValueError:  # past the int-string limit: format it all the same
        with _any_integer_length():
            return _format_scalar(x)


def _format_scalar(x: Scalar) -> str:
    a, b, d = x._a, x._b, x._d
    if b == 0:
        return str(Fraction(a, d))
    im = _imag_str(Fraction(b, d))
    if a == 0:
        return im
    return f"{Fraction(a, d)}{'+' if b > 0 else ''}{im}"
