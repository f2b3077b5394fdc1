"""Sparse exact polynomials over the Gaussian rationals.

:class:`BiPoly` is the one polynomial type: a polynomial in s and t (the
L0 and W0 weight variables), stored as ``{(s_exp, t_exp): Scalar}``.  A
polynomial in t alone, such as a generating polynomial, a twist factor or
a window's a_m, is a BiPoly with no s terms.

BiPoly and :class:`virab.algebra.AlgElement` over basis symbols share the
:class:`Terms` core for construction, equality, addition, subtraction
(adding the negation), negation, scaling and linear combination, and add
only what depends on their keys.
:meth:`BiPoly.sum_of_products` accumulates a signed sum of products in one
dict; ``*`` is its one-pair call.
Zero coefficients are never stored, so equality is plain dict equality.
Instances are immutable by convention: every operation returns a fresh
object and nothing ever mutates ``terms`` after construction.  The degree
of the zero polynomial is the sentinel ``NEG_INF``.

The kernels :meth:`BiPoly.sum_of_products`, :meth:`BiPoly.shift_s` and
:meth:`Terms.combine` add up Gaussian-integer numerators over one common
denominator (FLINT's ``fmpq_poly`` form) and reduce each output coefficient
once.  Each instance caches its integer form on first use.  The cache is
sound because ``terms`` is never mutated, and it is not the value: ``terms``
alone decides equality, formatting and every other reader.

The canonical text form ("2*s^2*t - 1/2", graded-lex with s before t,
descending) lives in :func:`format_bipoly`.  Parsers are in
:mod:`virab.grammar`.

The benchmark in ``bench/`` still binds a few names of the retired
t-polynomial type: :class:`UniPoly` (``monomial`` and ``__mul__``),
:meth:`BiPoly.embed` and :func:`format_unipoly`.  They are kept, and no
code here calls them.
"""

from __future__ import annotations

from math import comb, lcm
from typing import Iterable, Mapping, TypeVar

from .scalars import ONE, ZERO, Scalar, _reduced, format_scalar

NEG_INF = float("-inf")

_T = TypeVar("_T", bound="Terms")


class Terms:
    """A finite linear combination: ``terms`` maps keys to nonzero Scalars.

    Subclasses fix what the keys are and add the operations that depend on
    them; values of different subclasses never compare equal and cannot be
    added or subtracted.

    Two rules keep the integer-form cache of :meth:`_numerators` sound:
    ``terms`` is never mutated after construction, so the cache is never
    invalidated; and the cache is not the value, so only the kernels read
    it.
    """

    __slots__ = ("terms", "_num")

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {k: c for k, c in terms.items() if c} if terms else {}
        self._num = None

    @classmethod
    def _raw(cls: type[_T], terms: dict) -> _T:
        p = object.__new__(cls)
        p.terms = terms
        p._num = None
        return p

    def _numerators(self) -> tuple[int, list[tuple[object, int, int]]]:
        """The integer form ``(D, [(key, re, im)])``: D is the lcm of the
        coefficients' denominators and each coefficient is (re + im*i)/D."""
        num = self._num
        if num is None:
            d = 1
            for c in self.terms.values():
                if d % c._d:
                    d = lcm(d, c._d)
            nums = []
            for k, c in self.terms.items():
                f = d // c._d
                nums.append((k, c._a * f, c._b * f))
            num = self._num = (d, nums)
        return num

    @classmethod
    def _from_numerators(cls: type[_T], d: int, acc: dict) -> _T:
        """The value with coefficient (re + im*i)/d at each key k of ``acc``,
        where acc[k] == [re, im], dropping zeros; one gcd each."""
        out = {}
        for k, (r, m) in acc.items():
            if r or m:
                out[k] = _reduced(r, m, d)
        return cls._raw(out)

    @classmethod
    def zero(cls: type[_T]) -> _T:
        return cls._raw({})

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self: _T, other: _T) -> _T:
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                v = prev + c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return self._raw(out)

    def __sub__(self: _T, other: _T) -> _T:
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self: _T) -> _T:
        return self._raw({k: -c for k, c in self.terms.items()})

    def scale(self: _T, c: Scalar) -> _T:
        if not c:
            return self._raw({})
        return self._raw({k: v * c for k, v in self.terms.items()})

    def combine(self: _T, pairs: Iterable[tuple[_T, Scalar]]) -> _T:
        """self + sum of c * t over the (t, c) pairs, added up as numerators
        over one common denominator (the same value as chaining
        ``+ t.scale(c)``, without a copy or a gcd per pair)."""
        cls = type(self)
        d, acc = 1, {}
        if self.terms:
            d, n0 = self._num or self._numerators()
            acc = {k: [a, b] for k, a, b in n0}
        add = acc.setdefault
        for t, c in pairs:
            if type(t) is not cls:
                raise TypeError(f"cannot combine {type(t).__name__} "
                                f"into {cls.__name__}")
            if not (c and t.terms):
                continue
            dt, nt = t._num or t._numerators()
            e = dt * c._d
            if d % e:  # a new common denominator: rescale what is summed
                f = lcm(d, e) // d
                for x in acc.values():
                    x[0] *= f
                    x[1] *= f
                d *= f
            f = d // e
            ca, cb = c._a * f, c._b * f
            for k, a, b in nt:
                x = add(k, [0, 0])
                x[0] += a * ca - b * cb
                x[1] += a * cb + b * ca
        return self._from_numerators(d, acc)


class BiPoly(Terms):
    __slots__ = ()

    @classmethod
    def const(cls, c: Scalar) -> BiPoly:
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def one(cls) -> BiPoly:
        return cls._raw({(0, 0): ONE})

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar = ONE) -> BiPoly:
        if i < 0 or j < 0:
            raise ValueError("negative exponent")
        return cls._raw({(i, j): c} if c else {})

    @classmethod
    def s_var(cls) -> BiPoly:
        return cls._raw({(1, 0): ONE})

    @classmethod
    def t_var(cls) -> BiPoly:
        return cls._raw({(0, 1): ONE})

    @property
    def deg_s(self) -> int | float:
        return max(i for i, _ in self.terms) if self.terms else NEG_INF

    @property
    def deg_t(self) -> int | float:
        return max(j for _, j in self.terms) if self.terms else NEG_INF

    @property
    def total_degree(self) -> int | float:
        return max(i + j for i, j in self.terms) if self.terms else NEG_INF

    def __mul__(self, other: BiPoly) -> BiPoly:
        return BiPoly.sum_of_products(((self, other),))

    @staticmethod
    def sum_of_products(plus: Iterable[tuple[BiPoly, BiPoly]],
                        minus: Iterable[tuple[BiPoly, BiPoly]] = ()) -> BiPoly:
        """The sum of a*b over the (a, b) in ``plus`` minus the sum of a*b
        over the (a, b) in ``minus``.

        Every term product goes into one dict, as numerators over the lcm
        of the pairs' denominators; each output coefficient is reduced and
        zeros are dropped once at the end: the value of multiplying out each
        pair and adding or subtracting the results, without a gcd per step.
        A scaled term c*p is the product of p with ``BiPoly.const(c)``.
        """
        work = []
        d = 1
        for pairs, sign in ((plus, 1), (minus, -1)):
            for a, b in pairs:
                if a.terms and b.terms:
                    da, na = a._num or a._numerators()
                    db, nb = b._num or b._numerators()
                    e = da * db
                    if d % e:
                        d = lcm(d, e)
                    work.append((e, sign, na, nb))
        acc: dict[tuple[int, int], list[int]] = {}
        add = acc.setdefault
        for e, sign, na, nb in work:
            f = sign * (d // e)
            for (i1, j1), a1, b1 in na:
                a1, b1 = a1 * f, b1 * f
                for (i2, j2), a2, b2 in nb:
                    x = add((i1 + i2, j1 + j2), [0, 0])
                    x[0] += a1 * a2 - b1 * b2
                    x[1] += a1 * b2 + b1 * a2
        return BiPoly._from_numerators(d, acc)

    def partial_t(self) -> BiPoly:
        return BiPoly._raw(
            {(i, j - 1): c.mul_int(j) for (i, j), c in self.terms.items() if j}
        )

    def shift_s(self, c: Scalar) -> BiPoly:
        """Substitute s -> s - c (exact binomial expansion), on numerators
        over D * cd^max_i (D self's denominator, cd c's, max_i = deg_s)."""
        if not c or not self.terms:
            return self
        d, nums = self._num or self._numerators()
        ca, cb, cd = -c._a, -c._b, c._d  # -c = (ca + cb*i)/cd
        max_i = max(self.terms)[0]
        # (-c)^k = pows[k] / cd^max_i, pows[k] = (ca + cb*i)^k * cd^(max_i - k)
        pows = [(1, 0)]
        for _ in range(max_i):
            pr, pi = pows[-1]
            pows.append((pr * ca - pi * cb, pr * cb + pi * ca))
        if cd != 1:
            pows = [(pr * cd ** (max_i - k), pi * cd ** (max_i - k))
                    for k, (pr, pi) in enumerate(pows)]
        acc: dict[tuple[int, int], list[int]] = {}
        add = acc.setdefault
        for (i, j), a, b in nums:
            for p in range(i + 1):
                pr, pi = pows[i - p]
                n = comb(i, p)
                x = add((p, j), [0, 0])
                x[0] += (a * pr - b * pi) * n
                x[1] += (a * pi + b * pr) * n
        return BiPoly._from_numerators(d * cd ** max_i, acc)

    def coeff(self, i: int, j: int) -> Scalar:
        return self.terms.get((i, j), ZERO)

    def embed(self) -> BiPoly:
        """This polynomial itself: a name bench/ binds."""
        return self

    def __str__(self) -> str:
        return format_bipoly(self)

    def __repr__(self) -> str:
        return f"BiPoly({format_bipoly(self)!r})"


class UniPoly:
    """The names bench/ binds of the retired t-polynomial type; no value
    has this type."""

    @staticmethod
    def monomial(k: int, c: Scalar = ONE) -> BiPoly:
        """The BiPoly c * t^k."""
        return BiPoly.monomial(0, k, c)

    def __mul__(self, other):
        # its own function, so that bench/tracing.py wraps and restores it
        return NotImplemented


def divided_difference(k: int, alpha: Scalar) -> BiPoly:
    """The exact quotient (t^k - alpha^k) / (t - alpha).

    Equals sum_{j=0}^{k-1} alpha^j * t^(k-1-j); zero when k == 0.
    """
    if k < 0:
        raise ValueError("negative exponent")
    out: dict[tuple[int, int], Scalar] = {}
    p = ONE
    for j in range(k):
        if p:
            out[0, k - 1 - j] = p
        p = p * alpha
    return BiPoly._raw(out)


# --- canonical text form ------------------------------------------------

def _monomial_text(parts: list[tuple[str, int]]) -> str:
    bits = []
    for name, e in parts:
        if e == 0:
            continue
        bits.append(name if e == 1 else f"{name}^{e}")
    return "*".join(bits)


def _term_text(c: Scalar, monom: str) -> tuple[str, str]:
    """Split a term into (sign, body) for joining with ' + ' / ' - '."""
    sign = "+"
    if c.is_negative_like:
        sign = "-"
        c = -c
    if not monom:
        body = f"({format_scalar(c)})" if c.is_mixed else format_scalar(c)
    elif c == ONE:
        body = monom
    else:
        cs = format_scalar(c)
        body = f"({cs})*{monom}" if c.is_mixed else f"{cs}*{monom}"
    return sign, body


def _join_terms(terms: list[tuple[str, str]]) -> str:
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = [first_body if first_sign == "+" else f"-{first_body}"]
    for sign, body in terms[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


def format_unipoly(p: BiPoly) -> str:
    # a function of its own: bench/tracing.py would wrap an alias twice
    return format_bipoly(p)


def format_bipoly(p: BiPoly) -> str:
    # graded lex, s before t, descending
    keys = sorted(p.terms, key=lambda ij: (ij[0] + ij[1], ij[0]), reverse=True)
    return _join_terms(
        [
            _term_text(p.terms[(i, j)], _monomial_text([("s", i), ("t", j)]))
            for i, j in keys
        ]
    )
