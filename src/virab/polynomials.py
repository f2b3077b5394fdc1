"""Sparse exact polynomials over the Gaussian rationals.

:class:`BiPoly` is the polynomial type every computation uses: a polynomial
in s and t (the L0 and W0 weight variables), stored as
``{(s_exp, t_exp): Scalar}``.  A polynomial in t alone, such as a
generating polynomial or a twist factor, is a BiPoly with no s terms.
:class:`UniPoly`, the same thing keyed by the t exponent alone, remains
only as the stored a_m type of :class:`virab.repmod.GenericFamily`;
:meth:`UniPoly.embed` and :meth:`BiPoly.to_unipoly_t` convert.

BiPoly, UniPoly and :class:`virab.algebra.AlgElement` over basis symbols
share the :class:`Terms` core for construction, equality, addition,
subtraction, negation, scaling and linear combination, and add only what
depends on their keys.  :meth:`BiPoly.sum_of_products` accumulates a
signed sum of products in one dict; both ``*`` operators are its one-pair
call.
Zero coefficients are never stored, so equality is plain dict equality.
Instances are immutable by convention: every operation returns a fresh
object and nothing ever mutates ``terms`` after construction.  The degree
of the zero polynomial is the sentinel ``NEG_INF``.

The canonical text form ("2*s^2*t - 1/2", graded-lex with s before t,
descending) lives in :func:`format_bipoly`; :func:`format_unipoly` prints
a UniPoly exactly as format_bipoly prints its embedding.  Parsers are in
:mod:`virab.grammar`.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping, TypeVar

from .scalars import ONE, ZERO, Scalar, format_scalar

NEG_INF = float("-inf")

_T = TypeVar("_T", bound="Terms")


class Terms:
    """A finite linear combination: ``terms`` maps keys to nonzero Scalars.

    Subclasses fix what the keys are and add the operations that depend on
    them; values of different subclasses never compare equal and cannot be
    added or subtracted.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _raw(cls: type[_T], terms: dict) -> _T:
        p = object.__new__(cls)
        p.terms = terms
        return p

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
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            if prev is None:
                out[k] = -c
            else:
                v = prev - c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return self._raw(out)

    def __neg__(self: _T) -> _T:
        return self._raw({k: -c for k, c in self.terms.items()})

    def scale(self: _T, c: Scalar) -> _T:
        if not c:
            return self._raw({})
        return self._raw({k: v * c for k, v in self.terms.items()})

    def combine(self: _T, pairs: Iterable[tuple[_T, Scalar]]) -> _T:
        """self + sum of c * t over the (t, c) pairs, merged into one dict
        (the same value as chaining ``+ t.scale(c)``, without a copy per
        pair)."""
        cls = type(self)
        out = dict(self.terms)
        for t, c in pairs:
            if type(t) is not cls:
                raise TypeError(f"cannot combine {type(t).__name__} "
                                f"into {cls.__name__}")
            if not c:
                continue
            for k, v in t.terms.items():
                w = v * c
                prev = out.get(k)
                if prev is None:
                    out[k] = w
                else:
                    w = prev + w
                    if w:
                        out[k] = w
                    else:
                        del out[k]
        return self._raw(out)


class UniPoly(Terms):
    __slots__ = ()

    @classmethod
    def monomial(cls, k: int, c: Scalar = ONE) -> UniPoly:
        if k < 0:
            raise ValueError("negative exponent")
        return cls._raw({k: c} if c else {})

    def __mul__(self, other: UniPoly) -> UniPoly:
        return BiPoly.sum_of_products(
            ((self.embed(), other.embed()),)).to_unipoly_t()

    def embed(self) -> BiPoly:
        """This polynomial viewed in (s, t), with no s dependence."""
        return BiPoly._raw({(0, k): c for k, c in self.terms.items()})

    def __str__(self) -> str:
        return format_unipoly(self)

    def __repr__(self) -> str:
        return f"UniPoly({format_unipoly(self)!r})"


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

        Every term product goes into one dict, and zeros are dropped once at
        the end: the value of multiplying out each pair and adding or
        subtracting the results, without a dict and a zero filter per step.
        A scaled term c*p is the product of p with ``BiPoly.const(c)``.
        """
        acc: dict[tuple[int, int], Scalar] = {}
        get = acc.get
        for pairs, negate in ((plus, False), (minus, True)):
            for a, b in pairs:
                bt = b.terms
                if not bt:
                    continue
                for (i1, j1), c1 in a.terms.items():
                    if negate:
                        c1 = -c1
                    for (i2, j2), c2 in bt.items():
                        k = (i1 + i2, j1 + j2)
                        prev = get(k)
                        acc[k] = c1 * c2 if prev is None else prev + c1 * c2
        return BiPoly._raw({k: c for k, c in acc.items() if c})

    def partial_t(self) -> BiPoly:
        return BiPoly._raw(
            {(i, j - 1): c.mul_int(j) for (i, j), c in self.terms.items() if j}
        )

    def shift_s(self, c: Scalar) -> BiPoly:
        """Substitute s -> s - c (exact binomial expansion)."""
        if not c or not self.terms:
            return self
        neg = -c
        max_i = max(i for i, _ in self.terms)
        pows = [ONE]
        for _ in range(max_i):
            pows.append(pows[-1] * neg)
        out: dict[tuple[int, int], Scalar] = {}
        for (i, j), coef in self.terms.items():
            for p in range(i + 1):
                w = coef * pows[i - p]
                if p < i:
                    w = w.mul_int(comb(i, p))
                key = (p, j)
                prev = out.get(key)
                out[key] = w if prev is None else prev + w
        return BiPoly._raw({k: v for k, v in out.items() if v})

    def coeff(self, i: int, j: int) -> Scalar:
        return self.terms.get((i, j), ZERO)

    def to_unipoly_t(self) -> UniPoly:
        """Reinterpret as a polynomial in t; raises if s occurs."""
        if any(i for i, _ in self.terms):
            raise ValueError("polynomial depends on s")
        return UniPoly._raw({j: c for (_, j), c in self.terms.items()})

    def __str__(self) -> str:
        return format_bipoly(self)

    def __repr__(self) -> str:
        return f"BiPoly({format_bipoly(self)!r})"


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


def format_unipoly(p: UniPoly) -> str:
    keys = sorted(p.terms, reverse=True)
    return _join_terms(
        [_term_text(p.terms[k], _monomial_text([("t", k)])) for k in keys]
    )


def format_bipoly(p: BiPoly) -> str:
    # graded lex, s before t, descending
    keys = sorted(p.terms, key=lambda ij: (ij[0] + ij[1], ij[0]), reverse=True)
    return _join_terms(
        [
            _term_text(p.terms[(i, j)], _monomial_text([("s", i), ("t", j)]))
            for i, j in keys
        ]
    )
