"""Sparse exact polynomials over the Gaussian rationals.

:class:`BiPoly` is the one polynomial type: a polynomial in s and t (the
L0 and W0 weight variables), stored as ``{(s_exp, t_exp): Scalar}``.  A
polynomial in t alone, such as a generating polynomial, a twist factor or
a window's a_m, is a BiPoly with no s terms.

BiPoly and :class:`virab.algebra.AlgElement` over basis symbols share the
:class:`Terms` core for construction, equality, addition, subtraction
(adding the negation), negation, scaling and linear combination, and add
only what depends on their keys.
Zero coefficients are never stored, so equality is plain dict equality.
Instances are immutable by convention: every operation returns a fresh
object and nothing ever mutates ``terms`` after construction.  The degree
of the zero polynomial is the sentinel ``NEG_INF``.

The kernels add up Gaussian-integer numerators over one common
denominator (FLINT's ``fmpq_poly`` form), from each value's cached integer
form (D, [(key, re, im)]) into an accumulator (D, {key: [re, im]}).  The
cores :meth:`BiPoly._product_sum` (the one product loop) and
:meth:`BiPoly._shifted` (the one binomial shift loop) take no gcd, and
:mod:`virab.orbit` works on their results.  Their wrappers
:meth:`BiPoly.sum_of_products` (``*`` is its one-pair call) and
:meth:`BiPoly.shift_s`, and :meth:`Terms.combine`, reduce each output
coefficient once.

:class:`Index`, a symbolic integer index held as a BiPoly in the index
variables, is the one value that :mod:`virab.repmod` and
:mod:`virab.algebra` run their index formulas at to decide at all indices.

The canonical text form ("2*s^2*t - 1/2", graded-lex with s before t,
descending) lives in :func:`format_bipoly`, which shares the one term
writer :func:`format_terms` with :func:`virab.algebra.format_element`.
Parsers are in :mod:`virab.grammar`.

The benchmark in ``bench/`` still binds a few names of the retired
t-polynomial type: :class:`UniPoly` (``monomial`` and ``__mul__``),
:meth:`BiPoly.embed` and :func:`format_unipoly`.  They are kept, and no
code here calls them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm
from typing import Callable, Iterable, Mapping, TypeVar

from .scalars import MINUS_ONE, ONE, ZERO, Scalar, _format_scalar, _reduced

NEG_INF = float("-inf")
INDEX_BITS = 12  # see BiPoly.index_var
_S_MASK = (1 << INDEX_BITS) - 1

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

    @staticmethod
    def _settled(d: int, acc: dict) -> tuple[int, list]:
        """The integer form of an accumulator, zeros dropped; no gcd."""
        return d, [(k, r, m) for k, (r, m) in acc.items() if r or m]

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
            d, n0 = self._numerators()
            acc = {k: [a, b] for k, a, b in n0}
        add = acc.setdefault
        for t, c in pairs:
            if type(t) is not cls:
                raise TypeError(f"cannot combine {type(t).__name__} "
                                f"into {cls.__name__}")
            if not (c and t.terms):
                continue
            dt, nt = t._numerators()
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
    def index_var(cls, k: int) -> BiPoly:
        """Index variable k >= 1 (:class:`Index`): its
        exponent e, which may be negative, adds e * 2^(INDEX_BITS * k) to
        a key's s exponent.  Products and d/dt need nothing more, and only
        :meth:`shift_s` reads the power of s apart."""
        return cls._raw({(1 << (INDEX_BITS * k), 0): ONE})

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
    def sum_of_products(plus: Iterable[tuple[BiPoly | Scalar, BiPoly]],
                        minus: Iterable[tuple[BiPoly | Scalar, BiPoly]] = ()
                        ) -> BiPoly:
        """The sum of a*b over the (a, b) in ``plus`` minus the sum of a*b
        over the (a, b) in ``minus``, by :meth:`_product_sum`.  A first
        factor a Scalar c makes the scaled term c*b, read as the integer
        form of ``BiPoly.const(c)`` without building it."""
        work = []
        for pairs, sign in ((plus, 1), (minus, -1)):
            for a, b in pairs:
                if type(a) is Scalar:
                    if a and b.terms:
                        work.append((sign, (a._d, [((0, 0), a._a, a._b)]),
                                     b._numerators()))
                elif a.terms and b.terms:
                    work.append((sign, a._numerators(), b._numerators()))
        return BiPoly._from_numerators(*BiPoly._product_sum(work))

    @staticmethod
    def _product_sum(work: list[tuple]) -> tuple[int, dict]:
        """The accumulator of the sum of sign * a * b over the (sign, a, b)
        in ``work``, a and b integer forms; it may hold zeros."""
        d, acc = 1, {}
        add = acc.setdefault
        for sign, (da, na), (db, nb) in work:
            e = da * db
            if d % e:  # a new common denominator: rescale what is summed
                f = lcm(d, e) // d
                for x in acc.values():
                    x[0] *= f
                    x[1] *= f
                d *= f
            f = sign * (d // e)
            for (i1, j1), a1, b1 in na:
                a1, b1 = a1 * f, b1 * f
                for (i2, j2), a2, b2 in nb:
                    x = add((i1 + i2, j1 + j2), [0, 0])
                    x[0] += a1 * a2 - b1 * b2
                    x[1] += a1 * b2 + b1 * a2
        return d, acc

    def partial_t(self) -> BiPoly:
        return BiPoly._raw(
            {(i, j - 1): c.mul_int(j) for (i, j), c in self.terms.items() if j}
        )

    def shift_s(self, c: Scalar | BiPoly) -> BiPoly:
        """Substitute s -> s - c (:meth:`_shifted`), or by Horner's rule for
        a c in the index variables (:meth:`index_var`); self if no s term."""
        if not c or not self.terms:
            return self
        if type(c) is BiPoly:
            return self._shift_by_index(c)
        if not max(self.terms)[0]:
            return self
        return BiPoly._from_numerators(*self._shifted(c))

    def _shifted(self, c: Scalar) -> tuple[int, dict]:
        """The accumulator of self(s - c, t) (a copy of self's own when c is
        0 or self has no s term), by the binomial expansion over
        D * cd^max_i (D self's denominator, cd c's, max_i = deg_s)."""
        max_i = max(self.terms)[0] if c and self.terms else 0
        d, nums = self._numerators()
        if not max_i:
            return d, {k: [a, b] for k, a, b in nums}
        ca, cb, cd = -c._a, -c._b, c._d  # -c = (ca + cb*i)/cd
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
        return d * cd ** max_i, acc

    def _shift_by_index(self, c: BiPoly) -> BiPoly:
        powers: dict[int, dict] = {}  # power of s -> its coefficient
        for (i, j), v in self.terms.items():
            powers.setdefault(i & _S_MASK, {})[i & ~_S_MASK, j] = v
        top = max(powers)
        out, step = BiPoly._raw(powers[top]), BiPoly.s_var() - c
        for e in range(top - 1, -1, -1):
            out = BiPoly.sum_of_products(
                ((out, step), (ONE, BiPoly._raw(powers.get(e, {})))))
        return out

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


class Undecided(ValueError):
    """A test on an :class:`Index` that its zero pattern does not decide."""


class Index:
    """A symbolic integer index on one zero pattern of a few affine forms:
    a polynomial in the index variables (:meth:`BiPoly.index_var`) m, n
    and k (1, 2, 3).

    It adds, subtracts and multiplies as an int does, and ``1 ** k`` is 1
    (:func:`virab.repmod._symbols_vanish` decides at lambda = 1).  A zero
    test is answered only where the pattern decides it: zero when the
    polynomial is, nonzero when it is one term whose variables are all
    among the pattern's ``nonzero`` forms or a multiple of a ``nonzero``
    form.  Any other test or power raises Undecided or TypeError: code run
    at an Index computes its value at every index tuple of the pattern, or
    refuses."""

    __slots__ = ("poly", "nonzero")

    def __init__(self, poly: BiPoly, nonzero: tuple[BiPoly, ...]):
        self.poly, self.nonzero = poly, nonzero

    def _of(self, poly: BiPoly) -> Index:
        return Index(poly, self.nonzero)

    def __add__(self, k) -> Index:
        return self._of(self.poly + _index_poly(k))

    __radd__ = __add__

    def __sub__(self, k) -> Index:
        return self._of(self.poly - _index_poly(k))

    def __mul__(self, k) -> Index:
        return self._of(self.poly * _index_poly(k))

    __rmul__ = __mul__

    def __neg__(self) -> Index:
        return self._of(-self.poly)

    def __rpow__(self, lam: Scalar) -> Scalar:
        if lam != ONE:
            raise Undecided("a power of lambda != 1 at a symbolic index")
        return ONE

    def __eq__(self, k) -> bool:
        if isinstance(k, Index) and k.poly == self.poly:
            return True
        d = self.poly - _index_poly(k)
        if not d:
            return True
        if len(d.terms) == 1:
            (key, _), = d.terms
            if all(BiPoly.index_var(v) in self.nonzero
                   for v in _index_vars(key)):
                return False
        for u in self.nonzero:
            key, c = next(iter(u.terms.items()))
            if d == u.scale(d.coeff(*key) / c):
                return False
        raise Undecided("a zero test that the index pattern does not decide")

    def __bool__(self) -> bool:
        return self != 0

    def __hash__(self) -> int:  # equal Indexes have equal polynomials
        return hash(frozenset(self.poly.terms.items()))


def zero_patterns(variables: tuple[int, ...], forms: list[BiPoly]) -> tuple:
    """Every zero pattern of the affine ``forms`` in the index variables
    numbered ``variables``, in groups that may share caches.  A pattern
    sets a set Z of the forms to zero, solved one form at a time for its
    first variable with coefficient +-1, an integer form without one
    divided by its content first (still none: ValueError), and is (values,
    nonzero): the variables' values and the other forms there, each once
    and scaled to lead with 1.  Z is skipped where it has no integer
    solution or makes another form zero, so every integer tuple lies on
    exactly one pattern.  Patterns whose nonzero forms are exactly their
    free variables share one group; every other pattern is its own."""
    xs = [BiPoly.index_var(v) for v in variables]
    keys, n = [next(iter(x.terms)) for x in xs], len(xs)
    groups: dict = {}
    for zero in sorted(product((1, 0), repeat=len(forms)), key=sum):
        ps = xs + forms  # the variables' values, then the forms
        for z in (z for z, on in enumerate(zero) if on):
            g = ps[n + z]
            cs = [g.coeff(*k) for k in keys]
            if not (ONE in cs or MINUS_ONE in cs) and all(
                    c._d == 1 and not c._b for c in cs) and (
                    e := gcd(*(c._a for c in cs))):  # divide by the content
                if (c0 := g.coeff(0, 0))._b or c0._d != 1 or c0._a % e:
                    ps = None  # no integer point
                    break
                g = g.scale(Scalar.rational(1, e))
            units = [k for k in keys if g.coeff(*k) in (ONE, MINUS_ONE)]
            if units:  # x_k -> x_k - c*g, c = +-1 its coefficient in g
                k = units[0]
                ps = [p - g.scale(p.coeff(*k) * g.coeff(*k)) for p in ps]
            elif g.terms.keys() - {(0, 0)}:
                raise ValueError(f"no unit pivot in the form {g!r}")
        if ps is None or any(bool(g) == on for g, on in zip(ps[n:], zero)):
            continue  # no integer solution, or another form made zero
        nonzero = []
        for g in ps[n:]:
            lead = next((g.coeff(*k) for k in keys if g.coeff(*k)), None)
            if lead and (g := g.scale(lead.inv())) not in nonzero:
                nonzero.append(g)
        free = [x for x in xs if x in ps[:n]]
        shares = len(free) == len(nonzero) and all(x in nonzero for x in free)
        groups.setdefault(None if shares else zero, []).append(
            (tuple(ps[:n]), tuple(nonzero)))
    return tuple(map(tuple, groups.values()))


def _index_vars(key: int) -> list[int]:
    """The index variables with a nonzero exponent in the s exponent
    ``key`` (0 standing for s itself), read as signed base-2^INDEX_BITS
    digits (:meth:`BiPoly.index_var`)."""
    out, v, half = [], 0, 1 << INDEX_BITS - 1
    while key:
        e = ((key + half) & _S_MASK) - half
        if e:
            out.append(v)
        key, v = (key - e) >> INDEX_BITS, v + 1
    return out


def _index_poly(k: int | Scalar | Index) -> BiPoly:
    """An int, a Scalar or an Index as a polynomial in the index variables."""
    if isinstance(k, Index):
        return k.poly
    if type(k) is int:
        k = Scalar.from_int(k)
    if not isinstance(k, Scalar):
        raise TypeError(f"not an index: {k!r}")
    return BiPoly.const(k)


# --- canonical text form ------------------------------------------------

def format_terms(terms: Mapping, keys: Iterable, monomial: Callable) -> str:
    """The one term writer: ``terms`` at ``keys`` in order, joined by ' + '
    and ' - ', key k's monomial ``monomial(k)``, each coefficient read from
    its (a, b, d).  The minus of a pure-real or pure-imaginary negative goes
    to the sign, a coefficient 1 before a monomial is left out, and a mixed
    one is parenthesized."""
    out = []
    for k in keys:
        c, monom = terms[k], monomial(k)
        a, b, d = c._a, c._b, c._d
        if a < 0 if b == 0 else a == 0 and b < 0:
            out.append(" - ")
            a, b = -a, -b
        else:
            out.append(" + ")
        if monom and a == d and b == 0:
            out.append(monom)
            continue
        body = _format_scalar(a, b, d)
        body = f"({body})" if a and b else body
        out.append(f"{body}*{monom}" if monom else body)
    out[:1] = ["-"] if out[:1] == [" - "] else []  # the first term's sign
    return "".join(out) or "0"


@lru_cache(4096)  # a BiPoly key's monomial text, "s^2*t", built once
def _monomial(key: tuple[int, int]) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip("st", key) if e)


def format_unipoly(p: BiPoly) -> str:
    # a function of its own: bench/tracing.py would wrap an alias twice
    return format_bipoly(p)


def format_bipoly(p: BiPoly) -> str:
    # graded lex, s before t, descending
    keys = sorted(p.terms, key=lambda ij: (ij[0] + ij[1], ij[0]), reverse=True)
    return format_terms(p.terms, keys, _monomial)
