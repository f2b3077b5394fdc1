"""The Lie algebras W(a,b) and their central extensions Vir(a,b).

W(a,b) has basis {L_n, W_n : n in Z} with

    [L_m, L_n] = (n - m) L_{m+n}
    [L_m, W_n] = (a + n + b*m) W_{m+n}
    [W_m, W_n] = 0.

Four parameter points, vir00 (0, 0), vir0m1 (0, -1), vir120 (1/2, 0) and
vir01 (0, 1), admit extra central directions beyond the Virasoro cocycle
on the L side; every other point is vir-gen, and w drops the extension.
:func:`classify_case` maps (a, b) to its case.  Central generators are
written C_1, C_2, ...; :data:`COCYCLES` holds each case's central terms,
one row per cocycle, and :data:`CENTRAL_INDICES` is read off it.

All brackets are exact.  :func:`verify_algebra` decides antisymmetry and
the Jacobi identity at symbolic indices (:class:`virab.polynomials.Index`):
once per kind pair and per cyclic class of kind triples, on each zero
pattern of the index sum against the case's planes.  The case's table is
W(a,b)'s plus central terms, and [x, C_i] = 0, so J(x, y, z) does not
change when its inner bracket is read from W(a,b); the only zero test
left is then the plane test of the outer bracket.  A table that passes
holds at every index.  One that fails there, or refuses a symbolic index,
is swept over a finite window instead, and the Report lists each failing
pair and triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import chain
from time import perf_counter
from typing import NamedTuple

from .polynomials import (
    BiPoly,
    Index,
    Terms,
    _index_poly,
    format_terms,
    zero_patterns,
)
from .report import Report
from .scalars import MINUS_ONE, ONE, ZERO, HALF, Scalar, format_scalar


class Case(str, Enum):
    W_ONLY = "w"
    VIR_00 = "vir00"
    VIR_0_MINUS_1 = "vir0m1"
    VIR_HALF_0 = "vir120"
    VIR_GENERIC = "vir-gen"
    VIR_01 = "vir01"


_TWELFTH = Scalar.rational(1, 12)


def _cubic(n: int) -> Scalar:
    return (n * n * n - n) * _TWELFTH


# The central terms of each case, one row per cocycle: (pair kind, central
# index i, plane c, coefficient f).  [X_n, Y_m] gains f(n) * C_i when
# m + n = c, n being the first index; a zero f(n) adds no term.  Every
# extension carries the Virasoro row on [L, L].  Each f is written in
# int-like arithmetic, so that it reads the same at a symbolic index.
_VIRASORO = ("LL", 1, 0, _cubic)
COCYCLES: dict[Case, tuple[tuple, ...]] = {
    Case.W_ONLY: (),
    Case.VIR_00: (_VIRASORO, ("LW", 2, 0, lambda n: (n * n + n) * ONE),
                  ("WW", 3, 0, lambda n: n * ONE)),
    Case.VIR_0_MINUS_1: (_VIRASORO, ("LW", 2, 0, _cubic)),
    Case.VIR_HALF_0: (_VIRASORO, ("WW", 3, -1, lambda n: (2 * n + 1) * ONE)),
    Case.VIR_GENERIC: (_VIRASORO,),
    Case.VIR_01: (_VIRASORO, ("LW", 2, 0, lambda n: n * ONE),
                  ("LW", 4, 0, lambda n: ONE)),
}

CENTRAL_INDICES: dict[Case, tuple[int, ...]] = {
    case: tuple(sorted({row[1] for row in rows}))
    for case, rows in COCYCLES.items()
}

_SPECIAL: dict[tuple[Scalar, Scalar], Case] = {
    (ZERO, ZERO): Case.VIR_00,
    (ZERO, MINUS_ONE): Case.VIR_0_MINUS_1,
    (HALF, ZERO): Case.VIR_HALF_0,
    (ZERO, ONE): Case.VIR_01,
}


@dataclass(frozen=True)
class AlgebraParams:
    a: Scalar
    b: Scalar
    case: Case

    def __post_init__(self):
        if self.case is Case.W_ONLY:
            return
        expected = _SPECIAL.get((self.a, self.b), Case.VIR_GENERIC)
        if self.case is not expected:
            raise ValueError(
                f"case {self.case.value} does not match (a, b) = "
                f"({format_scalar(self.a)}, {format_scalar(self.b)})"
            )

    @property
    def central_indices(self) -> tuple[int, ...]:
        return CENTRAL_INDICES[self.case]


def classify_case(a: Scalar, b: Scalar, want_extension: bool = True) -> AlgebraParams:
    """Pick the bracket table for (a, b): one of the four special points,
    the generic one-cocycle case, or the extension-free algebra."""
    if not want_extension:
        return AlgebraParams(a, b, Case.W_ONLY)
    return AlgebraParams(a, b, _SPECIAL.get((a, b), Case.VIR_GENERIC))


class BasisSymbol(NamedTuple):
    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}:{self.index}"


def L(n: int) -> BasisSymbol:
    return BasisSymbol("L", n)


def W(n: int) -> BasisSymbol:
    return BasisSymbol("W", n)


def C(i: int) -> BasisSymbol:
    return BasisSymbol("C", i)


class AlgElement(Terms):
    """A finite linear combination of basis symbols."""

    __slots__ = ()

    @classmethod
    def single(cls, sym: BasisSymbol, coeff: Scalar = ONE) -> AlgElement:
        return cls._raw({sym: coeff} if coeff else {})

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"AlgElement({format_element(self)!r})"


_KIND_ORDER = {"L": 0, "W": 1, "C": 2}


def format_element(e: AlgElement) -> str:
    """Canonical text: kinds in order L, W, C, indices ascending."""
    keys = sorted(e.terms, key=lambda s: (_KIND_ORDER[s.kind], s.index))
    return format_terms(e.terms, keys, str)


_GENERATORS = ("L", "W")


def _check_symbol(sym: BasisSymbol, p: AlgebraParams) -> None:
    if sym.kind == "C":
        if sym.index not in CENTRAL_INDICES[p.case]:
            raise ValueError(
                f"central index {sym.index} is not available in case {p.case.value}"
            )
    elif sym.kind not in _GENERATORS:
        raise ValueError(f"unknown symbol kind {sym.kind!r}")


def _central(kind: str, n: int, m: int, p: AlgebraParams,
             out: dict[BasisSymbol, Scalar]) -> dict[BasisSymbol, Scalar]:
    """``out`` with the terms of the cocycle rows of ``kind`` at (n, m)."""
    for row_kind, i, plane, coeff in COCYCLES[p.case]:
        if row_kind == kind and m + n == plane:
            c = coeff(n)
            if type(c) is not Scalar or c:
                out[C(i)] = c
    return out


# Every term, a polynomial in the indices (module docstring), is evaluated
# by the same lines at ints and at symbolic indices (Index), whose
# coefficients (not Scalars) are kept: their zeros are values.


def _ll(n: int, m: int, p: AlgebraParams) -> AlgElement:
    c = (m - n) * ONE
    out = {L(m + n): c} if type(c) is not Scalar or c else {}
    return AlgElement._raw(_central("LL", n, m, p, out))


def _lw(n: int, m: int, p: AlgebraParams) -> AlgElement:
    # n is the L index, m the W index; only the central terms depend on
    # the case
    out = _central("LW", n, m, p, {})
    c = m + p.a + n * p.b
    if type(c) is not Scalar or c:
        out[W(m + n)] = c
    return AlgElement._raw(out)


def _ww(n: int, m: int, p: AlgebraParams) -> AlgElement:
    return AlgElement._raw(_central("WW", n, m, p, {}))


def bracket(x: BasisSymbol, y: BasisSymbol, p: AlgebraParams) -> AlgElement:
    """[x, y] in the chosen bracket table."""
    kx, ky = x.kind, y.kind
    if kx not in _GENERATORS or ky not in _GENERATORS:
        _check_symbol(x, p)
        _check_symbol(y, p)
        return AlgElement._raw({})  # a central symbol brackets to zero
    if kx == "L":
        if ky == "L":
            return _ll(x.index, y.index, p)
        return _lw(x.index, y.index, p)
    if ky == "L":
        return -_lw(y.index, x.index, p)
    return _ww(x.index, y.index, p)


def bracket_lin(x: AlgElement, y: AlgElement, p: AlgebraParams) -> AlgElement:
    """Bilinear extension of the bracket to arbitrary elements."""
    return AlgElement.zero().combine(
        (bracket(sx, sy, p), cx * cy)
        for sx, cx in x.terms.items() for sy, cy in y.terms.items())


def _sum_vanishes(pairs: list[tuple[AlgElement, BiPoly]]) -> bool:
    """Whether the sum of c * e over the (e, c) in ``pairs`` is zero, each
    e an element at symbolic indices and each c a polynomial in the index
    variables."""
    by_sym: dict[BasisSymbol, list[tuple[BiPoly, BiPoly]]] = {}
    for e, c in pairs:
        for sym, v in e.terms.items():
            by_sym.setdefault(sym, []).append((_index_poly(v), c))
    return not any(BiPoly.sum_of_products(ps) for ps in by_sym.values())


@cache
def _patterns(rows: tuple[tuple, ...], variables: tuple[int, ...]) -> tuple:
    """The zero patterns of the index sum minus each cocycle row's plane."""
    return tuple(chain.from_iterable(zero_patterns(variables, [
        sum(map(BiPoly.index_var, variables), _index_poly(-c))
        for c in sorted({row[2] for row in rows})])))


def _table_vanishes(p: AlgebraParams) -> bool:
    """Whether antisymmetry and Jacobi hold at every index, computed at
    symbolic indices i, j (and k) as the module docstring says.  Reading
    Jacobi's inner bracket from W(a,b) is valid only while ``_central`` is
    the one code that reads the case.  Raises Undecided, ValueError or
    TypeError where the table does not take symbolic indices."""
    w = classify_case(p.a, p.b, want_extension=False)
    one = BiPoly.one()
    for variables, kinds in (((1, 2), ("LL", "LW", "WW")),
                             ((1, 2, 3), ("LLL", "LLW", "LWW", "WWW"))):
        for values, nonzero in _patterns(COCYCLES[p.case], variables):
            idx = [Index(v, nonzero) for v in values]
            for kind in kinds:
                syms = [BasisSymbol(*s) for s in zip(kind, idx)]
                if len(syms) == 2:
                    x, y = syms
                    pairs = [(bracket(x, y, p), one), (bracket(y, x, p), one)]
                else:
                    pairs = [(bracket(x, sym, p), _index_poly(c))
                             for x, y, z in (syms, syms[1:] + syms[:1],
                                             syms[2:] + syms[:2])
                             for sym, c in bracket(y, z, w).terms.items()]
                if not _sum_vanishes(pairs):
                    return False
    return True


def verify_algebra(p: AlgebraParams, window: int = 5) -> Report:
    """Check antisymmetry on all symbol pairs and Jacobi on all symbol
    triples with generator indices in [-window, window], central symbols
    included.  Exact; any nonzero residue is reported with its witness.
    A table decided at symbolic indices (:func:`_table_vanishes`) gets the
    sweep's pass report, ``checks`` counted, and is not swept.  The sweep
    checks every pair and every ordered triple in loop order, reading
    brackets from one memo that lives for the sweep."""
    if window < 0:
        raise ValueError(f"window must be nonnegative, got {window}")
    t0 = perf_counter()
    report = Report(
        suite="verify-algebra",
        params={
            "case": p.case.value,
            "a": format_scalar(p.a),
            "b": format_scalar(p.b),
            "window": str(window),
        },
    )
    n = 4 * window + 2 + len(CENTRAL_INDICES[p.case])
    report.checks = n * (n + 1) // 2 + n ** 3
    try:
        decided = _table_vanishes(p)
    except (ValueError, TypeError):  # Undecided among them
        decided = False
    if decided:
        report.elapsed = perf_counter() - t0
        return report
    syms = [BasisSymbol("L", n) for n in range(-window, window + 1)]
    syms += [BasisSymbol("W", n) for n in range(-window, window + 1)]
    syms += [BasisSymbol("C", i) for i in CENTRAL_INDICES[p.case]]
    # looks ``bracket`` up at call time, so a wrapper installed on the
    # module sees every distinct pair
    br = cache(lambda x, y: bracket(x, y, p))

    def ad(x: BasisSymbol, e: AlgElement):
        # [x, e] as (bracket, coefficient) pairs for Terms.combine
        return ((br(x, sym), c) for sym, c in e.terms.items())

    for ix, x in enumerate(syms):
        for y in syms[ix:]:
            res = br(x, y) + br(y, x)
            if res:
                report.fail("antisymmetry", (str(x), str(y)), format_element(res))
    for x in syms:
        for y in syms:
            for z in syms:
                res = AlgElement.zero().combine(chain(
                    ad(x, br(y, z)), ad(y, br(z, x)), ad(z, br(x, y))))
                if res:
                    report.fail("jacobi", (str(x), str(y), str(z)),
                                format_element(res))
    report.elapsed = perf_counter() - t0
    return report
