"""Submodule exploration inside a truncated monomial box.

The ambient space is spanned by the monomials s^i t^j with i <= bounds[0]
and j <= bounds[1].  :class:`SubspaceBasis` keeps an exact reduced row
echelon basis of a subspace of that box; :func:`orbit_closure` grows a
seed set by repeatedly applying the in-window operators L_m and W_m,
recording the dimension after each round.  Images that leave the box are
never silently dropped: they are counted as overflow, so "stabilized with
zero overflow" is a genuine invariant-subspace statement for the box.

:func:`check_invariant_subspace` is the complementary exact test: for the
span of all in-box monomials selected by a predicate on (i, j), it applies
every in-window operator WITHOUT truncation and checks the image stays in
the selected monomial span (which is how the reducibility witnesses like
"t divides everything" are certified).
"""

from __future__ import annotations

from time import perf_counter

from .algebra import L, W
from .polynomials import BiPoly, format_bipoly
from .report import Report
from .repmod import ModuleSpec
from .scalars import ONE, ZERO, Scalar


def _box(bounds: tuple[int, int]) -> tuple[int, int]:
    ds, dt = bounds
    if ds < 0 or dt < 0:
        raise ValueError("bounds must be non-negative")
    return ds, dt


class SubspaceBasis:
    """Exact reduced-row-echelon basis over the monomial box."""

    def __init__(self, bounds: tuple[int, int]):
        ds, dt = _box(bounds)
        self.bounds = (ds, dt)
        self.ncols = (ds + 1) * (dt + 1)
        self.rows: list[list[Scalar]] = []
        self.row_of_pivot: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _col(self, i: int, j: int) -> int:
        return i * (self.bounds[1] + 1) + j

    def fits(self, f: BiPoly) -> bool:
        ds, dt = self.bounds
        return all(i <= ds and j <= dt for i, j in f.terms)

    def vectorize(self, f: BiPoly) -> list[Scalar]:
        if not self.fits(f):
            raise ValueError("polynomial exceeds the monomial box")
        vec = [ZERO] * self.ncols
        for (i, j), c in f.terms.items():
            vec[self._col(i, j)] = c
        return vec

    def to_poly(self, vec: list[Scalar]) -> BiPoly:
        dt = self.bounds[1]
        return BiPoly(
            {
                divmod(col, dt + 1): c
                for col, c in enumerate(vec)
                if c
            }
        )

    def _eliminate(self, vec: list[Scalar]) -> list[Scalar]:
        for pivot, row_idx in self.row_of_pivot.items():
            c = vec[pivot]
            if c:
                row = self.rows[row_idx]
                for col in range(pivot, self.ncols):
                    rc = row[col]
                    if rc:
                        vec[col] = vec[col] - c * rc
        return vec

    def contains(self, f: BiPoly) -> bool:
        if not self.fits(f):
            return False
        vec = self._eliminate(self.vectorize(f))
        return not any(vec)

    def insert(self, f: BiPoly) -> BiPoly | None:
        """Reduce f against the basis; if independent, add the normalized
        reduced row and return it as a polynomial, else return None."""
        vec = self._eliminate(self.vectorize(f))
        pivot = next((c for c, v in enumerate(vec) if v), None)
        if pivot is None:
            return None
        inv = vec[pivot].inv()
        vec = [v * inv if v else ZERO for v in vec]
        # keep reduced form: clear the new pivot from existing rows
        for row in self.rows:
            c = row[pivot]
            if c:
                for col in range(pivot, self.ncols):
                    vc = vec[col]
                    if vc:
                        row[col] = row[col] - c * vc
        self.row_of_pivot[pivot] = len(self.rows)
        self.rows.append(vec)
        return self.to_poly(vec)


def _operators(spec: ModuleSpec, window: int):
    if window < 0:
        raise ValueError(f"window must be nonnegative, got {window}")
    return [spec.op(sym(m)).apply
            for m in range(-window, window + 1) for sym in (L, W)]


def orbit_closure(
    spec: ModuleSpec,
    seeds: list[BiPoly],
    window: int = 3,
    bounds: tuple[int, int] = (8, 8),
    max_rounds: int = 6,
) -> Report:
    """Close the seed span under all L_m, W_m with |m| <= window, inside
    the monomial box.  The report's data block carries the dimension trace
    per round, whether the constant 1 entered the span, the overflow count,
    and whether the closure stabilized (a round produced nothing new) with
    zero overflow."""
    t0 = perf_counter()
    basis = SubspaceBasis(bounds)
    for f in seeds:
        if f.is_zero:
            raise ValueError("seeds must be nonzero")
        if not basis.fits(f):
            raise ValueError("seed exceeds the monomial box")
    frontier = [p for f in seeds if (p := basis.insert(f)) is not None]
    ops = _operators(spec, window)

    one = BiPoly.one()
    trace = [basis.dim]
    overflow = 0
    stabilized = False
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        new_frontier = []
        for f in frontier:
            for op in ops:
                img = op(f)
                if img.is_zero:
                    continue
                if not basis.fits(img):
                    overflow += 1
                    continue
                reduced = basis.insert(img)
                if reduced is not None:
                    new_frontier.append(reduced)
        trace.append(basis.dim)
        frontier = new_frontier
        if not new_frontier:
            stabilized = True
            break

    report = Report(
        suite="orbit",
        params={
            **{k: str(v) for k, v in spec.to_dict().items()},
            "seeds": "; ".join(format_bipoly(f) for f in seeds),
            "window": str(window),
            "bounds": f"{bounds[0]},{bounds[1]}",
            "max_rounds": str(max_rounds),
        },
        checks=rounds,
    )
    report.data = {
        "dimension_trace": trace,
        "reaches_one": basis.contains(one),
        "overflow": overflow,
        "stabilized": stabilized,
        "invariant_in_box": stabilized and overflow == 0,
    }
    report.elapsed = perf_counter() - t0
    return report


def check_invariant_subspace(
    spec: ModuleSpec,
    predicate,
    window: int = 3,
    bounds: tuple[int, int] = (8, 8),
) -> bool:
    """Is span{ s^i t^j in the box : predicate(i, j) } invariant under all
    L_m, W_m with |m| <= window?  Images are computed exactly, with no
    truncation: a monomial image escaping the predicate anywhere (inside
    the box or not) refutes invariance."""
    ds, dt = _box(bounds)
    ops = _operators(spec, window)
    for i in range(ds + 1):
        for j in range(dt + 1):
            if not predicate(i, j):
                continue
            f = BiPoly.monomial(i, j)
            for op in ops:
                img = op(f)
                for (p, q) in img.terms:
                    if not predicate(p, q):
                        return False
    return True
