"""Submodule exploration inside a truncated monomial box.

The ambient space is spanned by the monomials s^i t^j with i <= bounds[0]
and j <= bounds[1].  :class:`SubspaceBasis` keeps an exact reduced row
echelon basis of a subspace of that box: each row is a sparse
:class:`BiPoly` whose pivot is its least monomial (i, j), with coefficient
1 there and no other row holding that monomial, so every pivot column of
f - sum f_p * row_p cancels exactly and a reduction adds up only the rows'
other columns.  :func:`orbit_closure` grows a seed set by repeatedly
applying the in-window operators L_m and W_m, in a fixed order, recording
the dimension after each round.  Images that leave the box are never
silently dropped: they are counted as overflow, so "stabilized with zero
overflow" is a genuine invariant-subspace statement for the box.  An image
whose degrees (:meth:`Op.reach`) put it past the box is counted as
overflow, and one whose support bound (:meth:`Op.support`) lies in the
span's runs of monomial rows is skipped.  The rest are shifted (once per
row and distinct shift: L_m and W_m share the shift m), applied and
reduced on the integer form of :mod:`virab.polynomials`: a BiPoly is built
only for a new row and for the residue.

:func:`check_invariant_subspace` is the complementary exact test: for the
span of all in-box monomials selected by a predicate on (i, j), it checks
that every in-window operator's image, WITHOUT truncation, stays in the
selected monomial span (which is how the reducibility witnesses like
"t divides everything" are certified); an image is built, by
:meth:`Op.apply`, only when the predicate fails somewhere on its support
bound.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from time import perf_counter
from types import SimpleNamespace

from .algebra import L, W
from .polynomials import BiPoly, format_bipoly
from .report import Report, echo_params
from .repmod import ModuleSpec, Reach


def _box(bounds: tuple[int, int]) -> tuple[int, int]:
    ds, dt = bounds
    if ds < 0 or dt < 0:
        raise ValueError("bounds must be non-negative")
    return ds, dt


class SubspaceBasis:
    """Exact reduced-row-echelon basis over the monomial box: ``rows`` maps
    each pivot monomial to the row that has coefficient 1 there.  A
    monomial is in the span exactly when its row is that monomial alone,
    and such rows never change; ``runs[j]`` is the k for which s^0 t^j,
    ..., s^(k-1) t^j are all in the span (absent: 0)."""

    def __init__(self, bounds: tuple[int, int]):
        self.bounds = _box(bounds)
        self.rows: dict[tuple[int, int], BiPoly] = {}
        self.runs: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def fits(self, f: BiPoly) -> bool:
        return self._inside(f._numerators()[1])

    def _inside(self, nums: list) -> bool:
        ds, dt = self.bounds
        return all(i <= ds and j <= dt for (i, j), _, _ in nums)

    def _reduce(self, d: int, nums: list) -> tuple[int, dict]:
        """f - sum f_p * row_p over the pivots p of the integer form f.  Rows
        are 1 at their pivot and 0 at every other one, so each pivot column
        cancels exactly: only the rows' other columns are added up."""
        rows = self.rows
        hits = [(p, a, b, *rows[p]._numerators())
                for p, a, b in nums if p in rows]
        scale = lcm(*{hit[3] for hit in hits})
        acc = {k: [a * scale, b * scale]
               for k, a, b in nums if k not in rows}
        add = acc.setdefault
        for p, a, b, dr, row in hits:
            a, b = a * (scale // dr), b * (scale // dr)
            for k, ra, rb in row:
                if k != p:
                    x = add(k, [0, 0])
                    x[0] -= ra * a - rb * b
                    x[1] -= ra * b + rb * a
        return d * scale, acc

    def contains(self, f: BiPoly) -> bool:
        return self.fits(f) and not BiPoly._from_numerators(
            *self._reduce(*f._numerators()))

    def insert(self, f: BiPoly | tuple[int, list]) -> BiPoly | None:
        """Reduce f, a BiPoly or an integer form, against the basis; if
        independent, add the normalized reduced row and return it, else
        return None."""
        d, nums = f._numerators() if type(f) is BiPoly else f
        if not self._inside(nums):
            raise ValueError("polynomial exceeds the monomial box")
        f = BiPoly._from_numerators(*self._reduce(d, nums))
        if not f:
            return None
        pivot = min(f.terms)
        f = f.scale(f.terms[pivot].inv())
        # keep reduced form: clear the new pivot from existing rows, and
        # extend the runs of the columns whose rows changed
        rows, runs = self.rows, self.runs
        columns = {pivot[1]}
        for key, row in rows.items():
            c = row.terms.get(pivot)
            if c is not None:
                rows[key] = row.combine(((f, -c),))
                columns.add(key[1])
        rows[pivot] = f
        for j in columns:
            k = runs.get(j, 0)
            while (row := rows.get((k, j))) is not None and len(row.terms) == 1:
                k += 1
            runs[j] = k
        return f


def _operators(spec: ModuleSpec, window: int):
    if window < 0:
        raise ValueError(f"window must be nonnegative, got {window}")
    # L_m and W_m both read data(m): build it once per index
    once = SimpleNamespace(a=spec.a, b=spec.b, data=cache(spec.data))
    return [type(spec).op(once, sym(m))
            for m in range(-window, window + 1) for sym in (L, W)]


def _fits_by_degree(reach: Reach, degrees: tuple, bounds: tuple[int, int]
                    ) -> bool | None:
    """Does the image of a nonzero f with (deg_s f, deg_t f) = ``degrees``
    under an op of this ``reach`` fit the box?  True when both degree
    bounds are inside it, False when an exact degree is past it, None when
    only the image itself can tell."""
    (ds, dt), (fs, ft) = bounds, degrees
    top_s, top_t = fs + reach.s, ft + reach.t
    if top_s <= ds and top_t <= dt:
        return True
    if (reach.s_exact and top_s > ds) or (reach.t_exact and top_t > dt):
        return False
    return None


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
    zero overflow.  Otherwise it fails ``orbit-invariance`` at (rounds,
    overflow); the residue is the first image that left the box, else the
    first row of the last frontier.

    An image that degrees put past the box is counted unbuilt (the first
    is built, as the residue), and one they put inside skips the box test.
    One whose support bound lies in the runs is in the span: it is skipped
    unbuilt.  The counts, the trace, the frontier and the residue are those
    of building and inserting every image."""
    t0 = perf_counter()
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be nonnegative, got {max_rounds}")
    if not seeds:
        raise ValueError("orbit_closure needs at least one seed")
    basis = SubspaceBasis(bounds)
    for f in seeds:
        if f.is_zero:
            raise ValueError("seeds must be nonzero")
        if not basis.fits(f):
            raise ValueError("seed exceeds the monomial box")
    frontier = [p for f in seeds if (p := basis.insert(f)) is not None]
    reaches = [(op, op.reach()) for op in _operators(spec, window)
               if op.p or op.q]

    one = BiPoly.one()
    trace = [basis.dim]
    overflow = 0
    escaped = None
    stabilized = False
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        new_frontier = []
        for f in frontier:
            degrees = (f.deg_s, f.deg_t)
            columns: dict[int, int] = {}
            for i, j in f.terms:
                columns[j] = max(i, columns.get(j, 0))
            shifted = {}
            for op, reach in reaches:
                fits = _fits_by_degree(reach, degrees, basis.bounds)
                if fits is False and escaped is not None:
                    overflow += 1
                    continue
                if all(top < basis.runs.get(j, 0)
                       for j, top in op.support(columns).items()):
                    continue  # in the span: it would fit and insert nothing
                g = shifted.get(op.shift)
                if g is None:
                    g = shifted[op.shift] = BiPoly._settled(
                        *f._shifted(op.shift))
                d, acc = op._image(g)
                img = BiPoly._settled(d, acc)
                if fits is False or (fits is None
                                     and not basis._inside(img[1])):
                    overflow += 1
                    escaped = escaped or BiPoly._from_numerators(d, acc)
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
            **echo_params(spec.to_dict()),
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
    if not report.data["invariant_in_box"]:
        report.fail("orbit-invariance", (rounds, overflow),
                    format_bipoly(escaped or frontier[0]))
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
    the box or not) refutes invariance.  An image whose support bound
    satisfies the predicate everywhere cannot, and is not built."""
    ds, dt = _box(bounds)
    ops = _operators(spec, window)
    for i in range(ds + 1):
        for j in range(dt + 1):
            if not predicate(i, j):
                continue
            u = BiPoly.monomial(i, j)
            for op in ops:
                if all(predicate(k, c) for c, top in op.support({j: i}).items()
                       for k in range(top + 1)):
                    continue  # its image cannot leave the predicate
                if not all(predicate(p, q) for p, q in op.apply(u).terms):
                    return False
    return True
