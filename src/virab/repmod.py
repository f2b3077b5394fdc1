"""Rank-one free-on-L0 modules over Vir(a,b) on the polynomial space C[s, t].

A module free on the generator 1 over {L0, W0} is fixed by its window
data W_m . 1 = a_m(t) and L_m . 1 = g_m(s, t) (s tracks the L0 weight, t
the W0 weight).  Every basis symbol then acts through one :class:`Op`
(shift sigma, multipliers p and q),

    x . f = f(s - sigma, t) * p + d/dt f(s - sigma, t) * q,

built by the one data formula :func:`_op` over W(a,b):

    L_m -> (m, g_m, (a + b*m) * a_m),    W_m -> (a + m, a_m, 0),

while C_i . f = 0.  Two families supply the data, both with a = 0:

* ``phi``: parameters (lambda != 0, alpha, h) with h a finite coefficient
  sequence; a_m = lambda^m * w_m and g_m = lambda^m * (s + h_m), where

      w_m = t - [b == -1] * m * alpha - [b == 1] * (1 - [m == 0]) * alpha

  is the twist factor (:func:`twist_poly`), h_m = sum_k h[k] * q(m, k)
  (:func:`h_of_n`) and q is the generating family from :func:`q_poly`.

* ``theta``: only over (a, b) = (0, 1); parameters (lambda != 0, r):
  a_m = [m == 0] * t and g_m = lambda^m * (s + r_m) with r_m = sum_k
  r[k] * m * t^k (the alpha = 0 coefficient space).  (a + b*m) * a_m is
  zero at every m, so no L_m has a derivative term.

:class:`GenericFamily` holds such data as an explicit window, from a
module or claimed by a caller; it is the one window type, which the
sweeps and the classifier both take.  All modules here are W(a,b)-modules
too: drop the central symbols via extension=False.  :func:`verify_module`
checks every bracket relation against the action on a monomial window,
exactly, deciding each unordered pair of symbols once.

Every polynomial here is a :class:`BiPoly`; those in t alone (q, w_m, h_m,
a_m) simply have no s terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from time import perf_counter
from typing import NamedTuple

from .algebra import (
    AlgElement,
    BasisSymbol,
    C,
    Case,
    L,
    W,
    bracket,
    classify_case,
)
from .polynomials import BiPoly, divided_difference, format_bipoly
from .report import Report
from .scalars import (
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    format_scalar,
    intpow,
    parse_scalar,
)


class Family(str, Enum):
    PHI = "phi"
    THETA = "theta"


def q_poly(n: int, k: int, alpha: Scalar, b: Scalar) -> BiPoly:
    """The degree-k generating polynomial for the index-n coefficient h_n.

    q(n, k) = n*t^k, corrected by a divided-difference multiple of alpha
    when b is -1 (factor n*(n-1)) or +1 (factor n).  Its leading t^k
    coefficient is always n, which is what makes coefficient extraction
    triangular.
    """
    if k < 0:
        raise ValueError("negative degree")
    out = BiPoly.monomial(0, k, Scalar.from_int(n)) if n else BiPoly.zero()
    if alpha and k:
        if b == MINUS_ONE:
            factor = n * (n - 1)
        elif b == ONE:
            factor = n
        else:
            factor = 0
        if factor:
            out = out - divided_difference(k, alpha).scale(
                alpha.mul_int(factor)
            )
    return out


def twist_poly(b: Scalar, alpha: Scalar, m: int) -> BiPoly:
    """The twist factor w_m(t) = t - shift: alpha*m at b = -1, alpha at
    b = 1 with m != 0, and 0 otherwise."""
    shift = ZERO
    if b == MINUS_ONE:
        shift = alpha.mul_int(m)
    elif b == ONE and m != 0:
        shift = alpha
    return BiPoly({(0, 1): ONE, (0, 0): -shift})


def h_of_n(b: Scalar, alpha: Scalar, coeffs: tuple[Scalar, ...],
           n: int) -> BiPoly:
    """h_n = sum_k coeffs[k] * q(n, k); always zero at n = 0."""
    return BiPoly.zero().combine((q_poly(n, k, alpha, b), c)
                                 for k, c in enumerate(coeffs) if c)


class Reach(NamedTuple):
    """Degree offsets of an :class:`Op`: for every nonzero u,

        deg_s(op.apply(u)) <= deg_s u + s,   deg_t(op.apply(u)) <= deg_t u + t,

    with equality in s when ``s_exact`` and in t when ``t_exact`` (and then
    the image is nonzero)."""

    s: int | float
    t: int | float
    s_exact: bool
    t_exact: bool


class Op(NamedTuple):
    """The action of one basis symbol on u(s, t):

        u -> U * p + d/dt U * q,   U = u(s - shift, t).

    Every L_m and W_m of every module here has this shape; :func:`_op`
    builds it from the window data a_m = W_m . 1 and g_m = L_m . 1.
    """

    shift: Scalar
    p: BiPoly
    q: BiPoly

    def apply(self, u: BiPoly) -> BiPoly:
        if not (self.p or self.q):
            return BiPoly.zero()
        return self.apply_shifted(u.shift_s(self.shift))

    def apply_shifted(self, shifted: BiPoly) -> BiPoly:
        """The action, given U = u(s - shift, t) already computed."""
        if not self.q:
            return shifted * self.p
        return BiPoly.sum_of_products(
            ((shifted, self.p), (shifted.partial_t(), self.q)))

    def reach(self) -> Reach:
        """How far the action moves the degrees of u, read off p and q.

        The shift keeps deg_s u and deg_t u, d/dt lowers deg_t by at least
        one, and C[s, t] has no zero divisors, so the degrees of U * p are
        exact and bound those of d/dt U * q by deg_s q and deg_t q - 1.
        The zero polynomial has degree -inf, so p = 0 is never exact.
        """
        p, q = self.p, self.q
        q_t = q.deg_t - 1
        return Reach(max(p.deg_s, q.deg_s), max(p.deg_t, q_t),
                     p.deg_s > q.deg_s, p.deg_t > q_t)

    def support(self, columns: dict[int, int]) -> dict[int, int]:
        """Column bound {j: i} on the image of any u whose column j holds
        only s^0..s^columns[j]: each image monomial s^a t^j has a <= i.
        The shift keeps t-degrees and lowers s-degrees, so U's column j is
        within s^0..s^columns[j]; a term s^a t^b of p moves column j to
        j + b, raising the bound by a; d/dt moves column j >= 1 to j - 1
        and kills column 0, and q's terms then move it as p's do."""
        bound: dict[int, int] = {}
        for mult, drop in ((self.p, 0), (self.q, 1)):
            for a, b in mult.terms:
                for j, top in columns.items():
                    if j >= drop and bound.get(j - drop + b, -1) < top + a:
                        bound[j - drop + b] = top + a
        return bound


def _op(a: Scalar, b: Scalar, a_m: BiPoly, g_m: BiPoly,
        sym: BasisSymbol) -> Op:
    """The operator of L_m or W_m over W(a, b), given W_m . 1 = a_m and
    L_m . 1 = g_m:

        L_m -> (m, g_m, (a + b*m) * a_m)
        W_m -> (a + m, a_m, 0)
    """
    m = sym.index
    if sym.kind == "L":
        return Op(Scalar.from_int(m), g_m, a_m.scale(a + b.mul_int(m)))
    if sym.kind == "W":
        return Op(a.add_int(m), a_m, BiPoly.zero())
    raise ValueError(f"no action data for symbol {sym}")


class ModuleSpec:
    """Full parameter set for one module, with its operators cached per
    basis symbol (L_m and W_m are built together from the data at m).

    Treat instances as immutable; the cache only memoizes pure functions
    of the parameters.
    """

    __slots__ = ("family", "algebra", "lam", "alpha", "coeffs", "_ops")

    def __init__(
        self,
        family: Family,
        b: Scalar,
        lam: Scalar,
        alpha: Scalar = ZERO,
        coeffs: tuple[Scalar, ...] = (),
        extension: bool = True,
    ):
        if not lam:
            raise ValueError("lambda must be nonzero")
        if family is Family.THETA:
            if b != ONE:
                raise ValueError("theta modules exist only over (a, b) = (0, 1)")
            if alpha:
                raise ValueError("theta modules have no alpha parameter")
        self.family = family
        self.algebra = classify_case(ZERO, b, extension)
        self.lam = lam
        self.alpha = alpha
        self.coeffs = tuple(coeffs)
        self._ops: dict[BasisSymbol, Op] = {}

    @property
    def b(self) -> Scalar:
        return self.algebra.b

    @property
    def extension(self) -> bool:
        return self.algebra.case is not Case.W_ONLY

    @classmethod
    def phi(cls, b, lam, alpha=ZERO, coeffs=(), extension=True) -> ModuleSpec:
        return cls(Family.PHI, b, lam, alpha, tuple(coeffs), extension)

    @classmethod
    def theta(cls, lam, coeffs=(), extension=True) -> ModuleSpec:
        return cls(Family.THETA, ONE, lam, ZERO, tuple(coeffs), extension)

    def h(self, m: int) -> BiPoly:
        return h_of_n(self.b, self.alpha, self.coeffs, m)

    def op(self, sym: BasisSymbol) -> Op:
        """The operator of L_m or W_m, from a_m = lambda^m * w_m (theta:
        t at m = 0, else 0) and g_m = lambda^m * (s + h_m)."""
        out = self._ops.get(sym)
        if out is None:
            m = sym.index
            lp = intpow(self.lam, m)
            if self.family is Family.THETA:
                a_m = BiPoly.t_var() if m == 0 else BiPoly.zero()
            else:
                a_m = twist_poly(self.b, self.alpha, m).scale(lp)
            g_m = (BiPoly.s_var() + self.h(m)).scale(lp)
            out = self._ops[sym] = _op(ZERO, self.b, a_m, g_m, sym)
            # the same data give the other symbol at this index
            twin = W(m) if sym.kind == "L" else L(m)
            self._ops[twin] = _op(ZERO, self.b, a_m, g_m, twin)
        return out

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "a": "0",
            "b": format_scalar(self.b),
            "lambda": format_scalar(self.lam),
            "alpha": format_scalar(self.alpha),
            "coeffs": [format_scalar(c) for c in self.coeffs],
            "extension": self.extension,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> ModuleSpec:
        _require_fields(doc, {"family", "a", "b", "lambda", "alpha", "coeffs",
                              "extension"}, "spec document")
        family = Family(doc["family"])
        a = _scalar_field(doc, "a")
        if a:
            raise ValueError("modules of this shape require a = 0")
        b = _scalar_field(doc, "b")
        lam = _scalar_field(doc, "lambda")
        alpha = _scalar_field(doc, "alpha")
        if not isinstance(doc["coeffs"], list):
            raise ValueError("field 'coeffs' must be a list of scalars")
        coeffs = tuple(_scalar_value(c, "coeffs entry") for c in doc["coeffs"])
        if not isinstance(doc["extension"], bool):
            raise ValueError("extension must be a boolean")
        return cls(family, b, lam, alpha, coeffs, doc["extension"])


def _require_fields(doc: dict, fields: set[str], what: str) -> None:
    """Refuse a document that lacks one of ``fields`` or has any other."""
    for problem, keys in (("missing", fields - doc.keys()),
                          ("has unknown", doc.keys() - fields)):
        if keys:
            raise ValueError(f"{what} {problem} fields: {sorted(keys)}")


def _scalar_field(doc: dict, key: str) -> Scalar:
    return _scalar_value(doc[key], f"field {key!r}")


def _scalar_value(v, what: str) -> Scalar:
    """A spec scalar: a string in the scalar grammar or an integer.  JSON
    floats are inexact and booleans are not numbers, so both are refused."""
    if isinstance(v, str):
        return parse_scalar(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return Scalar.from_int(v)
    raise ValueError(
        f"{what} must be a scalar string or an integer, got {v!r}"
    )


def act_L(spec: ModuleSpec, m: int, f: BiPoly) -> BiPoly:
    return spec.op(L(m)).apply(f)


def act_W(spec: ModuleSpec, m: int, f: BiPoly) -> BiPoly:
    return spec.op(W(m)).apply(f)


def act_C(spec: ModuleSpec, i: int, f: BiPoly) -> BiPoly:
    if i not in spec.algebra.central_indices:
        raise ValueError(
            f"central index {i} is not available in case {spec.algebra.case.value}"
        )
    return BiPoly.zero()


def act_sym(spec: ModuleSpec, sym: BasisSymbol, f: BiPoly) -> BiPoly:
    if sym.kind == "C":
        return act_C(spec, sym.index, f)
    return spec.op(sym).apply(f)


def act_element(spec: ModuleSpec, e: AlgElement, f: BiPoly) -> BiPoly:
    return BiPoly.zero().combine((act_sym(spec, sym, f), c)
                                 for sym, c in e.terms.items())


def apply_enveloping(spec: ModuleSpec, u: BiPoly, f: BiPoly) -> BiPoly:
    """Act by u(L0, W0): each monomial s^i t^j becomes L0^i W0^j (they
    commute here since a = 0)."""
    pairs = []
    for (i, j), c in u.terms.items():
        g = f
        for _ in range(j):
            g = act_W(spec, 0, g)
        for _ in range(i):
            g = act_L(spec, 0, g)
        pairs.append((g, c))
    return BiPoly.zero().combine(pairs)


@dataclass(frozen=True)
class GenericFamily:
    """Window of action data over W(a,b): per index m in -window..window,
    the W-multiplier a_m = W_m . 1 and the L-multiplier g_m = L_m . 1,
    acting through :func:`_op`.  a_m is claimed to lie in C[W0]; an L0 term
    there is for the checks to find, not refused here."""

    a: Scalar
    b: Scalar
    window: int
    a_m: dict[int, BiPoly] = field(compare=False)
    g_m: dict[int, BiPoly] = field(compare=False)

    def __post_init__(self):
        """Refuse a window below 1, data that lacks an index of -N..N or
        holds one outside it, and a_0 != W0 or g_0 != L0."""
        N = self.window
        if N < 1:
            raise ValueError("window must be at least 1")
        idx = range(-N, N + 1)
        for m in idx:
            if m not in self.a_m or m not in self.g_m:
                raise ValueError(f"missing data for index {m}")
        for name, table in (("a_m", self.a_m), ("g_m", self.g_m)):
            for m in table:
                if m not in idx:
                    raise ValueError(f"{name} has data at index {m}, outside "
                                     f"the window [-{N}, {N}]")
        if self.a_m[0] != BiPoly.t_var():
            raise ValueError("a_0 must equal W0")
        if self.g_m[0] != BiPoly.s_var():
            raise ValueError("g_0 must equal L0")

    @classmethod
    def from_spec(cls, spec: ModuleSpec, window: int) -> GenericFamily:
        """The canonical data realized by a module: a_m and g_m are just
        W_m . 1 and L_m . 1."""
        idx = range(-window, window + 1)
        a_m = {m: spec.op(W(m)).p for m in idx}
        g_m = {m: spec.op(L(m)).p for m in idx}
        return cls(ZERO, spec.b, window, a_m, g_m)

    def op(self, sym: BasisSymbol) -> Op:
        """The operator of L_m or W_m (see :func:`_op`); raises outside
        the stored window."""
        m = sym.index
        if abs(m) > self.window:
            raise ValueError(f"index {m} outside family window {self.window}")
        return _op(self.a, self.b, self.a_m[m], self.g_m[m], sym)


def generic_act_L(fam: GenericFamily, m: int, u: BiPoly) -> BiPoly:
    return fam.op(L(m)).apply(u)


def generic_act_W(fam: GenericFamily, m: int, u: BiPoly) -> BiPoly:
    return fam.op(W(m)).apply(u)


def _monomial_window(degree: int) -> list[BiPoly]:
    out = []
    for d in range(degree + 1):
        for i in range(d + 1):
            out.append(BiPoly.monomial(i, d - i))
    return out


def verify_module(
    target: ModuleSpec | GenericFamily, window: int = 4, degree: int = 4
) -> Report:
    """Check [x, y] . f = x . (y . f) - y . (x . f) for every ordered pair
    of basis symbols with indices in [-window, window] (central symbols
    included when available) and every monomial f with total degree at most
    ``degree``.  Exact equality; failures carry the witness triple, in the
    order of the ordered pair loop and then the monomials.

    A GenericFamily is swept over W(a,b), skipping the pairs whose bracket
    leaves the window.  Every action is f -> F*p + F'*q with F = f(s -
    sigma, t) (see :class:`Op`), so a pair's residue on f is F*dA + F'*dB
    + F''*dC with F = f(s - sigma_x - sigma_y, t), where the pair symbol

        dA = tx(p_y)*p_x + d/dt tx(p_y)*q_x - ty(p_x)*p_y
             - d/dt ty(p_x)*q_y - sum c*p_z
        dB = tx(q_y)*p_x + tx(p_y)*q_x + d/dt tx(q_y)*q_x - ty(q_x)*p_y
             - ty(p_x)*q_y - d/dt ty(q_x)*q_y - sum c*q_z
        dC = tx(q_y)*q_x - ty(q_x)*q_y

    (tx and ty substitute s -> s - sigma_x and s -> s - sigma_y, and c*z
    runs over the non-central terms of [x, y], each of which must have the
    pair's total shift) is computed by one :meth:`BiPoly.sum_of_products`
    per component, as is each monomial's residue.  Each unordered pair is
    computed once, when it first comes up.  When the reverse pair comes up,
    the symbol and every residue of (y, x) are the negated ones of (x, y)
    if [y, x] == -[x, y]; the sweep checks that equality exactly, and on
    the diagonal that [x, x] == 0, and computes the pair in full where the
    check fails.

    A vanishing symbol proves the pair on all of C[s, t] at once.  A
    nonvanishing one fails on one of 1, t, t^2, whose residues are dA, t*dA
    + dB and t^2*dA + 2*t*dB + 2*dC.  So from degree 2 on the verdict is the
    verdict over all of C[s, t], and the degree only chooses which failing
    monomials are listed.  ``checks`` counts pair-monomial instances."""
    if window < 0 or degree < 0:
        raise ValueError(
            f"window and degree must be nonnegative, got {window} and {degree}"
        )
    t0 = perf_counter()
    bounded = isinstance(target, GenericFamily)
    if bounded:
        if window > target.window:
            raise ValueError("sweep window exceeds family window")
        algebra = classify_case(target.a, target.b, want_extension=False)
        params = {
            "target": "generic-family",
            "a": format_scalar(target.a),
            "b": format_scalar(target.b),
            "family_window": str(target.window),
        }
    else:
        algebra = target.algebra
        params = {k: str(v) for k, v in target.to_dict().items()}
    params.update(window=str(window), degree=str(degree))
    syms = [L(n) for n in range(-window, window + 1)]
    syms += [W(n) for n in range(-window, window + 1)]
    syms += [C(i) for i in algebra.central_indices]
    monos = _monomial_window(degree)
    op = cache(target.op)  # a GenericFamily builds each Op afresh
    sop = BiPoly.sum_of_products
    # (sigma, y) -> p_y and q_y shifted by sigma, and their d/dt
    shifted: dict[tuple[Scalar, BasisSymbol], tuple[BiPoly, ...]] = {}
    # (sigma, monomial position) -> F, F' and F'' of F = f(s - sigma, t)
    jets: dict[tuple[Scalar, int], tuple[BiPoly, ...]] = {}
    # (x, y) -> [x, y] and the nonzero residues of (x, y), kept until
    # (y, x) comes up
    decided: dict[tuple[BasisSymbol, BasisSymbol],
                  tuple[AlgElement, list[tuple[int, BiPoly]]]] = {}

    def tau(sigma: Scalar, y: BasisSymbol) -> tuple[BiPoly, ...]:
        out = shifted.get((sigma, y))
        if out is None:
            p, q = (g.shift_s(sigma) for g in op(y)[1:])
            out = shifted[sigma, y] = p, q, p.partial_t(), q.partial_t()
        return out

    def residues(x: BasisSymbol, y: BasisSymbol,
                 br: AlgElement) -> list[tuple[int, BiPoly]]:
        """The nonzero residues of (x, y), by monomial position."""
        sx, px, qx = op(x)
        sy, py, qy = op(y)
        total = sx + sy
        yp, yq, dyp, dyq = tau(sx, y)
        xp, xq, dxp, dxq = tau(sy, x)
        minus_a = [(xp, py), (dxp, qy)]
        minus_b = [(xq, py), (xp, qy), (dxq, qy)]
        for sym, c in br.terms.items():
            if sym.kind == "C":
                continue  # central symbols act by zero
            shift, p, q = op(sym)
            if shift != total:
                raise ValueError(
                    f"bracket [{x}, {y}] has the term {sym} with shift "
                    f"{format_scalar(shift)}, not the pair's total shift "
                    f"{format_scalar(total)}")
            c = BiPoly.const(c)
            minus_a.append((p, c))
            minus_b.append((q, c))
        da = sop(((yp, px), (dyp, qx)), minus_a)
        db = sop(((yq, px), (yp, qx), (dyq, qx)), minus_b)
        dc = sop(((yq, qx),), ((xq, qy),))
        if not (da or db or dc):
            return []  # the symbol vanishes: every monomial passes
        out = []
        for n, f in enumerate(monos):
            jet = jets.get((total, n))
            if jet is None:
                g = f.shift_s(total)
                dg = g.partial_t()
                jet = jets[total, n] = g, dg, dg.partial_t()
            g, dg, ddg = jet
            res = sop(((g, da), (dg, db), (ddg, dc)))
            if res:
                out.append((n, res))
        return out

    report = Report(suite="verify-module", params=params)
    checks = 0
    for x in syms:
        for y in syms:
            if bounded and abs(x.index + y.index) > window:
                continue  # bracket falls outside the data window
            checks += len(monos)
            if "C" in (x.kind, y.kind):
                continue  # central symbols act by zero and bracket to zero
            br = bracket(x, y, algebra)
            first = decided.pop((y, x), None)
            if x == y and not br:
                found = []
            elif first is not None and br == -first[0]:
                found = [(n, -res) for n, res in first[1]]
            else:
                found = residues(x, y, br)
                if first is None and x != y:
                    decided[x, y] = br, found
            for n, res in found:
                report.fail("module-axiom",
                            (str(x), str(y), format_bipoly(monos[n])),
                            format_bipoly(res))
    report.checks = checks
    report.elapsed = perf_counter() - t0
    return report
