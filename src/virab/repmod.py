"""Rank-one free-on-L0 modules over Vir(a,b) on the polynomial space C[s, t].

A module free on the generator 1 over {L0, W0} is fixed by its window
data W_m . 1 = a_m(t) and L_m . 1 = g_m(s, t) (s tracks the L0 weight, t
the W0 weight), which ``data(m)`` returns as (a_m, g_m).  Every basis
symbol then acts through one :class:`Op` (shift sigma, multipliers p and
q),

    x . f = f(s - sigma, t) * p + d/dt f(s - sigma, t) * q,

built by the one data formula :func:`_op` over W(a,b), the ``op`` of
every module and window:

    L_m -> (m, g_m, (a + b*m) * a_m),    W_m -> (a + m, a_m, 0),

while C_i . f = 0; :func:`act_sym` is the action of one basis symbol.
Two families supply the data, both with a = 0:

* ``phi``: parameters (lambda != 0, alpha, c), c a finite coefficient
  sequence.  With P = sum_k c[k] * t^k, Q = (P(t) - P(alpha)) / (t - alpha)
  and (f, w) the one selector :func:`_alpha_weights` ((0, 0) away from
  b = +-1), a_m = lambda^m * (t - alpha * w(m)) and g_m = lambda^m * (s +
  h_m), where h_m = m * P - alpha * f(m) * Q (:func:`_tail`; :func:`q_poly`
  (n, k) is h_n at P = t^k).

* ``theta``: only over (a, b) = (0, 1); parameters (lambda != 0, c):
  a_m = [m == 0] * t and g_m = lambda^m * (s + m * P), the phi form at
  alpha = 0.  (a + b*m) * a_m is zero at every m, so no L_m has a
  derivative term.

:class:`GenericFamily` holds such data as an explicit window, from a
module or claimed by a caller; it is the one window type, which the
sweeps and the classifier both take.  All modules here are W(a,b)-modules
too: drop the central symbols via extension=False.  :func:`verify_module`
checks every bracket relation against the action on a monomial window,
exactly; a spec whose data, bracket and pair symbol vanish at a symbolic
:class:`Index` is proved at all indices at once, without a sweep.

Every polynomial here is a :class:`BiPoly`; those in t alone (P, Q, h_m,
a_m) simply have no s terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from itertools import product
from time import perf_counter
from types import SimpleNamespace
from typing import Iterable, NamedTuple

from .algebra import (
    AlgElement,
    BasisSymbol,
    Case,
    L,
    W,
    _check_symbol,
    bracket,
    classify_case,
)
from .polynomials import (
    BiPoly,
    Index,
    Undecided,  # noqa: F401 (virab.repmod.Undecided)
    _index_poly,
    divided_difference,
    format_bipoly,
    zero_patterns,
)
from .report import Report, echo_params
from .scalars import (
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    format_scalar,
    parse_scalar,
)


class Family(str, Enum):
    PHI = "phi"
    THETA = "theta"


def _alpha_weights(b: Scalar, m: int) -> tuple[int, int]:
    """Where alpha enters at index m, as multiples of alpha: q's correction
    factor and the twist shift.  (m*(m-1), m) at b = -1, (m, [m != 0]) at
    b = 1, and (0, 0) at every other b, where alpha enters nowhere."""
    if b == MINUS_ONE:
        return m * (m - 1), m
    if b == ONE:
        return m, int(m != 0)
    return 0, 0


def _tail(b: Scalar, alpha: Scalar, P: BiPoly, Q: BiPoly,
          n: int | Index) -> BiPoly:
    """The index-n tail h_n = n*P - alpha*f(n)*Q of the module docstring,
    f(n) from :func:`_alpha_weights`; zero at n = 0."""
    f = _alpha_weights(b, n)[0]
    return _times(P, n * ONE) - _times(Q, f * alpha)


def q_poly(n: int, k: int, alpha: Scalar, b: Scalar) -> BiPoly:
    """h_n at P = t^k, Q = (t^k - alpha^k) / (t - alpha) (:func:`_tail`):
    the degree-k generating polynomial, with leading t^k coefficient n."""
    if k < 0:
        raise ValueError("negative degree")
    return _tail(b, alpha, BiPoly.monomial(0, k),
                 divided_difference(k, alpha), n)


def twist_poly(b: Scalar, alpha: Scalar, m: int | Index) -> BiPoly:
    """The twist factor w_m(t) = t - shift, the shift alpha times the
    weight from :func:`_alpha_weights`."""
    return BiPoly.t_var() - _index_poly(_alpha_weights(b, m)[1] * alpha)


def _times(p: BiPoly, k: Scalar | Index) -> BiPoly:
    """k * p, for a Scalar or an Index k."""
    return p.scale(k) if type(k) is Scalar else p * k.poly


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
        return BiPoly._from_numerators(
            *self._image(BiPoly._settled(*u._shifted(self.shift))))

    def _image(self, shifted: tuple[int, list]) -> tuple[int, dict]:
        """The accumulator of U*p + d/dt U*q from U = u(s - shift, t)."""
        work = [(1, shifted, self.p._numerators())]
        if self.q:  # d/dt U, on the integer form
            d, nums = shifted
            dt = d, [((i, j - 1), a * j, b * j) for (i, j), a, b in nums if j]
            work.append((1, dt, self.q._numerators()))
        return BiPoly._product_sum(work)

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


def _op(target: ModuleSpec | GenericFamily, sym: BasisSymbol) -> Op:
    """The operator of L_m or W_m over W(a, b): the data formula of the
    module docstring, on (a_m, g_m) = target.data(m)."""
    m, kind = sym.index, sym.kind
    if kind not in ("L", "W"):
        raise ValueError(f"no action data for symbol {sym}")
    a_m, g_m = target.data(m)
    if kind == "L":
        return Op(m * ONE, g_m, _times(a_m, m * target.b + target.a))
    return Op(m + target.a, a_m, BiPoly.zero())


def _check_params(family: Family, lam: Scalar, alpha: Scalar,
                  b: Scalar = ONE) -> None:
    """Refuse lambda = 0, and theta away from b = 1 or with an alpha."""
    if not lam:
        raise ValueError("lambda must be nonzero")
    if family is Family.THETA:
        if b != ONE:
            raise ValueError("theta modules exist only over (a, b) = (0, 1)")
        if alpha:
            raise ValueError("theta modules have no alpha parameter")


class ModuleSpec:
    """Full parameter set for one module over a = 0, and the one place a
    module is built.  P and Q of the module docstring are computed once,
    here, each by one sum of products over the nonzero c_k, and
    ``data(m)`` builds the window data from them at each call; treat
    instances as immutable.  A c_k may be a Scalar or a polynomial in the
    index variables (:meth:`BiPoly.index_var`), as in the bases of
    :func:`_base_vanishes`; such a base has no ``to_dict``."""

    __slots__ = ("family", "algebra", "lam", "alpha", "coeffs", "_P", "_Q")
    a = ZERO

    def __init__(
        self,
        family: Family,
        b: Scalar,
        lam: Scalar,
        alpha: Scalar = ZERO,
        coeffs: tuple[Scalar | BiPoly, ...] = (),
        extension: bool = True,
    ):
        _check_params(family, lam, alpha, b)
        self.family = family
        self.algebra = classify_case(ZERO, b, extension)
        self.lam = lam
        self.alpha = alpha
        self.coeffs = tuple(coeffs)
        levels = [(k, c) for k, c in enumerate(self.coeffs) if c]
        sop = BiPoly.sum_of_products
        self._P = sop((c, BiPoly.monomial(0, k)) for k, c in levels)
        self._Q = sop((c, divided_difference(k, alpha)) for k, c in levels)

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

    def data(self, m: int | Index) -> tuple[BiPoly, BiPoly]:
        """(a_m, g_m) = (W_m . 1, L_m . 1): a_m = lambda^m * w_m (theta: t
        at m = 0, else 0) and g_m = lambda^m * (s + h_m), at an int, or at
        an :class:`Index` where lambda = 1."""
        lp = self.lam ** m
        if self.family is Family.THETA:
            a_m = BiPoly.t_var() if m == 0 else BiPoly.zero()
        else:
            a_m = _times(twist_poly(self.b, self.alpha, m), lp)
        h_m = _tail(self.b, self.alpha, self._P, self._Q, m)
        return a_m, _times(BiPoly.s_var() + h_m, lp)

    op = _op

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


def act_sym(spec: ModuleSpec, sym: BasisSymbol, f: BiPoly) -> BiPoly:
    """x . f: C_i acts by zero where the algebra has it, L_m and W_m
    through spec.op."""
    if sym.kind == "C":
        _check_symbol(sym, spec.algebra)
        return BiPoly.zero()
    return spec.op(sym).apply(f)


# the names bench/ binds; nothing here calls them
def act_L(spec: ModuleSpec, m: int, f: BiPoly) -> BiPoly:
    return spec.op(L(m)).apply(f)


def act_W(spec: ModuleSpec, m: int, f: BiPoly) -> BiPoly:
    return spec.op(W(m)).apply(f)


def act_element(spec: ModuleSpec, e: AlgElement, f: BiPoly) -> BiPoly:
    return BiPoly.zero().combine((act_sym(spec, sym, f), c)
                                 for sym, c in e.terms.items())


def apply_enveloping(spec: ModuleSpec, u: BiPoly, f: BiPoly) -> BiPoly:
    """Act by u(L0, W0): each monomial s^i t^j becomes L0^i W0^j (they
    commute here since a = 0)."""
    l0, w0 = spec.op(L(0)), spec.op(W(0))
    pairs = []
    for (i, j), c in u.terms.items():
        g = f
        for _ in range(j):
            g = w0.apply(g)
        for _ in range(i):
            g = l0.apply(g)
        pairs.append((g, c))
    return BiPoly.zero().combine(pairs)


@dataclass(frozen=True)
class GenericFamily:
    """Window of action data over W(a,b): per index m in -window..window,
    the W-multiplier a_m = W_m . 1 and the L-multiplier g_m = L_m . 1,
    acting through :func:`_op`.  a_m is claimed to lie in C[W0]; an L0 term
    there is for the checks to find, not refused here.  Two windows are
    equal when all of (a, b, N, a_m, g_m) are; a window holds dicts, so it
    is unhashable."""

    a: Scalar
    b: Scalar
    window: int
    a_m: dict[int, BiPoly]
    g_m: dict[int, BiPoly]
    __hash__ = None

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
        """The canonical data realized by a module, read off spec.data."""
        a_m, g_m = {}, {}
        for m in range(-window, window + 1):
            a_m[m], g_m[m] = spec.data(m)
        return cls(ZERO, spec.b, window, a_m, g_m)

    def data(self, m: int) -> tuple[BiPoly, BiPoly]:
        """(a_m, g_m) as stored; raises outside the window."""
        if abs(m) > self.window:
            raise ValueError(f"index {m} outside family window {self.window}")
        return self.a_m[m], self.g_m[m]

    op = _op


def _read(fam: GenericFamily) -> ModuleSpec | None:
    """The module a window's seeds at m = 1 name, checking nothing (see
    :mod:`virab.classify`); None where a != 0 or lambda = 0, which no
    module has.  A module's g_1 is lambda * (s + h_1) with h_1 = P - alpha *
    f(1) * Q (f from :func:`_alpha_weights`: 1 at b = 1, else 0), and Q's
    t^k coefficient is S_k = sum over j > k of c_j * alpha^(j-1-k).  So,
    from the top degree of F = d_1 / lambda (d_1 the part of g_1 without
    L0) down, c_k = F_k + alpha * f(1) * S_k and S_(k-1) = c_k + alpha *
    S_k, with S = 0 at the top: scalars alone, and one ModuleSpec."""
    a_1, g_1 = fam.a_m[1], fam.g_m[1]
    lam = g_1.coeff(1, 0)
    if fam.a or not lam:
        return None
    theta = fam.b == ONE and not a_1
    alpha = ZERO if theta else -(a_1.coeff(0, 0) / lam)
    F = {j: c for (i, j), c in g_1.terms.items() if not i}
    inv, twist = lam.inv(), alpha.mul_int(_alpha_weights(fam.b, 1)[0])
    coeffs, S = [ZERO] * (max(F, default=0) + 1), ZERO
    for k in reversed(range(len(coeffs))):
        coeffs[k] = c = F.get(k, ZERO) * inv + twist * S
        S = c + alpha * S
    return ModuleSpec(Family.THETA if theta else Family.PHI, fam.b, lam,
                      alpha, coeffs)


# the names bench/ binds; nothing here calls them
def generic_act_L(fam: GenericFamily, m: int, u: BiPoly) -> BiPoly:
    return fam.op(L(m)).apply(u)


def generic_act_W(fam: GenericFamily, m: int, u: BiPoly) -> BiPoly:
    return fam.op(W(m)).apply(u)


def _tau(op: Op, sigma: Scalar | BiPoly) -> tuple[BiPoly, ...]:
    """op's p and q with s -> s - sigma, and their d/dt."""
    p, q = op.p.shift_s(sigma), op.q.shift_s(sigma)
    return p, q, p.partial_t(), q.partial_t()


def _pair_symbol(x: BasisSymbol, y: BasisSymbol, op, tau,
                 terms: Iterable[tuple[BasisSymbol, Scalar | BiPoly]]
                 ) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(dA, dB, dC) of :func:`verify_module` for the pair (x, y), from
    op(z) = z's Op, tau(sigma, z) = :func:`_tau` of op(z), and ``terms``,
    the non-central (symbol, coefficient) terms of [x, y]."""
    sx, px, qx = op(x)
    sy, py, qy = op(y)
    total = sx + sy
    yp, yq, dyp, dyq = tau(sx, y)
    xp, xq, dxp, dxq = tau(sy, x)
    minus_a = [(xp, py), (dxp, qy)]
    minus_b = [(xq, py), (xp, qy), (dxq, qy)]
    for sym, c in terms:
        shift, p, q = op(sym)
        if shift != total:
            raise ValueError(
                f"bracket [{x}, {y}] has the term {sym} with shift {shift}, "
                f"not the pair's total shift {total}")
        minus_a.append((c, p))
        minus_b.append((c, q))
    sop = BiPoly.sum_of_products
    return (sop(((yp, px), (dyp, qx)), minus_a),
            sop(((yq, px), (yp, qx), (dyq, qx)), minus_b),
            sop(((yq, qx),), ((xq, qy),)))


_PATTERNS = zero_patterns((1, 2), [BiPoly.index_var(1), BiPoly.index_var(2),
                                   BiPoly.index_var(1) + BiPoly.index_var(2)])


def _pairs_vanish(twin: ModuleSpec) -> bool:
    """Whether the symbols of every pair kind vanish for a lambda = 1 spec
    at symbolic m and n on every zero pattern; False where a term is off
    the shift or a test undecided."""
    # central symbols act by zero: the table without them is what counts
    algebra = classify_case(twin.a, twin.b, want_extension=False)
    try:
        for group in _PATTERNS:
            # L_m and W_m read one data(m), kept per group: data at an
            # Index reads the group's zero pattern
            op = cache(partial(_op, SimpleNamespace(
                a=twin.a, b=twin.b, data=cache(twin.data))))
            tau = cache(lambda sigma, y: _tau(op(y), _index_poly(sigma)))
            for values, nonzero in group:
                i, j = (Index(v, nonzero) for v in values)
                for x, y in product((L(i), W(i)), (L(j), W(j))):
                    terms = [(sym, _index_poly(c)) for sym, c in
                             bracket(x, y, algebra).terms.items()]
                    if any(_pair_symbol(x, y, op, tau, terms)):
                        return False
    except (ValueError, TypeError):
        return False
    return True


def _base_key(spec: ModuleSpec) -> tuple:
    """(family, b, alpha, support) of spec's base (see
    :func:`_symbols_vanish`): alpha 0 where :func:`_alpha_weights` keeps it
    out of the data, and the k with c_k != 0."""
    alpha = spec.alpha if any(_alpha_weights(spec.b, 1)) else ZERO
    return (spec.family, spec.b, alpha,
            tuple(k for k, c in enumerate(spec.coeffs) if c))


def _base_vanishes(family: Family, b: Scalar, alpha: Scalar,
                   support: tuple[int, ...]) -> bool:
    """Whether the symbols vanish (:func:`_pairs_vanish`) for the base of
    (family, b, alpha, support): the lambda = 1 ModuleSpec whose c_k is the
    index variable u_k = ``BiPoly.index_var(3 + k)`` for each k in support
    (m and n are variables 1 and 2), and 0 for every other k."""
    coeffs = [BiPoly.index_var(3 + k) if k in support else ZERO
              for k in range(max(support, default=-1) + 1)]
    return _pairs_vanish(ModuleSpec(family, b, ONE, alpha, coeffs))


# (family, b, alpha) -> the supports whose base vanished: the one memo of
# proved modules, for specs and for the modules read off windows
_VANISHED: dict[tuple, list[frozenset[int]]] = {}


def _symbols_vanish(spec: ModuleSpec) -> bool:
    """Whether every pair kind's symbol vanishes at symbolic m and n on
    every zero pattern (see :func:`verify_module`); False where the spec is
    not a plain ModuleSpec acting by :func:`_op`, a term is off the pair's
    shift or a test undecided.

    ``data(m)`` is lambda^m times its value at lambda = 1 (theta's a_m =
    [m == 0] * t too), so every Op at m is: p and q scale, the shift does
    not.  Each of dA, dB and dC of (x_m, y_n), its bracket terms at index
    m + n, is then lambda^(m+n) times its value at 1, and vanishes exactly
    when that does.  At lambda = 1 the symbols are built from the
    coefficients by sums, products, d/dt and shifts of s alone, so spec's
    are those of its base (:func:`_base_key`), whose nonzero coefficients
    are fresh variables u_k, with c_k put in for each u_k: where the base's
    vanish, so do spec's.  The base decides every spec of its (family, b,
    alpha) and support, whatever the coefficients (:func:`_base_vanishes`).
    With u_k = 0 for k outside a smaller support, a base is that support's,
    so one that vanishes decides its subsets too: :data:`_VANISHED` keeps
    it, and it is proved once per process.  A base that does not vanish
    decides none, is kept nowhere and leaves the spec to the sweep.  All
    this holds only while ``data`` scales a_m and g_m by lambda^m."""
    if type(spec) is not ModuleSpec or ModuleSpec.op is not _op:
        return False
    *where, support = _base_key(spec)
    where = tuple(where)
    if any(done.issuperset(support) for done in _VANISHED.get(where, ())):
        return True
    if not _base_vanishes(*where, support):
        return False
    # bounded: 64 classify-mix blocks keep 60 supports
    if sum(map(len, _VANISHED.values())) >= 4096:
        _VANISHED.clear()
    _VANISHED.setdefault(where, []).append(frozenset(support))
    return True


def _near(fam: GenericFamily, window: int) -> set[int] | None:
    """S, the indices of -window..window where fam's data differ from the
    module read off its seeds (:func:`_read`), once :func:`_symbols_vanish`
    proves that module; None with no read, no proof, or where S holds
    every nonzero index (S never holds 0: a_0 = W0 and g_0 = L0), as then
    only instances at (0, 0) avoid it, which cost less than the proof."""
    read = _read(fam)
    if read is None:
        return None
    S = {m for m in range(-window, window + 1)
         if fam.data(m) != read.data(m)}
    return S if len(S) < 2 * window and _symbols_vanish(read) else None


def verify_module(
    target: ModuleSpec | GenericFamily, window: int = 4, degree: int = 4
) -> Report:
    """Check [x, y] . f = x . (y . f) - y . (x . f) for every ordered pair
    of basis symbols with indices in [-window, window] (central symbols
    included when available) and every monomial f with total degree at most
    ``degree``.  Exact equality; failures carry the witness triple, in the
    order of the ordered pair loop and then the monomials.

    A ModuleSpec is first decided at once: the pair symbol below of (L_m,
    L_n), (L_m, W_n), (W_m, L_n) and (W_m, W_n) is computed at symbolic m
    and n (an :class:`Index`) on each zero pattern of (m, n, m + n).  If
    every one vanishes, the axioms hold at all indices, and the report is
    the sweep's pass report, its ``checks`` counted from the window and
    the degree.  A symbol that does not vanish, a bracket term off index
    m + n, an undecided test and a subclass or an op other than
    :func:`_op` leave the spec to the sweep.

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
    runs over the terms of [x, y] in W(a, b), each of which must have the
    pair's total shift) is computed by one :meth:`BiPoly.sum_of_products`
    per component, as is each monomial's residue.  Each unordered pair is
    computed once, when it first comes up.  When the reverse pair comes up,
    the symbol and every residue of (y, x) are the negated ones of (x, y)
    if [y, x] == -[x, y]; the sweep checks that equality exactly, and on
    the diagonal that [x, x] == 0, and computes the pair in full where the
    check fails.

    A window is swept only at the pairs (x_m, y_n) where {m, n, m + n}
    meets S, the indices where its data differ from the module read off
    its seeds, once that module is proved (:func:`_near`, which
    check_constraints shares).  The pair symbol reads data(m), data(n),
    data(m + n) (every bracket term sits at m + n), a and b, which the
    read shares.  So off S it is the module's, which vanishes: no failure
    is lost, and ``checks`` counts every pair.  The rule is symmetric in x
    and y, as the reverse pair memo needs.  Every pair is swept where
    :func:`_near` gives no S, and for a subclass or another op.

    A vanishing symbol proves the pair on all of C[s, t] at once.  A
    nonvanishing one fails on one of 1, t, t^2, whose residues are dA, t*dA
    + dB and t^2*dA + 2*t*dB + 2*dC.  So from degree 2 on the verdict is the
    verdict over all of C[s, t], and the degree only chooses which failing
    monomials are listed.  ``checks`` counts pair-monomial instances.  A
    central symbol acts by zero and brackets to zero, and the central terms
    of [x, y] act by zero, so the symbols and the sweep read one bracket
    table, that of W(a, b), and the pairs with a central symbol only add to
    ``checks``."""
    if window < 0 or degree < 0:
        raise ValueError(
            f"window and degree must be nonnegative, got {window} and {degree}"
        )
    t0 = perf_counter()
    bounded = isinstance(target, GenericFamily)
    if bounded:
        if window > target.window:
            raise ValueError("sweep window exceeds family window")
        central = 0
        params = {
            "target": "generic-family",
            "a": format_scalar(target.a),
            "b": format_scalar(target.b),
            "family_window": str(target.window),
        }
    else:
        central = len(target.algebra.central_indices)
        params = echo_params(target.to_dict())
    params.update(window=str(window), degree=str(degree))
    report = Report(suite="verify-module", params=params)
    n_lw, n_monos = 2 * (2 * window + 1), (degree + 1) * (degree + 2) // 2
    # the pairs with a central symbol pass (see above): counted, not swept
    checks = ((n_lw + central) ** 2 - n_lw ** 2) * n_monos
    if not bounded and _symbols_vanish(target):
        report.checks = checks + n_lw ** 2 * n_monos
        report.elapsed = perf_counter() - t0
        return report
    near = None  # S of a window whose read module is proved, see above
    if type(target) is GenericFamily and GenericFamily.op is _op:
        near = _near(target, window)
    algebra = classify_case(target.a, target.b, want_extension=False)
    syms = [L(n) for n in range(-window, window + 1)]
    syms += [W(n) for n in range(-window, window + 1)]
    monos = [BiPoly.monomial(i, d - i)
             for d in range(degree + 1) for i in range(d + 1)]
    mono_text = cache(lambda n: format_bipoly(monos[n]))
    op = cache(target.op)  # each call builds the Op afresh
    sop = BiPoly.sum_of_products
    tau = cache(lambda sigma, y: _tau(op(y), sigma))
    # (x, y) -> [x, y] and the nonzero residues of (x, y), kept until
    # (y, x) comes up
    decided: dict[tuple[BasisSymbol, BasisSymbol],
                  tuple[AlgElement, list[tuple[int, BiPoly]]]] = {}

    def residues(x: BasisSymbol, y: BasisSymbol,
                 br: AlgElement) -> list[tuple[int, BiPoly]]:
        """The nonzero residues of (x, y), by monomial position."""
        da, db, dc = _pair_symbol(x, y, op, tau, br.terms.items())
        if not (da or db or dc):
            return []  # the symbol vanishes: every monomial passes
        total = op(x).shift + op(y).shift
        out = []
        for n, f in enumerate(monos):
            g = f.shift_s(total)
            dg = g.partial_t()
            res = sop(((g, da), (dg, db), (dg.partial_t(), dc)))
            if res:
                out.append((n, res))
        return out

    for x in syms:
        for y in syms:
            if bounded and abs(x.index + y.index) > window:
                continue  # bracket falls outside the data window
            checks += n_monos
            if near is not None and near.isdisjoint(
                    (x.index, y.index, x.index + y.index)):
                continue  # the read module's symbol, which vanishes
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
                report.fail("module-axiom", (str(x), str(y), mono_text(n)),
                            format_bipoly(res))
    report.checks = checks
    report.elapsed = perf_counter() - t0
    return report
