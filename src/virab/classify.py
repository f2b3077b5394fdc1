"""Finite-window classification of free-on-L0 action data.

Given a window of candidate action data (a
:class:`virab.repmod.GenericFamily`, the one window type), decide whether
it is the data of a module of the two families and recover the canonical
parameters, or produce an :class:`InfeasibilityCertificate` naming a
failing window identity with a nonzero residue at explicit witness
indices, or answer :class:`Undetermined`.  Everything is exact, and every
certificate is an entry that check_constraints lists for the same window:
a proof over the window.

Each window identity is one function of the data and its indices that
returns a certificate or None; every residue is a BiPoly, so it has one
canonical text.  In the order check_constraints runs them (g_m = b_m L0 +
d_m, lambda = b_1):

    deg-g          (m,)    g_m is affine in L0: the terms above L0
    b-scalar       (m,)    b_m is a scalar: the t-dependent part of the
                           L0 coefficient of g_m, in t
    a-in-W0        (m,)    a_m lies in C[W0]: its L0 terms
    W-commutation  (m, n)  [W_m, W_n] . 1 = 0
    lw-compat      (m, n)  [L_m, W_n] . 1 replayed on the data (kills
                           a != 0)
    ll-compat      (m, n)  [L_m, L_n] . 1 replayed on b_m and d_m

Pair indices (m, n) read as in the bracket they replay: lw-compat at
(m, n) comes from [L_m, W_n] . 1 and runs over every pair with |m|, |n|,
|m + n| <= N; ll-compat takes the pairs with m < n, and W-commutation
every m < n in the window.  check_constraints records every failing
instance, and its ``checks`` count every instance, but it evaluates only
those that can fail.  W-commutation: the pairs where a_m or a_n has an L0
term (a-in-W0 fails there); elsewhere both shifts by L0 leave a_m and a_n
as they are, so the residue is a_n a_m - a_m a_n = 0.  lw-compat and
ll-compat, once the shapes hold: the pairs where {m, n, m + n} meets S,
the set of indices where the window differs from the module read off its
seeds, once that module is proved (:func:`virab.repmod._near`, which
verify_module shares).  An instance reads a, b and the data at m, n and
m + n alone, so every other one is that module's.  The read module's pair
symbols vanish at every index, so every lw-compat and ll-compat instance
on its data, which replays [L_m, W_n] . 1 or [L_m, L_n] . 1, is zero.
Every pair is evaluated where _near gives no S.

solve_candidate reads the parameters off the seeds at m = 1 and certifies
nothing while it reads (:func:`virab.repmod._read`, which verify_module
shares): lambda is g_1's L0 coefficient, the family is theta when b = 1
and a_1 = 0 and phi otherwise, alpha = -B_1 / lambda for a_1 = A_1 t +
B_1, and the coefficients are read top-down out of F_1 = d_1 / lambda,
which a module has as its tail h_1, in closed form over scalars.  When
the module with these parameters rebuilds every (a_m, g_m) of the
window, they are the answer.  Otherwise let m0 be the first index (m =
-N..N, a_m before g_m) where the rebuilt data differ.  The answer is the
first failing identity among the instances that read m0 (the shape
checks at every m, and the pairs with m0 among m, n and m + n), else the
first failing one anywhere (evaluated as check_constraints evaluates
it), else Undetermined at m0.  Reading m0 first puts the certificate at the datum
that differs and, on a large window, spares most of its instances.  The
read needs a = 0 and lambda != 0; once the shapes hold, lw-compat (0, 0)
reads -a*t and ll-compat (-1, 1) reads 2*L0 where lambda = 0, so there
the first failing identity is the answer.

Undetermined is the window identities' blind spot: at b = 2/3 and N = 1,
a_{+-1} = t/2, g_1 = L0 + t^3 and g_{-1} = L0 satisfy every identity (and
verify_module passes), yet no module of the two families has this data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import NamedTuple

from .polynomials import BiPoly, format_bipoly
from .repmod import (
    Family,
    GenericFamily,
    _alpha_weights,
    _check_params,
    _near,
    _read,
    _require_fields,
    _scalar_field,
    _scalar_value,
)
from .report import Report
from .scalars import Scalar, format_scalar


@dataclass(frozen=True)
class CanonicalParams:
    """Normalized module parameters: trailing zero coefficients are trimmed
    (they never change any h_n).  lambda = 0 and a theta alpha are refused,
    as :class:`ModuleSpec` refuses them."""

    family: Family
    lam: Scalar
    alpha: Scalar
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        _check_params(self.family, self.lam, self.alpha)
        coeffs = self.coeffs
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "lambda": format_scalar(self.lam),
            "alpha": format_scalar(self.alpha),
            "coeffs": [format_scalar(c) for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> CanonicalParams:
        _require_fields(doc, {"family", "lambda", "alpha", "coeffs"},
                        "canonical parameters")
        if not isinstance(doc["coeffs"], list):
            raise ValueError("field 'coeffs' must be a list of scalars")
        return cls(
            family=Family(doc["family"]),
            lam=_scalar_field(doc, "lambda"),
            alpha=_scalar_field(doc, "alpha"),
            coeffs=tuple(_scalar_value(c, "coeffs entry") for c in doc["coeffs"]),
        )


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """A failing window identity with a witness: the residue is a nonzero
    polynomial re-evaluable from the input data."""

    constraint: str
    indices: tuple[int, ...]
    residue: BiPoly

    def __post_init__(self):
        if self.residue.is_zero:
            raise ValueError("certificate residue must be nonzero")

    @property
    def residue_text(self) -> str:
        return format_bipoly(self.residue)

    def to_dict(self) -> dict:
        return {
            "infeasible": {
                "constraint": self.constraint,
                "witness": {
                    "indices": list(self.indices),
                    "residue": self.residue_text,
                },
            }
        }


@dataclass(frozen=True)
class Undetermined:
    """No window identity fails, yet the window is no module's: the data
    at index m0 differ from those of the parameters read off the seeds by
    the nonzero residue (candidate - rebuilt).  Neither parameters nor a
    proof; a larger window may certify it."""

    index: int
    residue: BiPoly

    @property
    def residue_text(self) -> str:
        return format_bipoly(self.residue)

    def to_dict(self) -> dict:
        return {"undetermined": {"index": self.index,
                                 "residue": self.residue_text}}


# the name bench/ binds for a window of claimed data
CandidateFamily = GenericFamily


# --- the window identities, one function each ----------------------------

def _cert(
    constraint: str, indices: tuple[int, ...], residue: BiPoly
) -> InfeasibilityCertificate | None:
    return InfeasibilityCertificate(constraint, indices, residue) if residue else None


def _g_shape(g_m: dict[int, BiPoly], m: int) -> InfeasibilityCertificate | None:
    # deg-g on the terms above L0, else b-scalar on the t-dependent part of
    # the L0 coefficient
    terms = g_m[m].terms
    excess = BiPoly({(i, j): c for (i, j), c in terms.items() if i > 1})
    if excess:
        return InfeasibilityCertificate("deg-g", (m,), excess)
    return _cert("b-scalar", (m,), BiPoly(
        {(0, j): c for (i, j), c in terms.items() if i == 1 and j}))


def _a_in_W0(a_m: dict[int, BiPoly], m: int) -> InfeasibilityCertificate | None:
    return _cert("a-in-W0", (m,), BiPoly(
        {(i, j): c for (i, j), c in a_m[m].terms.items() if i}))


_SHAPES = ("deg-g", "b-scalar", "a-in-W0")
_L0 = BiPoly.s_var()  # ll-compat's L0 factor


class _Parts(NamedTuple):
    """A window's per-index parts, built once by :func:`_parts`."""

    a: Scalar
    bm: dict[int, Scalar]   # b*m
    b_m: dict[int, Scalar]
    a_m: dict[int, BiPoly]
    da: dict[int, BiPoly]   # a_m'
    wa: dict[int, BiPoly]   # (a + b*m) a_m
    d_m: dict[int, BiPoly]
    dd: dict[int, BiPoly]   # d_m'


def _parts(fam: GenericFamily) -> _Parts:
    a, a_m, g_m = fam.a, fam.a_m, fam.g_m
    bm = {m: fam.b.mul_int(m) for m in a_m}
    b_m = {m: g_m[m].coeff(1, 0) for m in a_m}
    # d_m, the part of g_m = b_m L0 + d_m without L0
    d_m = {m: BiPoly({k: c for k, c in g_m[m].terms.items() if not k[0]})
           for m in a_m}
    return _Parts(a, bm, b_m, a_m, {m: p.partial_t() for m, p in a_m.items()},
                  {m: p.scale(a + bm[m]) for m, p in a_m.items()},
                  d_m, {m: p.partial_t() for m, p in d_m.items()})


def _lw_compat(p: _Parts, m: int, n: int) -> InfeasibilityCertificate | None:
    # [L_m, W_n] . 1: (a + n + b*m) a_{m+n} - a_n (g_m - g_m(L0 - a - n))
    #   - a_n' (a + b*m) a_m, with g_m - g_m(L0 - c) = c*b_m once the shapes
    # g_m = b_m L0 + d_m hold
    c = p.a.add_int(n)
    return _cert("lw-compat", (m, n), BiPoly.sum_of_products(
        ((c + p.bm[m], p.a_m[m + n]),),
        ((c * p.b_m[m], p.a_m[n]), (p.wa[m], p.da[n]))))


def _ll_compat(p: _Parts, m: int, n: int) -> InfeasibilityCertificate | None:
    # [L_m, L_n] . 1 for g_m = b_m L0 + d_m, cancelled before multiplying:
    # (n-m)(b_{m+n} - b_m b_n) L0 + (n-m) d_{m+n} - n b_m d_n + m b_n d_m
    #   + d_m' (a + b*n) a_n - d_n' (a + b*m) a_m
    b_m, d_m = p.b_m, p.d_m
    return _cert("ll-compat", (m, n), BiPoly.sum_of_products((
        ((b_m[m + n] - b_m[m] * b_m[n]).mul_int(n - m), _L0),
        (Scalar.from_int(n - m), d_m[m + n]),
        (b_m[n].mul_int(m), d_m[m]),
        (p.wa[n], p.dd[m]),
    ), ((b_m[m].mul_int(n), d_m[n]), (p.wa[m], p.dd[n]))))


def _w_commutation(a: Scalar, a_m: dict[int, BiPoly], m: int,
                   n: int) -> InfeasibilityCertificate | None:
    # [W_m, W_n] . 1 = a_n(L0 - a - m, W0) a_m - a_m(L0 - a - n, W0) a_n,
    # zero where shift_s returns a_m and a_n as they are (no L0 term)
    am, an = a_m[m], a_m[n]
    return _cert("W-commutation", (m, n), BiPoly.sum_of_products(
        ((an.shift_s(a.add_int(m)), am),), ((am.shift_s(a.add_int(n)), an),)))


def _instances(N: int) -> tuple[list[tuple[int, ...]], ...]:
    """The instances of each pass at window N, in order: the indices of
    the shape checks, the W-commutation pairs, the lw-compat pairs and the
    ll-compat pairs."""
    window = range(-N, N + 1)
    pairs = [(m, n) for m in window for n in window if abs(m + n) <= N]
    return ([(m,) for m in window],
            [(m, n) for m in window for n in window if m < n],
            pairs, [(m, n) for m, n in pairs if m < n])


def _failures(instances, check):
    return (cert for idx in instances if (cert := check(*idx)) is not None)


def _touching(indices: set[int], *groups):
    """Each group's instances with one of ``indices`` among m, n, m + n."""
    return ([idx for idx in group if indices.intersection((*idx, sum(idx)))]
            for group in groups)


def _window_failures(fam: GenericFamily, at: int | None = None):
    """The certificates of the failing window identities, in the order
    check_constraints records them: the shapes (g_m = b_m L0 + d_m with
    scalar b_m, a_m in C[W0]), then W-commutation at the pairs that touch
    an a-in-W0 failure (the others are zero), and only when the shapes hold
    the [L, W] and [L, L] replays, which read g_m - g_m(L0 - c) as c*b_m,
    at the pairs that touch S where :func:`virab.repmod._near` gives it
    (the others are zero).  Given ``at``, only the instances that read
    index ``at``: every shape check, and the pairs with ``at`` among m, n
    and m + n."""
    singles, commuting, pairs, ordered = _instances(fam.window)
    if at is not None:
        commuting, pairs, ordered = _touching({at}, commuting, pairs, ordered)
    shapes = [*_failures(singles, partial(_g_shape, fam.g_m)),
              *_failures(singles, partial(_a_in_W0, fam.a_m))]
    yield from shapes
    with_s = {c.indices[0] for c in shapes if c.constraint == "a-in-W0"}
    yield from _failures([i for i in commuting if with_s.intersection(i)],
                         partial(_w_commutation, fam.a, fam.a_m))
    if shapes:
        return
    if at is None and (near := _near(fam, fam.window)) is not None:
        pairs, ordered = _touching(near, pairs, ordered)
    p = _parts(fam)
    yield from _failures(pairs, partial(_lw_compat, p))
    yield from _failures(ordered, partial(_ll_compat, p))


def _report(suite: str, fam: GenericFamily) -> Report:
    return Report(suite=suite, params={
        "a": format_scalar(fam.a),
        "b": format_scalar(fam.b),
        "window": str(fam.window),
    })


def check_constraints(fam: GenericFamily) -> Report:
    """Evaluate the window identities on the candidate data and record
    every failing instance, so every failure is a sound statement about
    the data.  The per-index parts of the replays (b_m, b*m, a_m', d_m'
    and (a + b*m) a_m) are built once, and each instance is one
    BiPoly.sum_of_products call over them."""
    t0 = perf_counter()
    report = _report("check-constraints", fam)
    for cert in _window_failures(fam):
        report.fail(cert.constraint, cert.indices, cert.residue_text)
    singles, commuting, pairs, ordered = _instances(fam.window)
    report.checks = 2 * len(singles) + len(commuting)
    if not any(f.constraint in _SHAPES for f in report.failures):
        report.checks += len(pairs) + len(ordered)
    report.elapsed = perf_counter() - t0
    return report


# --- the solver ----------------------------------------------------------

def solve_candidate(
    fam: GenericFamily,
) -> CanonicalParams | InfeasibilityCertificate | Undetermined:
    """The parameters read off the window's seeds when their module
    rebuilds the whole window, else the first failing window identity
    that reads the first index where it differs, else the first failing
    one, else Undetermined there (see the module docstring)."""
    spec = _read(fam)
    if spec is None:
        return next(_window_failures(fam))
    for m in range(-fam.window, fam.window + 1):
        for given, rebuilt in zip(fam.data(m), spec.data(m)):
            if given != rebuilt:
                return (next(_window_failures(fam, m), None)
                        or next(_window_failures(fam), None)
                        or Undetermined(m, given - rebuilt))
    return CanonicalParams(spec.family, spec.lam, spec.alpha, spec.coeffs)


def isom_decide(p: CanonicalParams, q: CanonicalParams, b: Scalar) -> bool:
    """Are the two parameter sets isomorphic as modules over the algebra at
    this b?  lambda and the coefficient sequence always decide; alpha is an
    invariant exactly where it enters the data (phi at b = 1 and b = -1,
    see repmod._alpha_weights) and is normalized away elsewhere.  theta
    has no alpha, and a b the family cannot live over is refused."""
    if p.family is not q.family:
        raise ValueError("cannot compare parameters across families")
    _check_params(p.family, p.lam, p.alpha, b)  # q shares the family
    return (p.lam == q.lam and p.coeffs == q.coeffs
            and (p.alpha == q.alpha or not any(_alpha_weights(b, 1))))
