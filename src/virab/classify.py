"""Finite-window classification of free-on-L0 action data.

Given a window of candidate action data (a
:class:`virab.repmod.GenericFamily`, the one window type) or just the four
generator seeds W_{+-1} . 1 and L_{+-1} . 1, decide whether it extends to
one of the two module families and recover the canonical parameters, or
produce an :class:`InfeasibilityCertificate` naming a violated constraint
with a nonzero residue at explicit witness indices.  Everything is exact.  A
certificate of a swept kind names a failing window identity, a proof over
the window; the solver's own kinds (listed last) rest on the
classification: at N = 1 a leading-coeff answer can stand on a window
where every window identity holds.

Each window constraint is one function of the data and its indices that
returns a certificate or None; every residue is a BiPoly, so it has one
canonical text.  The window constraints, in the order check_constraints
runs them (a_m = A_m t + B_m, g_m = b_m L0 + d_m, lambda = b_1):

    deg-g          (m,)    g_m is affine in L0: the terms above L0
    b-scalar       (m,)    b_m is a scalar: the t-dependent part of the
                           L0 coefficient of g_m, in t
    a-in-W0        (m,)    a_m lies in C[W0]: its L0 terms
    lw-compat      (m, n)  [L_m, W_n] . 1 replayed on the data (kills
                           a != 0)
    b-power        (m,)    b_m - lambda^m; at (1, -1), 1 - b_1 b_{-1},
                           the instance that fails when lambda = 0
    ll-compat      (m, n)  [L_m, L_n] . 1 replayed on b_m and d_m
    deg-a          (m,)    a_m is affine in W0: the terms above W0
    w-linear-A/B   (m, n)  the t (X = A) and constant (X = B) parts of
                           lw-compat at a = 0: (n + b*m) X_{m+n} - n X_n
                           lambda^m - b*m A_n X_m
    h-cocycle      (m, n)  ll-compat over a = 0 on the normalized data
                           b_m = 1, d_m = F_m = d_m / lambda^m, a_m = w_m
                           (the twist factor of repmod.twist_poly)

w-linear and h-cocycle state identities of a = 0 only, so they are not
run at a != 0, where lw-compat has already failed at (0, 0) with -a*t.
    W-commutation  (m, n)  [W_m, W_n] . 1 = 0, swept by
                           check_W_commutation (forces a_m into C[W0])

Pair indices (m, n) read as in the bracket they replay: lw-compat and
w-linear at (m, n) come from [L_m, W_n] . 1 and run over every pair with
|m|, |n|, |m + n| <= N; ll-compat and h-cocycle take the pairs with m < n,
and W-commutation every m < n in the window.  check_constraints and
check_W_commutation record every failing instance; the solver takes the
first one on its seeds, with a_0 = W0 and g_0 = L0.  A solver certificate
of one of these kinds is therefore an entry that check_constraints or
check_W_commutation lists for the same input, whenever it runs that pass.
The solver's own stages add:

    scale-branch       rejection of the spurious root of b*k^2 - k - (b-1):
                       the w-linear-A instance (1, 1) at b = -1, where A_2
                       drops out, and otherwise (2, -1) with the A_2 that
                       (1, 1) fixes
    degenerate-weight  a vanishing W-seed forces b = 1
    W-degenerate       with b = 1, one vanishing W-seed forces the other
    leading-coeff      coefficient peeling: level-k residues must scale as n
    window-mismatch    the window differs from the data the solved
                       parameters generate (first mismatch, a_m before g_m)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter
from typing import NamedTuple

from .algebra import L, W
from .polynomials import BiPoly, format_bipoly
from .repmod import (
    Family,
    GenericFamily,
    ModuleSpec,
    _require_fields,
    _scalar_field,
    _scalar_value,
    q_poly,
    twist_poly,
)
from .report import Report
from .scalars import (
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    format_scalar,
    intpow,
)


@dataclass(frozen=True)
class CanonicalParams:
    """Normalized module parameters: trailing zero coefficients are trimmed
    (they never change any h_n)."""

    family: Family
    lam: Scalar
    alpha: Scalar
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
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
    """A violated constraint with a witness: the residue is a nonzero
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


# the name bench/ binds for a window of claimed data
CandidateFamily = GenericFamily


# --- the window constraints, one function each ---------------------------

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


class _Parts(NamedTuple):
    """A window's per-index parts, built once by :func:`_parts`."""

    a: Scalar
    bm: dict[int, Scalar]   # b*m
    pw: dict[int, Scalar]   # lambda^m, lambda = b_1; empty when lambda = 0
    b_m: dict[int, Scalar]
    a_m: dict[int, BiPoly]
    da: dict[int, BiPoly]   # a_m'
    wa: dict[int, BiPoly]   # (a + b*m) a_m
    d_m: dict[int, BiPoly]
    dd: dict[int, BiPoly]   # d_m'


def _parts(a: Scalar, b: Scalar, N: int, a_m: dict[int, BiPoly],
           g_m: dict[int, BiPoly]) -> _Parts:
    """b*m and lambda^m for |m| <= N, the rest at the indices of a_m."""
    idx = range(-N, N + 1)
    bm = {m: b.mul_int(m) for m in idx}
    b_m = {m: g_m[m].coeff(1, 0) for m in a_m}
    # d_m, the part of g_m = b_m L0 + d_m without L0
    d_m = {m: BiPoly({k: c for k, c in g_m[m].terms.items() if not k[0]})
           for m in a_m}
    lam = b_m[1]
    return _Parts(a, bm, {m: intpow(lam, m) for m in idx} if lam else {},
                  b_m, a_m, {m: p.partial_t() for m, p in a_m.items()},
                  {m: p.scale(a + bm[m]) for m, p in a_m.items()},
                  d_m, {m: p.partial_t() for m, p in d_m.items()})


def _lw_compat(p: _Parts, m: int, n: int) -> InfeasibilityCertificate | None:
    # [L_m, W_n] . 1: (a + n + b*m) a_{m+n} - a_n (g_m - g_m(L0 - a - n))
    #   - a_n' (a + b*m) a_m, with g_m - g_m(L0 - c) = c*b_m: that needs the
    # shapes g_m = b_m L0 + d_m to hold, or m = 0 (g_0 = L0), the only m
    # the solver reads before it checks them
    c = p.a.add_int(n)
    return _cert("lw-compat", (m, n), BiPoly.sum_of_products(
        ((BiPoly.const(c + p.bm[m]), p.a_m[m + n]),),
        ((BiPoly.const(c * p.b_m[m]), p.a_m[n]), (p.wa[m], p.da[n]))))


def _b_power(p: _Parts, *idx: int) -> InfeasibilityCertificate | None:
    # b_m = lambda^m with lambda = b_1 at (m,); at (1, -1) b_1 b_{-1} = 1,
    # the instance read instead while b_1 = 0
    if len(idx) == 2:
        return _cert("b-power", idx, BiPoly.const(ONE - p.b_m[1] * p.b_m[-1]))
    (m,) = idx
    return _cert("b-power", idx, BiPoly.const(p.b_m[m] - p.pw[m]))


def _ll_compat(p: _Parts, m: int, n: int,
               constraint: str = "ll-compat") -> InfeasibilityCertificate | None:
    # [L_m, L_n] . 1 for g_m = b_m L0 + d_m, cancelled before multiplying:
    # (n-m)(b_{m+n} - b_m b_n) L0 + (n-m) d_{m+n} - n b_m d_n + m b_n d_m
    #   + d_m' (a + b*n) a_n - d_n' (a + b*m) a_m
    b_m, d_m = p.b_m, p.d_m
    return _cert(constraint, (m, n), BiPoly.sum_of_products((
        (BiPoly.const((b_m[m + n] - b_m[m] * b_m[n]).mul_int(n - m)),
         BiPoly.s_var()),
        (BiPoly.const(Scalar.from_int(n - m)), d_m[m + n]),
        (BiPoly.const(b_m[n].mul_int(m)), d_m[m]),
        (p.wa[n], p.dd[m]),
    ), ((BiPoly.const(b_m[m].mul_int(n)), d_m[n]), (p.wa[m], p.dd[n]))))


def _deg_a(a_m: dict[int, BiPoly], m: int) -> InfeasibilityCertificate | None:
    return _cert("deg-a", (m,), BiPoly(
        {(i, j): c for (i, j), c in a_m[m].terms.items() if j > 1}))


def _w_linear(p: _Parts, A: dict[int, Scalar], B: dict[int, Scalar], part: str,
              m: int, n: int) -> InfeasibilityCertificate | None:
    # (n + b*m) X_{m+n} - n X_n lambda^m - b*m A_n X_m: the t (X = A) and
    # constant (X = B) parts of lw-compat at a = 0 for a_m = A_m t + B_m and
    # g_m = lambda^m L0 + d_m
    X, bm = (A if part == "A" else B), p.bm[m]
    return _cert("w-linear-" + part, (m, n), BiPoly.const(
        bm.add_int(n) * X[m + n] - X[n].mul_int(n) * p.pw[m] - bm * A[n] * X[m]
    ))


def _w_commutation(a: Scalar, a_m: dict[int, BiPoly], m: int,
                   n: int) -> InfeasibilityCertificate | None:
    # [W_m, W_n] . 1 = a_n(L0 - a - m, W0) a_m - a_m(L0 - a - n, W0) a_n
    am, an = a_m[m], a_m[n]
    return _cert("W-commutation", (m, n), BiPoly.sum_of_products(
        ((an.shift_s(a.add_int(m)), am),), ((am.shift_s(a.add_int(n)), an),)))


def _failures(instances, *checks):
    """The certificates of the failing instances: instance by instance, and
    at each one the checks in the order given."""
    for idx in instances:
        for check in checks:
            cert = check(*idx)
            if cert is not None:
                yield cert


def _record(report: Report, instances, *checks) -> bool:
    """Run every check at every instance as one check each of report and
    record each failure; True when none failed."""
    instances = tuple(instances)
    report.checks += len(instances) * len(checks)
    before = len(report.failures)
    for cert in _failures(instances, *checks):
        report.fail(cert.constraint, cert.indices, cert.residue_text)
    return len(report.failures) == before


def _report(suite: str, fam: GenericFamily) -> Report:
    return Report(suite=suite, params={
        "a": format_scalar(fam.a),
        "b": format_scalar(fam.b),
        "window": str(fam.window),
    })


def check_W_commutation(fam: GenericFamily) -> Report:
    """[W_m, W_n] must act by zero; any L0 dependence inside a_m shows up
    here as a nonzero commutator residue."""
    t0 = perf_counter()
    report = _report("check-W-commutation", fam)
    window = range(-fam.window, fam.window + 1)
    _record(report, [(m, n) for m in window for n in window if m < n],
            partial(_w_commutation, fam.a, fam.a_m))
    report.elapsed = perf_counter() - t0
    return report


def check_constraints(fam: GenericFamily) -> Report:
    """Evaluate the displayed window identities on the candidate data.

    Shape preconditions first (g_m affine in L0 with constant L0
    coefficient, a_m in C[W0]); then the [L,W] and [L,L] replays, the
    degree bound and, at a = 0 only, the scalar recursions for the a_m
    coefficients and the cocycle identity for the normalized g_m tails.
    Later passes are skipped when the shapes or the a = 0 they presuppose
    do not hold, so every reported failure is a sound statement about the
    data.  Once the shapes hold, the window's per-index parts (b_m, b*m,
    a_m', d_m', (a + b*m) a_m and lambda^m) are built once, and each
    lw-compat, ll-compat and h-cocycle instance is one
    BiPoly.sum_of_products call over them; lw-compat reads
    g_m - g_m(L0 - c) as c*b_m, which needs g_m = b_m L0 + d_m.
    """
    t0 = perf_counter()
    report = _report("check-constraints", fam)
    _sweep_constraints(fam, report)
    report.elapsed = perf_counter() - t0
    return report


def _sweep_constraints(fam: GenericFamily, report: Report) -> None:
    N, a, b = fam.window, fam.a, fam.b
    window = range(-N, N + 1)
    singles = [(m,) for m in window]
    pairs = [(m, n) for m in window for n in window if abs(m + n) <= N]
    ordered = [(m, n) for m, n in pairs if m < n]

    # every later pass reads the parts these shapes give
    g_ok = _record(report, singles, partial(_g_shape, fam.g_m))
    if not (_record(report, singles, partial(_a_in_W0, fam.a_m)) and g_ok):
        return
    p = _parts(a, b, N, fam.a_m, fam.g_m)
    _record(report, pairs, partial(_lw_compat, p))

    lam = p.b_m[1]
    _record(report, singles if lam else [(1, -1)], partial(_b_power, p))
    if not lam:
        return
    _record(report, ordered, partial(_ll_compat, p))

    # w-linear and h-cocycle hold at a = 0 only (see the module docstring)
    if not _record(report, singles, partial(_deg_a, fam.a_m)) or a:
        return
    A = {m: fam.a_m[m].coeff(0, 1) for m in window}
    B = {m: fam.a_m[m].coeff(0, 0) for m in window}
    _record(report, pairs, partial(_w_linear, p, A, B, "A"),
            partial(_w_linear, p, A, B, "B"))

    # h-cocycle is ll-compat over a = 0 on the normalized data
    alpha = -(B[1] / lam)
    h = _parts(ZERO, b, N, {m: twist_poly(b, alpha, m) for m in window},
               {m: BiPoly.s_var() + p.d_m[m].scale(p.pw[-m]) for m in window})
    _record(report, ordered, partial(_ll_compat, h, constraint="h-cocycle"))


def extract_h_coeffs(
    F: dict[int, BiPoly], alpha: Scalar, b: Scalar
) -> tuple[Scalar, ...] | InfeasibilityCertificate:
    """Peel a coefficient sequence out of normalized tails F_n, in t alone.

    Works top degree down: the t^k coefficient of F_n must equal n times
    that of F_1 (the generating polynomials have leading coefficient n), so
    the level-k coefficient is read off F_1 and the full generating
    polynomial is subtracted from every F_n.  Any residue breaking the
    n-proportionality yields a leading-coeff certificate.
    """
    if 0 in F and F[0]:
        raise ValueError("F_0 must be zero")
    if 1 not in F:
        raise ValueError("F_1 is required")
    work = {n: p for n, p in F.items()}
    top = max((p.deg_t for p in work.values() if p), default=None)
    if top is None:
        return ()
    coeffs = [ZERO] * (int(top) + 1)
    for k in range(int(top), 0, -1):
        f1 = work[1].coeff(0, k)
        for n in sorted(work):
            actual = work[n].coeff(0, k)
            res = actual - f1.mul_int(n)
            if res:
                return InfeasibilityCertificate(
                    "leading-coeff", (n, k), BiPoly.monomial(0, k, res)
                )
        coeffs[k] = f1
        if f1:
            work = {
                n: p - q_poly(n, k, alpha, b).scale(f1)
                for n, p in work.items()
            }
    f1 = work[1].coeff(0, 0)
    for n in sorted(work):
        res = work[n] - BiPoly.const(f1.mul_int(n))
        if res:
            return InfeasibilityCertificate("leading-coeff", (n, 0), res)
    coeffs[0] = f1
    return tuple(coeffs)


def solve_from_generators(
    b: Scalar,
    a_pos: BiPoly,
    a_neg: BiPoly,
    g_pos: BiPoly,
    g_neg: BiPoly,
    a: Scalar = ZERO,
) -> CanonicalParams | InfeasibilityCertificate:
    """Recover canonical module parameters from the four generator seeds
    (W_{+-1} . 1 and L_{+-1} . 1), or certify that no module has them.

    The stages mirror the structural facts the checks are built on: a must
    vanish; a_m must avoid L0; g_m must be affine in L0 with geometric
    leading coefficients lambda^m; the W-multipliers are affine, and the
    crossed w-linear instances (-1, 1) and (1, -1) force their leading
    coefficients onto the k = 1 branch of b*k^2 - k - (b-1) = 0 (the
    other root is rejected with an explicit residue) and tie their
    constant parts, which yield alpha; the normalized g-tails yield the
    coefficient sequence by peeling.  Only the seeds are read: the other
    window entries are solve_candidate's to check.
    """
    t_var = BiPoly.t_var()
    a_m = {-1: a_neg, 0: t_var, 1: a_pos}
    g_m = {-1: g_neg, 0: BiPoly.s_var(), 1: g_pos}
    # the seeds' parts; b*m and lambda^m reach m = 2 for scale-branch
    p = _parts(a, b, 2, a_m, g_m)
    seeds = ((1,), (-1,))

    def first(instances, *checks):
        return next(_failures(instances, *checks), None)

    # a = 0 is forced by lw-compat at (0, 1), or else at (0, 0), which
    # reads -a*t
    if a:
        return first(((0, 1), (0, 0)), partial(_lw_compat, p))

    # the commutator vanishes when the other seed is zero (theta), and
    # a-in-W0 then shows the L0 terms
    lam, lam_inv = p.b_m[1], p.b_m[-1]
    cert = (first(((-1, 1),), partial(_w_commutation, ZERO, a_m))
            or first(seeds, partial(_a_in_W0, a_m))
            or first(seeds, partial(_g_shape, g_m))
            or first(seeds if lam else ((1, -1),), partial(_b_power, p)))
    if cert:
        return cert

    def peel(family, alpha, b):
        # the normalized g-tails carry the coefficient sequence
        coeffs = extract_h_coeffs({-1: p.d_m[-1].scale(lam),
                                   0: BiPoly.zero(),
                                   1: p.d_m[1].scale(lam_inv)},
                                  alpha, b)
        if isinstance(coeffs, InfeasibilityCertificate):
            return coeffs
        return CanonicalParams(family, lam, alpha, coeffs)

    # degenerate branch: vanishing W-seeds
    if not a_pos or not a_neg:
        if b != ONE:  # read at (-1, 1) unless only a_neg vanishes
            at, k = ((1, -1), b - ONE) if a_pos else ((-1, 1), ONE - b)
            return InfeasibilityCertificate("degenerate-weight", at,
                                            t_var.scale(k))
        if not (a_pos or a_neg):
            return peel(Family.THETA, ZERO, ONE)
        if not a_pos:
            return InfeasibilityCertificate("W-degenerate", (-2, 1), -a_neg)
        return InfeasibilityCertificate("W-degenerate", (2, -1), a_pos)

    # W-multipliers must be affine: a_m = A_m t + B_m
    cert = first(seeds, partial(_deg_a, a_m))
    if cert:
        return cert
    A1, B1 = a_pos.coeff(0, 1), a_pos.coeff(0, 0)
    A = {-1: a_neg.coeff(0, 1), 0: ONE, 1: A1}
    B = {-1: a_neg.coeff(0, 0), 0: ZERO, 1: B1}
    crossed = ((-1, 1), (1, -1))

    # the crossed instances force A_{-1} = A_1 / lambda^2 and
    # b*k^2 - k - (b-1) = 0 for k = A_1 / lambda
    cert = first(crossed, partial(_w_linear, p, A, B, "A"))
    if cert:
        return cert

    # the root k = (1-b)/b fails the w-linear-A instance (1, 1) when b = -1,
    # where A_2 drops out, and otherwise (2, -1) once (1, 1) has fixed
    # (1 + b) A_2 = A_1 lambda + b A_1^2
    if A1 and A1 != lam:
        if b == MINUS_ONE:
            A[2], at = ZERO, (1, 1)
        else:
            A[2], at = A1 * (lam + b * A1) / (ONE + b), (2, -1)
        return replace(_w_linear(p, A, B, "A", *at),
                       constraint="scale-branch")

    # with A_{+-1} = lambda^{+-1} the crossed instances force B_{+-1} = 0
    # unless b = +-1, and B_1 = b * lambda^2 * B_{-1} then; the root k = 0
    # (b = 1, A_{+-1} = 0, so B_1 != 0) fails at (-1, 1).  Every other B_m
    # is read by solve_candidate's window check.
    cert = first(crossed, partial(_w_linear, p, A, B, "B"))
    if cert:
        return cert

    return peel(Family.PHI, -(B1 * lam_inv), b)


def solve_candidate(
    fam: GenericFamily,
) -> CanonicalParams | InfeasibilityCertificate:
    """Solve from a candidate window's generator seeds, then compare the
    whole window with the data the solved parameters generate, in the
    order m = -N..N with a_m before g_m at each m.  The first mismatch is
    a window-mismatch certificate at (m,) with residue candidate - rebuilt.
    """
    out = solve_from_generators(
        fam.b,
        fam.a_m[1],
        fam.a_m[-1],
        fam.g_m[1],
        fam.g_m[-1],
        fam.a,
    )
    if isinstance(out, InfeasibilityCertificate):
        return out
    spec = ModuleSpec(out.family, fam.b, out.lam, out.alpha, out.coeffs)
    for m in range(-fam.window, fam.window + 1):
        for given, sym in ((fam.a_m[m], W(m)), (fam.g_m[m], L(m))):
            res = given - spec.op(sym).p
            if res:
                return InfeasibilityCertificate("window-mismatch", (m,), res)
    return out


def isom_decide(p: CanonicalParams, q: CanonicalParams, b: Scalar) -> bool:
    """Are the two parameter sets isomorphic as modules over the algebra at
    this b?  For b in {1, -1} every parameter is an invariant; otherwise
    alpha is not (it can be normalized away), so only lambda and the
    coefficient sequence decide."""
    if p.family is not q.family:
        raise ValueError("cannot compare parameters across families")
    if p.family is Family.THETA:
        return p.lam == q.lam and p.coeffs == q.coeffs
    if b == ONE or b == MINUS_ONE:
        return p.lam == q.lam and p.alpha == q.alpha and p.coeffs == q.coeffs
    return p.lam == q.lam and p.coeffs == q.coeffs
