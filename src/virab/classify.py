"""Finite-window classification of free-on-L0 action data.

Given a window of candidate action data (or just the four generator seeds
W_{+-1} . 1 and L_{+-1} . 1), decide whether it extends to one of the two
module families and recover the canonical parameters, or produce an
:class:`InfeasibilityCertificate` naming a violated constraint with a
nonzero residue at explicit witness indices.  Everything is exact, so the
answer is a proof either way, within the window.

The constraint identifiers used by certificates and failure entries:

    W-commutation      [W_m, W_n] . 1 = 0 (forces a_m to lie in C[W0])
    lw-compat          [L_m, W_n] . 1 replayed on the data (kills a != 0)
    ll-compat          [L_m, L_n] . 1 replayed on the data
    w-linear-A/B       the scalar recursions for a_m = A_m*t + B_m
    scale-branch       rejection of the spurious root of b*k^2 - k - (b-1)
    degenerate-weight  a vanishing W-seed forces b = 1
    W-degenerate       with b = 1, one vanishing W-seed forces the other
    h-cocycle          the shifted-derivation identity for F_m = d_m/lambda^m
    leading-coeff      coefficient peeling: level-k residues must scale as n
    deg-g/deg-a        degree bounds (g affine in L0, a affine in W0)
    a-in-W0/b-scalar   shape preconditions for the displayed identities
    b-power            b_m must be lambda^m
    window-mismatch    the window differs from the data the solved
                       parameters generate (first mismatch, a_m before g_m)

Pair indices (m, n) read as in the bracket they replay: lw-compat and
w-linear at (m, n) come from [L_m, W_n] . 1 and run over every pair with
|m|, |n|, |m + n| <= N; ll-compat at (m, n) is [L_m, L_n] . 1 with m < n.
Each identity is written once (``_lw_compat``, ``_w_linear``) and read off
the data it is given: check_constraints sweeps the window, and the solver
evaluates the same functions on its seeds with a_0 = W0 and g_0 = L0 (so
A_0 = 1 and B_0 = 0).  A solver certificate for either identity therefore
re-evaluates on the input: whenever check_constraints runs that pass, it
lists the same constraint, indices and residue value.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

from .algebra import L, W
from .polynomials import BiPoly, UniPoly, format_bipoly, format_unipoly
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


@dataclass(frozen=True)
class CandidateFamily:
    """Window of claimed action data, as loose as the checks allow: a_m may
    depend on L0 here (check_W_commutation is what rules that out)."""

    a: Scalar
    b: Scalar
    window: int
    a_m: dict[int, BiPoly] = field(compare=False)
    g_m: dict[int, BiPoly] = field(compare=False)

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        for m in range(-self.window, self.window + 1):
            if m not in self.a_m or m not in self.g_m:
                raise ValueError(f"missing data for index {m}")
        if self.a_m[0] != BiPoly.t_var():
            raise ValueError("a_0 must equal W0")
        if self.g_m[0] != BiPoly.s_var():
            raise ValueError("g_0 must equal L0")

    @classmethod
    def from_generic(cls, fam: GenericFamily) -> CandidateFamily:
        return cls(
            fam.a,
            fam.b,
            fam.window,
            {m: p.embed() for m, p in fam.a_m.items()},
            dict(fam.g_m),
        )


def _commutation_residue(
    fam_a: Scalar, m: int, n: int, am: BiPoly, an: BiPoly
) -> BiPoly:
    # [W_m, W_n] . 1 = a_n(L0 - a - m, W0) a_m - a_m(L0 - a - n, W0) a_n
    return an.shift_s(fam_a.add_int(m)) * am - am.shift_s(fam_a.add_int(n)) * an


def _lw_compat(
    a: Scalar, b: Scalar, a_m: dict[int, BiPoly], g_m: dict[int, BiPoly],
    m: int, n: int,
) -> BiPoly:
    # [L_m, W_n] . 1: (a + n + b*m) a_{m+n} - a_n (g_m - g_m(L0 - a - n))
    #   - (a + b*m) a_n' a_m
    gm, an = g_m[m], a_m[n]
    return (
        a_m[m + n].scale(a.add_int(n) + b.mul_int(m))
        - an * (gm - gm.shift_s(a.add_int(n)))
        - (an.partial_t() * a_m[m]).scale(a + b.mul_int(m))
    )


def _w_linear(
    a: Scalar, b: Scalar, lam: Scalar, X: dict[int, Scalar],
    A: dict[int, Scalar], m: int, n: int,
) -> Scalar:
    # (a + n + b*m) X_{m+n} - n X_n lambda^m - b*m A_n X_m: the t (X = A)
    # and constant (X = B) parts of lw-compat at a = 0 for a_m = A_m t + B_m
    # and g_m = lambda^m L0 + d_m
    return (
        (a.add_int(n) + b.mul_int(m)) * X[m + n]
        - X[n].mul_int(n) * intpow(lam, m)
        - b.mul_int(m) * A[n] * X[m]
    )


def _first_failure(
    constraint: str, instances: tuple[tuple[int, int], ...],
    residue: Callable[[int, int], BiPoly],
) -> InfeasibilityCertificate | None:
    """The certificate at the first (m, n) whose residue is nonzero."""
    for m, n in instances:
        res = residue(m, n)
        if res:
            return InfeasibilityCertificate(constraint, (m, n), res)
    return None


def _s_terms_above(p: BiPoly, k: int) -> BiPoly:
    """The terms of p whose power of s (L0) exceeds k."""
    return BiPoly({(i, j): c for (i, j), c in p.terms.items() if i > k})


def check_W_commutation(fam: CandidateFamily) -> Report:
    """[W_m, W_n] must act by zero; any L0 dependence inside a_m shows up
    here as a nonzero commutator residue."""
    t0 = perf_counter()
    report = Report(
        suite="check-W-commutation",
        params={
            "a": format_scalar(fam.a),
            "b": format_scalar(fam.b),
            "window": str(fam.window),
        },
    )
    checks = 0
    for m in range(-fam.window, fam.window + 1):
        for n in range(m + 1, fam.window + 1):
            checks += 1
            res = _commutation_residue(fam.a, m, n, fam.a_m[m], fam.a_m[n])
            if res:
                report.fail("W-commutation", (m, n), format_bipoly(res))
    report.checks = checks
    report.elapsed = perf_counter() - t0
    return report


def check_constraints(fam: CandidateFamily) -> Report:
    """Evaluate the displayed window identities on the candidate data.

    Shape preconditions first (g_m affine in L0 with constant L0
    coefficient, a_m in C[W0] and affine); then the [L,W] and [L,L]
    replays, the scalar recursions for the a_m coefficients, and the
    cocycle identity for the normalized g_m tails.  Later passes are
    skipped when the shapes they presuppose are violated, so every
    reported failure is a sound statement about the data.
    """
    t0 = perf_counter()
    N = fam.window
    a, b = fam.a, fam.b
    report = Report(
        suite="check-constraints",
        params={
            "a": format_scalar(a),
            "b": format_scalar(b),
            "window": str(N),
        },
    )
    checks = 0
    window = range(-N, N + 1)

    shapes_ok = True
    a_uni: dict[int, UniPoly] = {}
    b_m: dict[int, Scalar] = {}
    d_m: dict[int, UniPoly] = {}
    for m in window:
        checks += 1
        gm = fam.g_m[m]
        excess = _s_terms_above(gm, 1)
        if excess:
            report.fail("deg-g", (m,), format_bipoly(excess))
            shapes_ok = False
            continue
        lead = gm.coeff_s_power(1)
        if lead.degree > 0:
            report.fail("b-scalar", (m,), format_unipoly(lead))
            shapes_ok = False
            continue
        b_m[m] = lead.coeff(0)
        d_m[m] = gm.coeff_s_power(0)
    for m in window:
        checks += 1
        am = fam.a_m[m]
        if am.deg_s > 0:
            report.fail("a-in-W0", (m,), format_bipoly(_s_terms_above(am, 0)))
            shapes_ok = False
            continue
        a_uni[m] = am.to_unipoly_t()
    if not shapes_ok:
        report.checks = checks
        report.elapsed = perf_counter() - t0
        return report

    for m in window:
        for n in window:
            if abs(m + n) > N:
                continue
            checks += 1
            res = _lw_compat(a, b, fam.a_m, fam.g_m, m, n)
            if res:
                report.fail("lw-compat", (m, n), format_bipoly(res))

    # b_m must be the geometric sequence lambda^m
    lam = b_m[1]
    if not lam:
        report.fail("b-power", (1, -1), format_scalar(ONE - b_m[1] * b_m[-1]))
        report.checks = checks + 1
        report.elapsed = perf_counter() - t0
        return report
    for m in window:
        checks += 1
        res = b_m[m] - intpow(lam, m)
        if res:
            report.fail("b-power", (m,), format_scalar(res))

    # [L_m, L_n] . 1 with b_m constant:
    # (n-m)(b_{m+n} L0 + d_{m+n}) = (n-m) b_m b_n L0 + n b_m d_n - m b_n d_m
    #   - (a + b*n) d_m' a_n + (a + b*m) d_n' a_m
    s_var = BiPoly.s_var()
    for m in window:
        for n in window:
            if n <= m or abs(m + n) > N:
                continue
            checks += 1
            lhs = (
                s_var.scale(b_m[m + n]) + d_m[m + n].embed()
            ).scale(Scalar.from_int(n - m))
            rhs = s_var.scale((b_m[m] * b_m[n]).mul_int(n - m))
            rhs = rhs + (
                d_m[n].scale(b_m[m].mul_int(n))
                - d_m[m].scale(b_m[n].mul_int(m))
            ).embed()
            rhs = rhs - (d_m[m].deriv() * a_uni[n]).scale(
                a + b.mul_int(n)).embed()
            rhs = rhs + (d_m[n].deriv() * a_uni[m]).scale(
                a + b.mul_int(m)).embed()
            res = lhs - rhs
            if res:
                report.fail("ll-compat", (m, n), format_bipoly(res))

    # a_m = A_m t + B_m: degree bound, then the scalar recursions
    linear_ok = True
    for m in window:
        checks += 1
        if a_uni[m].degree > 1:
            tail = UniPoly({k: c for k, c in a_uni[m].terms.items() if k > 1})
            report.fail("deg-a", (m,), format_unipoly(tail))
            linear_ok = False
    if linear_ok:
        A = {m: a_uni[m].coeff(1) for m in window}
        B = {m: a_uni[m].coeff(0) for m in window}
        for m in window:
            for n in window:
                if abs(m + n) > N:
                    continue
                checks += 2
                for name, X in (("w-linear-A", A), ("w-linear-B", B)):
                    res = _w_linear(a, b, lam, X, A, m, n)
                    if res:
                        report.fail(name, (m, n), format_scalar(res))

        # cocycle identity for F_m = lambda^(-m) d_m:
        # (n-m) F_{m+n} = n F_n - m F_m - n b F_m' w_n + m b F_n' w_m
        alpha = -(B[1] / lam)
        F = {m: d_m[m].scale(intpow(lam, -m)) for m in window}
        for m in window:
            for n in window:
                if n <= m or abs(m + n) > N:
                    continue
                checks += 1
                lhs = F[m + n].scale_int(n - m)
                rhs = F[n].scale_int(n) - F[m].scale_int(m)
                rhs = rhs - (F[m].deriv() * twist_poly(b, alpha, n)).scale(
                    b.mul_int(n)
                )
                rhs = rhs + (F[n].deriv() * twist_poly(b, alpha, m)).scale(
                    b.mul_int(m)
                )
                res = lhs - rhs
                if res:
                    report.fail("h-cocycle", (m, n), format_unipoly(res))

    report.checks = checks
    report.elapsed = perf_counter() - t0
    return report


def extract_h_coeffs(
    F: dict[int, UniPoly], alpha: Scalar, b: Scalar
) -> tuple[Scalar, ...] | InfeasibilityCertificate:
    """Peel a coefficient sequence out of normalized tails F_n.

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
    top = max((p.degree for p in work.values() if p), default=None)
    if top is None:
        return ()
    coeffs = [ZERO] * (int(top) + 1)
    for k in range(int(top), 0, -1):
        f1 = work[1].coeff(k)
        for n in sorted(work):
            actual = work[n].coeff(k)
            res = actual - f1.mul_int(n)
            if res:
                return InfeasibilityCertificate(
                    "leading-coeff", (n, k), UniPoly.monomial(k, res).embed()
                )
        coeffs[k] = f1
        if f1:
            work = {
                n: p - q_poly(n, k, alpha, b).scale(f1)
                for n, p in work.items()
            }
    f1 = work[1].coeff(0)
    for n in sorted(work):
        res = work[n] - UniPoly.const(f1.mul_int(n))
        if res:
            return InfeasibilityCertificate(
                "leading-coeff", (n, 0), res.embed()
            )
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

    # a = 0 is forced by lw-compat at (0, 1), or else at (0, 0), which
    # reads -a*t
    if a:
        a_m, g_m = {0: t_var, 1: a_pos}, {0: BiPoly.s_var()}
        return _first_failure("lw-compat", ((0, 1), (0, 0)),
                              lambda m, n: _lw_compat(a, b, a_m, g_m, m, n))

    if a_pos.deg_s > 0 or a_neg.deg_s > 0:
        res = _commutation_residue(ZERO, 1, -1, a_pos, a_neg)
        if res:
            return InfeasibilityCertificate("W-commutation", (1, -1), res)
        # the commutator vanishes when the other seed is zero (theta)
        idx, am = (1, a_pos) if a_pos.deg_s > 0 else (-1, a_neg)
        return InfeasibilityCertificate("a-in-W0", (idx,),
                                        _s_terms_above(am, 0))
    w_pos = a_pos.to_unipoly_t()
    w_neg = a_neg.to_unipoly_t()

    # g seeds: affine in L0, constant leading coefficient, b_1 b_{-1} = 1
    for idx, g in ((1, g_pos), (-1, g_neg)):
        excess = _s_terms_above(g, 1)
        if excess:
            return InfeasibilityCertificate("deg-g", (idx,), excess)
        lead = g.coeff_s_power(1)
        if lead.degree > 0:
            return InfeasibilityCertificate(
                "b-scalar", (idx,), UniPoly(
                    {k: c for k, c in lead.terms.items() if k > 0}
                ).embed(),
            )
    lam = g_pos.coeff(1, 0)
    b_neg = g_neg.coeff(1, 0)
    if lam * b_neg != ONE:
        return InfeasibilityCertificate(
            "b-power", (1, -1), BiPoly.const(ONE - lam * b_neg)
        )
    lam_inv = b_neg

    # degenerate branch: vanishing W-seeds
    if not w_pos or not w_neg:
        if not (w_pos or w_neg):
            if b != ONE:
                return InfeasibilityCertificate(
                    "degenerate-weight", (-1, 1), t_var.scale(ONE - b)
                )
            d1 = g_pos.coeff_s_power(0).scale(lam_inv)
            dm1 = g_neg.coeff_s_power(0).scale(lam)
            coeffs = extract_h_coeffs(
                {-1: dm1, 0: UniPoly.zero(), 1: d1}, ZERO, ONE
            )
            if isinstance(coeffs, InfeasibilityCertificate):
                return coeffs
            return CanonicalParams(Family.THETA, lam, ZERO, coeffs)
        if b != ONE:
            if not w_pos:
                return InfeasibilityCertificate(
                    "degenerate-weight", (-1, 1), t_var.scale(ONE - b)
                )
            return InfeasibilityCertificate(
                "degenerate-weight", (1, -1), t_var.scale(b - ONE)
            )
        if not w_pos:
            return InfeasibilityCertificate(
                "W-degenerate", (-2, 1), (-w_neg).embed()
            )
        return InfeasibilityCertificate(
            "W-degenerate", (2, -1), w_pos.embed()
        )

    # W-multipliers must be affine: a_m = A_m t + B_m
    for idx, w in ((1, w_pos), (-1, w_neg)):
        if w.degree > 1:
            tail = UniPoly({k: c for k, c in w.terms.items() if k > 1})
            return InfeasibilityCertificate("deg-a", (idx,), tail.embed())
    A1, B1 = w_pos.coeff(1), w_pos.coeff(0)
    Am1, Bm1 = w_neg.coeff(1), w_neg.coeff(0)
    A = {-1: Am1, 0: ONE, 1: A1}
    B = {-1: Bm1, 0: ZERO, 1: B1}
    crossed = ((-1, 1), (1, -1))

    # the crossed instances force A_{-1} = A_1 / lambda^2 and
    # b*k^2 - k - (b-1) = 0 for k = A_1 / lambda
    cert = _first_failure("w-linear-A", crossed, lambda m, n: BiPoly.const(
        _w_linear(ZERO, b, lam, A, A, m, n)))
    if cert:
        return cert

    # the root k = (1-b)/b fails at (2, -1) once (1, 1) has fixed
    # (1 + b) A_2 = A_1 lambda + b A_1^2, or at (1, 1) itself when b = -1
    if A1 and A1 != lam:
        A[2] = ZERO
        res = -_w_linear(ZERO, b, lam, A, A, 1, 1)
        if b == MINUS_ONE:
            return InfeasibilityCertificate(
                "scale-branch", (1, 1), BiPoly.const(res)
            )
        A[2] = res / (ONE + b)
        return InfeasibilityCertificate("scale-branch", (-1, 2), BiPoly.const(
            _w_linear(ZERO, b, lam, A, A, 2, -1)))

    # with A_{+-1} = lambda^{+-1} the crossed instances force B_{+-1} = 0
    # unless b = +-1, and B_1 = b * lambda^2 * B_{-1} then; the root k = 0
    # (b = 1, A_{+-1} = 0, so B_1 != 0) fails at (-1, 1).  Every other B_m
    # is read by solve_candidate's window check.
    cert = _first_failure("w-linear-B", crossed, lambda m, n: BiPoly.const(
        _w_linear(ZERO, b, lam, B, A, m, n)))
    if cert:
        return cert

    alpha = -(B1 * lam_inv)

    # normalized g-tails carry the coefficient sequence
    d1 = g_pos.coeff_s_power(0).scale(lam_inv)
    dm1 = g_neg.coeff_s_power(0).scale(lam)
    coeffs = extract_h_coeffs({-1: dm1, 0: UniPoly.zero(), 1: d1}, alpha, b)
    if isinstance(coeffs, InfeasibilityCertificate):
        return coeffs
    return CanonicalParams(Family.PHI, lam, alpha, coeffs)


def solve_candidate(
    fam: CandidateFamily,
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
