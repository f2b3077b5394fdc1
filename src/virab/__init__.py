"""Exact computations with the Lie algebras W(a,b) and Vir(a,b) and their
rank-one free modules on the polynomial space C[s, t].

Everything is computed over Q(i) with exact arithmetic: bracket tables and
their axiom sweeps, the two module families and their verification, the
classifier that reads canonical parameters off candidate action data (or
returns an infeasibility certificate, a failing window identity),
isomorphism decisions, and submodule exploration.
"""

from .algebra import (
    AlgebraParams,
    AlgElement,
    BasisSymbol,
    C,
    Case,
    L,
    W,
    bracket,
    bracket_lin,
    classify_case,
    format_element,
    verify_algebra,
)
from .classify import (
    CandidateFamily,
    CanonicalParams,
    InfeasibilityCertificate,
    Undetermined,
    check_constraints,
    isom_decide,
    solve_candidate,
)
from .grammar import parse_bipoly, parse_element, parse_symbol, parse_unipoly
from .orbit import SubspaceBasis, check_invariant_subspace, orbit_closure
from .polynomials import BiPoly, UniPoly, divided_difference, format_bipoly, format_unipoly
from .report import Failure, Report
from .repmod import (
    Family,
    GenericFamily,
    ModuleSpec,
    act_element,
    act_sym,
    apply_enveloping,
    q_poly,
    verify_module,
)
from .scalars import ParseError, Scalar, format_scalar, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "AlgElement",
    "AlgebraParams",
    "BasisSymbol",
    "BiPoly",
    "C",
    "CandidateFamily",
    "CanonicalParams",
    "Case",
    "Failure",
    "Family",
    "GenericFamily",
    "InfeasibilityCertificate",
    "L",
    "ModuleSpec",
    "ParseError",
    "Report",
    "Scalar",
    "SubspaceBasis",
    "Undetermined",
    "UniPoly",
    "W",
    "act_element",
    "act_sym",
    "apply_enveloping",
    "bracket",
    "bracket_lin",
    "check_constraints",
    "check_invariant_subspace",
    "classify_case",
    "divided_difference",
    "format_bipoly",
    "format_element",
    "format_scalar",
    "format_unipoly",
    "isom_decide",
    "orbit_closure",
    "parse_bipoly",
    "parse_element",
    "parse_scalar",
    "parse_symbol",
    "parse_unipoly",
    "q_poly",
    "solve_candidate",
    "verify_algebra",
    "verify_module",
    "__version__",
]
