"""Command-line front end.

Thin adapters only: each subcommand parses its inputs, calls one core
operation and renders the result through the shared format routines.
Exit status is 0 for a passing run, 1 when a verification or feasibility
check fails, 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from .algebra import (
    _SPECIAL,
    AlgebraParams,
    Case,
    bracket,
    classify_case,
    verify_algebra,
)
from .classify import CanonicalParams, solve_candidate, isom_decide
from .grammar import (
    format_bipoly,
    format_element,
    parse_bipoly,
    parse_scalar,
    parse_symbol,
)
from .orbit import check_invariant_subspace, orbit_closure
from .polynomials import BiPoly
from .report import Report
from .repmod import (
    GenericFamily,
    ModuleSpec,
    _require_fields,
    _scalar_field,
    act_sym,
    q_poly,
    verify_module,
)
from .scalars import format_scalar

_FIXED_CASES = {case: ab for ab, case in _SPECIAL.items()}


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def _algebra_params(args) -> AlgebraParams:
    case = Case(args.case)
    if case in _FIXED_CASES:
        if args.a is not None or args.b is not None:
            raise ValueError(f"--a/--b are implied by case {case.value}")
        a, b = _FIXED_CASES[case]
    else:
        if args.a is None or args.b is None:
            raise ValueError(f"case {case.value} needs explicit --a and --b")
        a, b = parse_scalar(args.a), parse_scalar(args.b)
    params = classify_case(a, b, want_extension=case != Case.W_ONLY)
    if params.case != case:
        raise ValueError(
            f"(a, b) = ({format_scalar(a)}, {format_scalar(b)}) "
            f"belongs to case {params.case.value}"
        )
    return params


def _candidate_from_doc(doc: dict) -> GenericFamily:
    _require_fields(doc, {"a", "b", "N", "a_m", "g_m"}, "candidate document")
    window = doc["N"]
    if not isinstance(window, int) or isinstance(window, bool):
        raise ValueError(f"field 'N' must be an integer, got {window!r}")
    return GenericFamily(
        a=_scalar_field(doc, "a"),
        b=_scalar_field(doc, "b"),
        window=window,
        a_m=_index_table(doc, "a_m"),
        g_m=_index_table(doc, "g_m"),
    )


def _index_table(doc: dict, key: str) -> dict[int, BiPoly]:
    """Field ``key`` of a candidate document: a JSON object from integers,
    written in canonical form, to polynomial strings in s and t."""
    table = doc[key]
    if not isinstance(table, dict):
        raise ValueError(f"field {key!r} must be an object, got {table!r}")
    out = {}
    for m, p in table.items():
        if not (re.fullmatch("0|-?[1-9][0-9]*", m) and isinstance(p, str)):
            raise ValueError(f"field {key!r} must map integer strings to "
                             f"polynomial strings, got {m!r}: {p!r}")
        try:
            out[int(m)] = parse_bipoly(p)
        except ValueError as exc:
            raise ValueError(f"field {key!r} must hold a polynomial at "
                             f"index {m}: {exc}") from None
    return out


def _parse_bounds(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ValueError("--bounds expects two comma-separated integers, e.g. 8,8")


def _parse_predicate(text: str):
    found = re.fullmatch("([st])>=(-?[0-9]+)", text.replace(" ", ""))
    if found is None:
        raise ValueError("--invariant expects 's>=K' or 't>=K'")
    k = int(found[2])
    if found[1] == "s":
        return lambda i, j: i >= k
    return lambda i, j: j >= k


def _render_report(report: Report, fmt: str) -> str:
    return report.to_json() if fmt == "json" else report.to_text()


def _render_value(suite: str, params: dict, result: str, fmt: str) -> str:
    if fmt == "text":
        return result
    report = Report(suite=suite, params=params, checks=1)
    report.data["result"] = result
    return report.to_json()


def _cmd_bracket(args) -> tuple[int, str]:
    params = _algebra_params(args)
    out = bracket(parse_symbol(args.x), parse_symbol(args.y), params)
    echo = {"case": params.case.value, "x": args.x, "y": args.y}
    return 0, _render_value("bracket", echo, format_element(out), args.format)


def _cmd_verify_algebra(args) -> tuple[int, str]:
    report = verify_algebra(_algebra_params(args), window=args.window)
    return (0 if report.passed else 1), _render_report(report, args.format)


def _cmd_act(args) -> tuple[int, str]:
    spec = ModuleSpec.from_dict(_load_json(args.spec))
    sym = parse_symbol(args.op)
    image = act_sym(spec, sym, parse_bipoly(args.poly))
    echo = {"op": args.op, "poly": args.poly}
    return 0, _render_value("act", echo, format_bipoly(image), args.format)


def _cmd_verify_module(args) -> tuple[int, str]:
    spec = ModuleSpec.from_dict(_load_json(args.spec))
    report = verify_module(spec, window=args.window, degree=args.deg)
    return (0 if report.passed else 1), _render_report(report, args.format)


def _cmd_qpoly(args) -> tuple[int, str]:
    alpha = parse_scalar(args.alpha)
    b = parse_scalar(args.b)
    poly = q_poly(args.n, args.k, alpha, b)
    echo = {"n": str(args.n), "k": str(args.k), "alpha": args.alpha, "b": args.b}
    return 0, _render_value("qpoly", echo, format_bipoly(poly), args.format)


def _cmd_classify(args) -> tuple[int, str]:
    fam = _candidate_from_doc(_load_json(args.candidate))
    out = solve_candidate(fam)
    if isinstance(out, CanonicalParams):
        if args.format == "json":
            return 0, json.dumps(out.to_dict(), indent=2)
        doc = out.to_dict()
        coeffs = ", ".join(doc["coeffs"]) or "(empty)"
        return 0, (
            f"family = {doc['family']}\nlambda = {doc['lambda']}\n"
            f"alpha = {doc['alpha']}\ncoeffs = {coeffs}"
        )
    if args.format == "json":
        return 1, json.dumps(out.to_dict(), indent=2)
    at = ", ".join(str(i) for i in out.indices)
    return 1, (
        f"infeasible: {out.constraint} at ({at}), residue {out.residue_text}"
    )


def _cmd_isom(args) -> tuple[int, str]:
    p = CanonicalParams.from_dict(_load_json(args.p))
    q = CanonicalParams.from_dict(_load_json(args.q))
    verdict = isom_decide(p, q, parse_scalar(args.b))
    if args.format == "json":
        return 0, json.dumps({"isomorphic": verdict}, indent=2)
    return 0, "true" if verdict else "false"


def _cmd_orbit(args) -> tuple[int, str]:
    spec = ModuleSpec.from_dict(_load_json(args.spec))
    bounds = _parse_bounds(args.bounds)
    if args.invariant is not None:
        if args.seed or args.max_rounds is not None:
            flag = "--seed" if args.seed else "--max-rounds"
            raise ValueError(f"--invariant cannot be combined with {flag}")
        ok = check_invariant_subspace(
            spec, _parse_predicate(args.invariant), window=args.window, bounds=bounds
        )
        if args.format == "json":
            return 0, json.dumps({"invariant": ok}, indent=2)
        return 0, "true" if ok else "false"
    if not args.seed:
        raise ValueError("orbit needs at least one --seed (or --invariant)")
    seeds = [parse_bipoly(s) for s in args.seed]
    rounds = 6 if args.max_rounds is None else args.max_rounds
    report = orbit_closure(spec, seeds, args.window, bounds, rounds)
    return (0 if report.passed else 1), _render_report(report, args.format)


@cache  # parsing reads the tree and never changes it
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="virab",
        description="Exact computations with W(a,b) and Vir(a,b) modules",
    )
    sub = top.add_subparsers(dest="command", required=True)
    cases = [c.value for c in Case]

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the output to this path instead of stdout")

    def algebra_flags(p):
        p.add_argument("--case", choices=cases, required=True)
        p.add_argument("--a", help="scalar a (cases w and vir-gen)")
        p.add_argument("--b", help="scalar b (cases w and vir-gen)")

    p = sub.add_parser("bracket", help="bracket of two basis symbols")
    algebra_flags(p)
    p.add_argument("--x", required=True, help="basis symbol, e.g. L:2")
    p.add_argument("--y", required=True, help="basis symbol, e.g. L:-2")
    common(p)
    p.set_defaults(run=_cmd_bracket)

    p = sub.add_parser("verify-algebra", help="antisymmetry and Jacobi sweep")
    algebra_flags(p)
    p.add_argument("--window", type=int, default=5)
    common(p)
    p.set_defaults(run=_cmd_verify_algebra)

    p = sub.add_parser("act", help="apply one generator to a polynomial")
    p.add_argument("--spec", required=True, help="module spec JSON path")
    p.add_argument("--op", required=True, help="generator, e.g. L:1 or W:-2")
    p.add_argument("--poly", required=True, help="polynomial in s, t")
    common(p)
    p.set_defaults(run=_cmd_act)

    p = sub.add_parser("verify-module", help="bracket-compatibility sweep")
    p.add_argument("--spec", required=True, help="module spec JSON path")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--deg", type=int, default=4)
    common(p)
    p.set_defaults(run=_cmd_verify_module)

    p = sub.add_parser("qpoly", help="generating polynomial of the h-sequence space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--b", required=True)
    common(p)
    p.set_defaults(run=_cmd_qpoly)

    p = sub.add_parser("classify", help="solve a candidate family to canonical form")
    p.add_argument("--candidate", required=True, help="candidate document JSON path")
    common(p)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("isom", help="decide isomorphism of two canonical tuples")
    p.add_argument("--p", required=True, help="canonical params JSON path")
    p.add_argument("--q", required=True, help="canonical params JSON path")
    p.add_argument("--b", required=True, help="scalar b both modules live over")
    common(p)
    p.set_defaults(run=_cmd_isom)

    p = sub.add_parser("orbit", help="grow a submodule inside a monomial box")
    p.add_argument("--spec", required=True, help="module spec JSON path")
    p.add_argument("--seed", action="append", default=[], help="seed polynomial")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--bounds", default="8,8", help="monomial box, e.g. 8,8")
    p.add_argument("--max-rounds", type=int, help="closure rounds (default 6)")
    p.add_argument(
        "--invariant",
        help="check invariance of a monomial span instead, e.g. 't>=1'",
    )
    common(p)
    p.set_defaults(run=_cmd_orbit)

    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        status, rendered = args.run(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
