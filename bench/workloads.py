"""Seeded inputs with known verdicts, and the code that runs and checks them.

Each workload is an endless sequence of blocks.  Block ``k`` of workload
``w`` under seed ``n`` is drawn from ``random.Random(f"{w}/{n}/{k}")``, so
the same seed always gives the same inputs, and every block has the same
item mix: only the drawn parameters change with the seed.  That keeps the
cost of a block, and so every timing, comparable across seeds.

Every item carries the verdict it was built to have.  ``run`` makes the
calls into ``virab`` that produce the verdict (this is what the benchmark
times); ``check`` compares the outcome with the known answer and returns
the disagreements, each tagged with the known defect it matches, if any.

All calls go through attribute lookups on the ``virab`` modules at call
time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import virab
import virab.cli
from virab.polynomials import BiPoly, UniPoly
from virab.scalars import I, MINUS_ONE, ONE, ZERO, Scalar

# A disagreement that matches a known defect (named as in
# bench/notes.json: solver-reads-only-seeds, text-classify-one-index,
# zero-residue-certificate) still counts as an error; it only does not make
# the run "incorrect".  Any other disagreement does.


def q(text: str) -> Scalar:
    """A rational scalar from Fraction text such as "-1/2"."""
    f = Fraction(text)
    return Scalar.rational(f.numerator, f.denominator)


@dataclass
class Item:
    """One verdict's input: ``kind`` names its place in the mix, ``data``
    holds plain parameters, ``expect`` the answer it was built with."""

    kind: str
    data: dict[str, Any]
    expect: Any

    def describe(self) -> str:
        return json.dumps(
            {"kind": self.kind, "expect": _plain(self.expect),
             "data": {k: _plain(v) for k, v in self.data.items()}},
            sort_keys=True,
        )


def _plain(v: Any) -> Any:
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (Scalar, BiPoly, UniPoly)):
        return str(v)
    return v


@dataclass
class Outcome:
    """What ``run`` produced; ``check`` reads it after the clock stops."""

    values: dict[str, Any] = field(default_factory=dict)


def _spec(d: dict[str, Any]):
    if d["family"] == "theta":
        return virab.ModuleSpec.theta(lam=d["lam"], coeffs=d["coeffs"])
    return virab.ModuleSpec.phi(
        b=d["b"], lam=d["lam"], alpha=d["alpha"], coeffs=d["coeffs"]
    )


# --- module-sweep ------------------------------------------------------
#
# The acceptance grid: phi over b, lambda, alpha and three h-sequences,
# plus theta.  A block holds every (b, h) pair once, with lambda and alpha
# drawn so that each value appears about equally often with each h, one
# theta spec, three of those specs again as GenericFamily data, and three
# GenericFamily windows with one perturbed g_1, a_2 or g_4 entry, m's sign
# and the added term drawn (verdict fail).

SWEEP_WINDOW = 4
SWEEP_DEGREE = 4
GRID_B = ("-1", "0", "1/2", "1", "2")
GRID_LAM = (q("2"), q("-1/2"), I)
GRID_ALPHA = ("0", "1", "3/2")
GRID_H = ((), ("0", "1"), ("1", "-1/3", "2"))
THETA_LAM = ("2", "-1/2")
THETA_R = ((), ("0", "1", "1"))
# b of the GenericFamily window per h-sequence, and (entry, |m|, b) of the
# perturbed one: GenericFamily sweeps are a block's dearest verdicts, and b
# (through the central symbols), the entry and the index (through the
# checks that fail) set their cost, so these are fixed, not drawn
SWEEP_GENERIC_B = ("-1", "1", "1/2")
SWEEP_PERTURBED = (("g", 1, "1"), ("a", 2, "0"), ("g", 4, "2"))


def _spread(rng: random.Random, choices: tuple, n: int) -> list:
    """``n`` draws that use every choice equally often, in random order."""
    out = list(choices) * (n // len(choices))
    out += rng.sample(choices, n - len(out))
    rng.shuffle(out)
    return out


def _sweep_block(rng: random.Random) -> list[Item]:
    # lambda and alpha spread over the b values of each h-sequence, so that
    # each h-sequence's share of a block's cost does not swing with the seed
    cells = [(b, h) for h in GRID_H for b in GRID_B]
    lams = [x for _ in GRID_H for x in _spread(rng, GRID_LAM, len(GRID_B))]
    alphas = [x for _ in GRID_H
              for x in _spread(rng, GRID_ALPHA, len(GRID_B))]
    specs = [{"family": "phi", "b": q(b), "lam": lam, "alpha": q(alpha),
              "coeffs": tuple(q(c) for c in h)}
             for (b, h), lam, alpha in zip(cells, lams, alphas)]
    theta = {"family": "theta", "b": ONE, "lam": q(rng.choice(THETA_LAM)),
             "alpha": ZERO, "coeffs": tuple(q(c) for c in rng.choice(THETA_R))}
    items = [Item("spec", s, "pass") for s in specs + [theta]]
    # one GenericFamily and one perturbed window per h-sequence, since the
    # h-sequence sets most of a sweep's cost
    cell = {(str(s["b"]), len(s["coeffs"])): s for s in specs}
    items += [Item("generic", cell[b, len(h)], "pass")
              for h, b in zip(GRID_H, SWEEP_GENERIC_B)]
    for h, (entry, m, b) in zip(GRID_H, SWEEP_PERTURBED):
        m *= rng.choice((1, -1))
        c = q(f"{rng.choice((-3, -2, -1, 1, 2, 3))}/{rng.randint(1, 2)}")
        if entry == "a":
            delta = UniPoly.monomial(rng.randint(0, 2), c)
        else:
            delta = BiPoly.monomial(rng.randint(0, 1), rng.randint(0, 2), c)
        items.append(Item("perturbed", {**cell[b, len(h)], "m": m,
                                        "entry": entry, "delta": delta},
                          "fail"))
    rng.shuffle(items)
    return items


def _sweep_checks(item: Item) -> int:
    """The number of checks a complete sweep of this target makes."""
    w, nmono = SWEEP_WINDOW, (SWEEP_DEGREE + 1) * (SWEEP_DEGREE + 2) // 2
    if item.kind == "spec":
        central = {"-1": 2, "0": 3, "1": 3}.get(str(item.data["b"]), 1)
        nsym = 2 * (2 * w + 1) + central
        return nsym * nsym * nmono
    idx = range(-w, w + 1)
    pairs = sum(1 for x in idx for y in idx if abs(x + y) <= w)
    return 4 * pairs * nmono


def _run_sweep(item: Item, ctx: Context) -> Outcome:
    spec = _spec(item.data)
    if item.kind == "spec":
        target = spec
    else:
        target = virab.GenericFamily.from_spec(spec, SWEEP_WINDOW)
        if item.kind == "perturbed":
            a_m, g_m = dict(target.a_m), dict(target.g_m)
            m, delta = item.data["m"], item.data["delta"]
            if item.data["entry"] == "a":
                a_m[m] = a_m[m] + delta
            else:
                g_m[m] = g_m[m] + delta
            target = virab.GenericFamily(target.a, target.b, target.window,
                                         a_m, g_m)
    report = virab.verify_module(target, window=SWEEP_WINDOW,
                                 degree=SWEEP_DEGREE)
    text, doc = report.to_text(), report.to_json()
    return Outcome({"report": report, "text": text, "json": doc})


def _check_sweep(item: Item, out: Outcome) -> list[tuple[str, str | None]]:
    report = out.values["report"]
    problems = []
    verdict = "pass" if report.passed else "fail"
    if verdict != item.expect:
        problems.append((f"verify_module said {verdict}", None))
    if report.checks != _sweep_checks(item):
        problems.append((f"{report.checks} checks, expected "
                         f"{_sweep_checks(item)}", None))
    if json.loads(out.values["json"])["status"] != verdict:
        problems.append(("JSON status disagrees with the report", None))
    if f"\nstatus: {verdict}\n" not in out.values["text"]:
        problems.append(("text status disagrees with the report", None))
    return problems


# --- classify-mix ------------------------------------------------------
#
# Window data at N = 6 from seeded tuples, rendered to the text grammar and
# parsed back.  A block holds 11 feasible tuples and 12 single-entry
# perturbations, one of each kind below and an L0 term in a seed a_m twice,
# once on a phi tuple and once on theta.  Two feasible items and three
# perturbed ones of fixed kinds, with fixed coefficient counts, also go
# through `virab classify` in text and JSON form.  Whether a known defect shows depends on the kind, on theta
# against phi for the L0 term, and on the CLI for a one-index certificate,
# so these are fixed and every block meets each defect equally often: the
# error count of a block does not depend on the seed.

CLASSIFY_N = 6
CLASSIFY_B = ("-1", "0", "1/2", "1", "3", "-1/2")
CLASSIFY_FAMILIES = CLASSIFY_B + ("theta",)
PERTURBATIONS = tuple(
    f"{entry}@{where}"
    for entry in ("g-coef", "a-coef", "g-s2", "a-t2", "a-L0")
    for where in ("seed", "other")
) + ("translation",)
# the families an L0 term in a seed a_m is added to; every other kind
# draws its family
L0_SEED_FAMILIES = (CLASSIFY_B, ("theta",))
# the h-coefficient counts of the feasible items sent to the CLI, and of
# the perturbed kinds sent to it: a certificate with several indices, one
# with a single index, and a perturbation the solver does not read.  CLI
# items are a block's dearest and the coefficient count sets their cost,
# so it is fixed for them, not drawn, and the tail does not swing with
# the seed
CLI_FEASIBLE = (2, 5)
CLI_PERTURBED = {"g-coef@seed": 4, "g-s2@seed": 3, "g-coef@other": 5}


def _gaussian(rng: random.Random, nonzero: bool) -> Scalar:
    while True:
        x = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                   rng.randint(-3, 3))
        if x or not nonzero:
            return x


def _classify_tuple(rng: random.Random, family: str,
                    ncoeffs: int | None = None) -> dict[str, Any]:
    if ncoeffs is None:
        ncoeffs = rng.randint(0, 5)
    coeffs = tuple(_gaussian(rng, False) for _ in range(ncoeffs))
    if family == "theta":
        return {"family": "theta", "b": ONE, "lam": _gaussian(rng, True),
                "alpha": ZERO, "coeffs": coeffs}
    return {"family": "phi", "b": q(family), "lam": _gaussian(rng, True),
            "alpha": q(f"{rng.randint(-3, 3)}/{rng.randint(1, 2)}"),
            "coeffs": coeffs}


def _perturbation(rng: random.Random, kind: str) -> dict[str, Any]:
    c = _gaussian(rng, True)
    if kind == "translation":
        return {"m": 0, "entry": "a", "delta": None, "shift": c}
    entry, where = kind.split("@")
    if where == "seed":
        m = rng.choice((1, -1))
    else:
        m = rng.choice([x for x in range(-CLASSIFY_N, CLASSIFY_N + 1)
                        if abs(x) > 1])
    mono = {
        "g-coef": lambda: rng.choice([(0, j) for j in range(5)] + [(1, 0)]),
        "a-coef": lambda: (0, rng.randint(0, 1)),
        "g-s2": lambda: (2, rng.randint(0, 1)),
        "a-t2": lambda: (0, 2),
        "a-L0": lambda: (1, rng.randint(0, 1)),
    }[entry]()
    return {"m": m, "entry": entry[0], "delta": BiPoly.monomial(*mono, c),
            "shift": ZERO}


def _classify_block(rng: random.Random) -> list[Item]:
    counts = list(CLI_FEASIBLE) + [None] * (11 - len(CLI_FEASIBLE))
    items = [Item("feasible", {**_classify_tuple(rng, family, n),
                               "cli": n is not None}, "feasible")
             for family, n in zip(_spread(rng, CLASSIFY_FAMILIES, 11), counts)]
    kinds = [k for k in PERTURBATIONS if k != "a-L0@seed"]
    pairs = list(zip(kinds, _spread(rng, CLASSIFY_FAMILIES, len(kinds))))
    pairs += [("a-L0@seed", rng.choice(families))
              for families in L0_SEED_FAMILIES]
    for kind, family in pairs:
        n = CLI_PERTURBED.get(kind)
        data = {**_classify_tuple(rng, family, n), **_perturbation(rng, kind),
                "perturbation": kind, "cli": n is not None}
        items.append(Item("infeasible", data, "infeasible"))
    rng.shuffle(items)
    return items


def _generating_params(d: dict[str, Any]):
    family = virab.Family.THETA if d["family"] == "theta" else virab.Family.PHI
    return virab.CanonicalParams(family, d["lam"], d["alpha"], d["coeffs"])


def _run_classify(item: Item, ctx: Context) -> Outcome:
    d = item.data
    window = virab.GenericFamily.from_spec(_spec(d), CLASSIFY_N)
    a_m = {m: p.embed() for m, p in window.a_m.items()}
    g_m = dict(window.g_m)
    a = ZERO
    if item.kind == "infeasible":
        a = d["shift"]
        if d["delta"] is not None:
            entries = a_m if d["entry"] == "a" else g_m
            entries[d["m"]] = entries[d["m"]] + d["delta"]
    doc = {
        "a": virab.format_scalar(a),
        "b": virab.format_scalar(d["b"]),
        "N": CLASSIFY_N,
        "a_m": {str(m): virab.format_bipoly(p) for m, p in a_m.items()},
        "g_m": {str(m): virab.format_bipoly(p) for m, p in g_m.items()},
    }
    fam = virab.CandidateFamily(
        a=virab.parse_scalar(doc["a"]),
        b=virab.parse_scalar(doc["b"]),
        window=CLASSIFY_N,
        a_m={int(m): virab.parse_bipoly(p) for m, p in doc["a_m"].items()},
        g_m={int(m): virab.parse_bipoly(p) for m, p in doc["g_m"].items()},
    )
    out = Outcome()
    try:
        solved = virab.solve_candidate(fam)
    except Exception as exc:  # a raise is a verdict to check, not a crash
        solved = exc
    out.values["solved"] = solved
    report = virab.check_constraints(fam)
    out.values["constraints"] = report
    if isinstance(solved, virab.CanonicalParams):
        out.values["isomorphic"] = virab.isom_decide(
            solved, _generating_params(d), d["b"])
    if not isinstance(solved, Exception):
        out.values["rendered"] = json.dumps(solved.to_dict())
    out.values["report_json"] = report.to_json()
    if d["cli"]:
        with open(ctx.candidate_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for fmt in ("text", "json"):
            buf_out, buf_err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf_out), \
                    contextlib.redirect_stderr(buf_err):
                code = virab.cli.main(["classify", "--candidate",
                                       ctx.candidate_path, "--format", fmt])
            out.values[f"cli_{fmt}"] = (code, buf_out.getvalue(),
                                        buf_err.getvalue())
    return out


def _check_classify(item: Item, out: Outcome) -> list[tuple[str, str | None]]:
    d = item.data
    solved = out.values["solved"]
    report = out.values["constraints"]
    feasible = item.expect == "feasible"
    non_seed = item.kind == "infeasible" and abs(d["m"]) > 1
    problems: list[tuple[str, str | None]] = []
    if isinstance(solved, Exception):
        defect = ("zero-residue-certificate"
                  if "residue must be nonzero" in str(solved) else None)
        problems.append((f"solve_candidate raised {solved!r}", defect))
    elif feasible:
        if not isinstance(solved, virab.CanonicalParams):
            problems.append((f"certificate {solved.constraint} on a "
                             "feasible window", None))
        elif not out.values["isomorphic"]:
            problems.append(("params not isomorphic to the generating "
                             "tuple", None))
    elif isinstance(solved, virab.CanonicalParams):
        problems.append(("canonical params for a perturbed window",
                         "solver-reads-only-seeds" if non_seed else None))
    if report.passed != feasible:
        problems.append((f"check_constraints passed={report.passed}", None))
    if not d["cli"]:
        return problems
    want = 0 if feasible else 1
    for fmt in ("text", "json"):
        code, stdout, stderr = out.values[f"cli_{fmt}"]
        if code == want:
            if (fmt == "json" and not isinstance(solved, Exception)
                    and json.loads(stdout) != solved.to_dict()):
                problems.append(("classify --format json output differs "
                                 "from solve_candidate", None))
            continue
        defect = None
        if (code == 2 and fmt == "text" and "values to unpack" in stderr
                and isinstance(solved, virab.InfeasibilityCertificate)
                and len(solved.indices) == 1):
            defect = "text-classify-one-index"
        elif code == 0 and not feasible and non_seed and isinstance(
                solved, virab.CanonicalParams):
            defect = "solver-reads-only-seeds"
        problems.append((f"classify --format {fmt} exited {code}, expected "
                         f"{want}: {stderr.strip()}", defect))
    return problems


# --- algebra-orbit -----------------------------------------------------
#
# Every bracket table swept at window 5, and submodule exploration in a
# (10, 10) box.  Orbits start from seeds divisible by t in modules where
# t*C[s,t] is invariant (b not +-1, or alpha = 0, or theta), so the span
# can never contain 1; they run until they stabilise.  Invariance checks
# ask about t^k*C[s,t] (known true exactly for those modules, false for
# b = +-1 with alpha != 0) and about s*C[s,t] (never invariant).

ALGEBRA_WINDOW = 5
ORBIT_BOUNDS = (10, 10)
ORBIT_ROUNDS = (ORBIT_BOUNDS[0] + 1) * (ORBIT_BOUNDS[1] + 1) + 1
# (operator window, number of h-coefficients, family, number of seeds) per
# orbit in a block: these set most of an orbit's cost (a theta orbit can
# cost half a phi orbit in the same slot), so they are fixed, not drawn,
# and a block's cost does not swing with the seed
ORBIT_SLOTS = ((1, 0, "-1", 1), (1, 3, "0", 2), (2, 1, "1/2", 3),
               (2, 2, "1", 1), (2, 3, "2", 2), (3, 0, "3", 3),
               (3, 1, "theta", 1), (3, 2, "1/2", 2))
ORBIT_FAMILIES = ("-1", "0", "1/2", "1", "2", "3", "theta")
INVARIANTS_PER_BLOCK = 6
FIXED_TABLES = (("0", "0"), ("0", "-1"), ("1/2", "0"), ("0", "1"))


def _generic_pair(rng: random.Random) -> tuple[Scalar, Scalar]:
    special = {(q(a), q(b)) for a, b in FIXED_TABLES}
    while True:
        pair = (q(f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}"),
                q(f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}"))
        if pair not in special:
            return pair


def _module_params(rng: random.Random, family: str, witness: bool,
                   ncoeffs: int) -> dict[str, Any]:
    """Module parameters; ``witness`` modules keep t*C[s,t] invariant,
    the others (b = +-1 with alpha != 0) do not."""
    coeffs = tuple(q(str(rng.randint(-2, 2))) for _ in range(ncoeffs))
    if family == "theta":
        return {"family": "theta", "b": ONE, "lam": q(rng.choice(THETA_LAM)),
                "alpha": ZERO, "coeffs": coeffs}
    b = q(family)
    alpha = q(rng.choice(GRID_ALPHA[1:]))
    if witness and b in (ONE, MINUS_ONE):
        alpha = ZERO
    return {"family": "phi", "b": b, "lam": rng.choice(GRID_LAM),
            "alpha": alpha, "coeffs": coeffs}


def _algebra_block(rng: random.Random) -> list[Item]:
    items = [Item("table", {"a": q(a), "b": q(b), "extension": True}, "pass")
             for a, b in FIXED_TABLES]
    a, b = _generic_pair(rng)
    items.append(Item("table", {"a": a, "b": b, "extension": True}, "pass"))
    for _ in range(2):
        a, b = _generic_pair(rng)
        items.append(Item("table", {"a": a, "b": b, "extension": False},
                          "pass"))
    for window, ncoeffs, family, nseeds in ORBIT_SLOTS:
        seeds = []
        for _ in range(nseeds):
            i, j = rng.randint(0, 3), rng.randint(1, 3)
            seeds.append(BiPoly.monomial(i, j, q(str(rng.randint(1, 3))))
                         + BiPoly.monomial(rng.randint(0, 2), j + 1,
                                           q(str(rng.randint(-2, 2)))))
        params = _module_params(rng, family, True, ncoeffs)
        items.append(Item("orbit", {**params, "window": window,
                                    "seeds": seeds},
                          {"reaches_one": False, "stabilized": True}))
    for n in range(INVARIANTS_PER_BLOCK):
        witness = n % 2 == 0
        family = rng.choice(ORBIT_FAMILIES if witness else ("1", "-1"))
        predicate = ("s", 1) if n == 5 else ("t", rng.randint(1, 2))
        params = _module_params(rng, family, witness, rng.randint(0, 3))
        items.append(Item("invariant", {**params, "window": rng.randint(1, 3),
                                        "predicate": predicate},
                          witness and predicate[0] == "t"))
    rng.shuffle(items)
    return items


def _table_checks(item: Item) -> int:
    central = {(ZERO, ZERO): 3, (ZERO, MINUS_ONE): 2, (q("1/2"), ZERO): 2,
               (ZERO, ONE): 3}.get((item.data["a"], item.data["b"]), 1)
    n = 2 * (2 * ALGEBRA_WINDOW + 1) + (central if item.data["extension"] else 0)
    return n * (n + 1) // 2 + n ** 3


def _run_algebra(item: Item, ctx: Context) -> Outcome:
    d = item.data
    if item.kind == "table":
        params = virab.classify_case(d["a"], d["b"], d["extension"])
        report = virab.verify_algebra(params, window=ALGEBRA_WINDOW)
        return Outcome({"report": report, "text": report.to_text()})
    spec = _spec(d)
    if item.kind == "orbit":
        report = virab.orbit_closure(spec, d["seeds"], window=d["window"],
                                     bounds=ORBIT_BOUNDS,
                                     max_rounds=ORBIT_ROUNDS)
        return Outcome({"report": report, "text": report.to_text()})
    var, k = d["predicate"]
    if var == "t":
        predicate = lambda i, j: j >= k  # noqa: E731
    else:
        predicate = lambda i, j: i >= k  # noqa: E731
    return Outcome({"invariant": virab.check_invariant_subspace(
        spec, predicate, window=d["window"], bounds=ORBIT_BOUNDS)})


def _check_algebra(item: Item, out: Outcome) -> list[tuple[str, str | None]]:
    problems: list[tuple[str, str | None]] = []
    if item.kind == "invariant":
        if out.values["invariant"] is not item.expect:
            problems.append((f"invariant={out.values['invariant']}", None))
        return problems
    report = out.values["report"]
    if item.kind == "table":
        if not report.passed:
            problems.append((f"{len(report.failures)} axiom failures", None))
        if report.checks != _table_checks(item):
            problems.append((f"{report.checks} checks, expected "
                             f"{_table_checks(item)}", None))
        return problems
    data = report.data
    trace = data["dimension_trace"]
    for key, want in item.expect.items():
        if data[key] is not want:
            problems.append((f"{key}={data[key]}", None))
    t_multiples = (ORBIT_BOUNDS[0] + 1) * ORBIT_BOUNDS[1]
    if any(b < a for a, b in zip(trace, trace[1:])) or trace[-1] > t_multiples:
        problems.append((f"dimension trace {trace}", None))
    if report.checks != len(trace) - 1:
        problems.append((f"{report.checks} rounds for a trace of "
                         f"{len(trace)}", None))
    return problems


# --- dispatch ----------------------------------------------------------

@dataclass
class Context:
    """Per-process resources the items share: the path the CLI items
    write their candidate document to."""

    candidate_path: str


_BLOCKS = {"module-sweep": _sweep_block, "classify-mix": _classify_block,
           "algebra-orbit": _algebra_block}
WORKLOADS = tuple(_BLOCKS)
_RUN = {"module-sweep": _run_sweep, "classify-mix": _run_classify,
        "algebra-orbit": _run_algebra}
_CHECK = {"module-sweep": _check_sweep, "classify-mix": _check_classify,
          "algebra-orbit": _check_algebra}


def block(workload: str, seed: int, k: int) -> list[Item]:
    """Block ``k`` of the workload's input stream for ``seed``."""
    return _BLOCKS[workload](random.Random(f"{workload}/{seed}/{k}"))


def run(workload: str, item: Item, ctx: Context) -> Outcome:
    return _RUN[workload](item, ctx)


def check(workload: str, item: Item, out: Outcome) -> list[tuple[str, str | None]]:
    """Disagreements with the known answer as (what, known defect or None)."""
    return _CHECK[workload](item, out)
