"""Spans around calls into each virab layer, recorded from outside the package.

:class:`Tracer` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers (in every virab module that binds them),
and puts the originals back on exit.  Each wrapper adds its call to its
metric's count, its duration minus the time of the wrapped calls it made
to its metric's self time, and its full duration to its metric's busy time.

Calls at the coarse boundaries (sweeps, solver, parser, renderer, CLI) are
also kept as spans (id, name, start, end, parent id, item id) in memory
and written out by :meth:`Tracer.write_spans`.  The hot leaf calls
(scalar arithmetic, polynomial products and shifts, module actions,
brackets, row insertion) run millions of times per run, so they are kept
as counts and times only; their time is still subtracted from the span
that made them.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import virab
import virab.algebra
import virab.classify
import virab.cli
import virab.grammar
import virab.orbit
import virab.polynomials
import virab.report
import virab.repmod
import virab.scalars

MODULES = (virab, virab.scalars, virab.polynomials, virab.algebra,
           virab.repmod, virab.classify, virab.orbit, virab.grammar,
           virab.report, virab.cli)

Scalar = virab.scalars.Scalar
BiPoly = virab.polynomials.BiPoly
UniPoly = virab.polynomials.UniPoly

# metric name -> (owner, attribute) pairs it wraps, and whether each call
# is kept as a span
TARGETS = {
    "scalars.mul": ([(Scalar, "__mul__"), (Scalar, "mul_int")], False),
    "scalars.addsub": ([(Scalar, "__add__"), (Scalar, "__sub__"),
                        (Scalar, "add_int")], False),
    "scalars.div": ([(Scalar, "__truediv__"), (Scalar, "inv")], False),
    "polynomials.mul": ([(BiPoly, "__mul__"), (UniPoly, "__mul__")], False),
    "polynomials.shift_s": ([(BiPoly, "shift_s")], False),
    "polynomials.format": ([(virab.polynomials, "format_bipoly"),
                            (virab.polynomials, "format_unipoly")], False),
    "repmod.act": ([(virab.repmod, "act_L"), (virab.repmod, "act_W"),
                    (virab.repmod, "generic_act_L"),
                    (virab.repmod, "generic_act_W")], False),
    "repmod.verify_module": ([(virab.repmod, "verify_module")], True),
    "algebra.bracket": ([(virab.algebra, "bracket")], False),
    "algebra.verify_algebra": ([(virab.algebra, "verify_algebra")], True),
    "classify.solve_candidate": ([(virab.classify, "solve_candidate")], True),
    "classify.check_constraints": ([(virab.classify, "check_constraints")],
                                   True),
    "classify.isom_decide": ([(virab.classify, "isom_decide")], True),
    "orbit.insert": ([(virab.orbit.SubspaceBasis, "insert")], False),
    "orbit.closure": ([(virab.orbit, "orbit_closure")], True),
    "orbit.invariant": ([(virab.orbit, "check_invariant_subspace")], True),
    "grammar.parse": ([(virab.grammar, "parse_bipoly"),
                       (virab.grammar, "parse_unipoly"),
                       (virab.grammar, "parse_element"),
                       (virab.grammar, "parse_symbol"),
                       (virab.scalars, "parse_scalar")], True),
    "report.render": ([(virab.report.Report, "to_text"),
                       (virab.report.Report, "to_json")], True),
    "cli.main": ([(virab.cli, "main")], True),
}

# per-layer metrics: name -> unit, in the order they are reported
LAYER_METRICS = {
    "scalars.mul.calls": "count",
    "scalars.addsub.calls": "count",
    "scalars.div.calls": "count",
    "scalars.self_s": "s",
    "polynomials.mul.calls": "count",
    "polynomials.mul.term_products": "count",
    "polynomials.mul.self_s": "s",
    "polynomials.shift_s.calls": "count",
    "polynomials.shift_s.self_s": "s",
    "polynomials.format.self_s": "s",
    "repmod.act.calls": "count",
    "repmod.act.self_s": "s",
    "repmod.verify_module.checks": "count",
    "repmod.verify_module.busy_s": "s",
    "repmod.act_per_check": "ratio",
    "algebra.bracket.calls": "count",
    "algebra.bracket.self_s": "s",
    "algebra.verify_algebra.checks": "count",
    "algebra.verify_algebra.busy_s": "s",
    "classify.solve_candidate.busy_s": "s",
    "classify.check_constraints.busy_s": "s",
    "classify.check_constraints.checks": "count",
    "classify.certificates": "count",
    "classify.params": "count",
    "orbit.insert.calls": "count",
    "orbit.insert.useful_ratio": "ratio",
    "orbit.insert.self_s": "s",
    "orbit.overflow": "count",
    "orbit.closure.busy_s": "s",
    "orbit.invariant.busy_s": "s",
    "grammar.parse.calls": "count",
    "grammar.parse.self_s": "s",
    "report.render.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Install with ``with Tracer() as tr:``; open one item span per
    verdict with :meth:`item`."""

    def __init__(self):
        self.stack: list[list] = [[0.0, None]]  # [child seconds, span id]
        self.spans: list[tuple] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.busy_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.item_id: int | None = None
        self._acts_before_sweep = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def __enter__(self) -> Tracer:
        hooks = {
            "polynomials.mul": self._count_term_products,
            "repmod.verify_module": self._count_sweep,
            "algebra.verify_algebra": self._count_checks,
            "classify.check_constraints": self._count_checks,
            "classify.solve_candidate": self._count_outcome,
            "orbit.insert": self._count_useful,
            "orbit.closure": self._count_overflow,
        }
        before = {"repmod.verify_module": self._sweep_starts}
        for name, (targets, keep) in TARGETS.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, keep, before.get(name),
                                     hooks.get(name))
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                    continue
                for module in MODULES:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, keep: bool, before, after):
        stack, spans = self.stack, self.spans
        calls, self_s, busy_s = self.calls, self.self_s, self.busy_s
        clock = perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            parent = stack[-1]
            frame = [0.0, len(spans) if keep else parent[1]]
            if keep:
                spans.append(None)  # reserve the id; filled in below
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                self_s[name] += dur - frame[0]
                busy_s[name] += dur
                calls[name] += 1
                if keep:
                    spans[frame[1]] = (frame[1], name, start, end, parent[1],
                                       self.item_id)
            if after is not None:
                after(name, args, result)
            return result

        return wrapper

    # -- counts read off the wrapped calls -------------------------------

    def _count_term_products(self, name, args, result) -> None:
        self.counts[f"{name}.term_products"] += (
            len(args[0].terms) * len(args[1].terms))

    def _count_checks(self, name, args, result) -> None:
        self.counts[f"{name}.checks"] += result.checks

    def _sweep_starts(self) -> None:
        self._acts_before_sweep = self.calls["repmod.act"]

    def _count_sweep(self, name, args, result) -> None:
        self._count_checks(name, args, result)
        self.counts["repmod.act.in_sweeps"] += (
            self.calls["repmod.act"] - self._acts_before_sweep)

    def _count_outcome(self, name, args, result) -> None:
        kind = ("params" if isinstance(result, virab.classify.CanonicalParams)
                else "certificates")
        self.counts[f"classify.{kind}"] += 1

    def _count_useful(self, name, args, result) -> None:
        if result is not None:
            self.counts[f"{name}.useful"] += 1

    def _count_overflow(self, name, args, result) -> None:
        self.counts["orbit.overflow"] += result.data["overflow"]

    # -- item spans ------------------------------------------------------

    def item(self, item_id: int, kind: str) -> _ItemSpan:
        return _ItemSpan(self, item_id, kind)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                sid, name, start, end, parent, item = span
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item}) + "\n")

    def metrics(self, overhead_s: float) -> dict[str, float]:
        c, calls, self_s, busy = self.counts, self.calls, self.self_s, \
            self.busy_s
        checks = c["repmod.verify_module.checks"]
        inserts = calls["orbit.insert"]
        values = {
            "scalars.mul.calls": calls["scalars.mul"],
            "scalars.addsub.calls": calls["scalars.addsub"],
            "scalars.div.calls": calls["scalars.div"],
            "scalars.self_s": (self_s["scalars.mul"] + self_s["scalars.addsub"]
                               + self_s["scalars.div"]),
            "polynomials.mul.calls": calls["polynomials.mul"],
            "polynomials.mul.term_products":
                c["polynomials.mul.term_products"],
            "polynomials.mul.self_s": self_s["polynomials.mul"],
            "polynomials.shift_s.calls": calls["polynomials.shift_s"],
            "polynomials.shift_s.self_s": self_s["polynomials.shift_s"],
            "polynomials.format.self_s": self_s["polynomials.format"],
            "repmod.act.calls": calls["repmod.act"],
            "repmod.act.self_s": self_s["repmod.act"],
            "repmod.verify_module.checks": checks,
            "repmod.verify_module.busy_s": busy["repmod.verify_module"],
            "repmod.act_per_check":
                c["repmod.act.in_sweeps"] / checks if checks else 0.0,
            "algebra.bracket.calls": calls["algebra.bracket"],
            "algebra.bracket.self_s": self_s["algebra.bracket"],
            "algebra.verify_algebra.checks":
                c["algebra.verify_algebra.checks"],
            "algebra.verify_algebra.busy_s": busy["algebra.verify_algebra"],
            "classify.solve_candidate.busy_s":
                busy["classify.solve_candidate"],
            "classify.check_constraints.busy_s":
                busy["classify.check_constraints"],
            "classify.check_constraints.checks":
                c["classify.check_constraints.checks"],
            "classify.certificates": c["classify.certificates"],
            "classify.params": c["classify.params"],
            "orbit.insert.calls": inserts,
            "orbit.insert.useful_ratio":
                c["orbit.insert.useful"] / inserts if inserts else 0.0,
            "orbit.insert.self_s": self_s["orbit.insert"],
            "orbit.overflow": c["orbit.overflow"],
            "orbit.closure.busy_s": busy["orbit.closure"],
            "orbit.invariant.busy_s": busy["orbit.invariant"],
            "grammar.parse.calls": calls["grammar.parse"],
            "grammar.parse.self_s": self_s["grammar.parse"],
            "report.render.self_s": self_s["report.render"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "trace.overhead_s": overhead_s,
        }
        assert values.keys() == LAYER_METRICS.keys()
        return values


class _ItemSpan:
    """The root span of one verdict; every span under it carries its id."""

    def __init__(self, tracer: Tracer, item_id: int, kind: str):
        self.tracer, self.item_id, self.kind = tracer, item_id, kind

    def __enter__(self) -> None:
        tr = self.tracer
        tr.item_id = self.item_id
        self.frame = [0.0, len(tr.spans)]
        tr.spans.append(None)
        tr.stack.append(self.frame)
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.frame[1]] = (self.frame[1], f"item:{self.kind}",
                                   self.start, end, None, self.item_id)
        tr.item_id = None
