"""Tests of the benchmark itself: python3 -m pytest bench

They check that inputs and verdicts are a function of the seed, that the
traced run's counts repeat, and that the checker can fail.
"""

from __future__ import annotations

from collections import Counter

import pytest

import run

workloads = run._load_program()
from virab import Report  # noqa: E402  (importable once run set the path)

WORKLOADS = workloads.WORKLOADS


def _mix(items) -> Counter:
    mix = Counter((it.kind, it.data.get("perturbation"),
                   it.data["window"] if it.kind == "orbit" else None,
                   len(it.data["coeffs"]) if it.kind == "orbit" else None)
                  for it in items)
    mix["cli"] = sum(1 for it in items if it.data.get("cli"))
    return mix


def _summary(out) -> list:
    """An outcome without its timing fields."""
    summary = []
    for key, value in sorted(out.values.items()):
        if isinstance(value, Report):
            doc = value.to_dict()
            doc.pop("elapsed_s")
            summary.append((key, doc))
        elif hasattr(value, "to_dict"):
            summary.append((key, value.to_dict()))
        elif isinstance(value, (bool, Exception, tuple)):
            summary.append((key, repr(value)))
    return summary


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    for k in (0, 1):
        first = [it.describe() for it in workloads.block(workload, 7, k)]
        again = [it.describe() for it in workloads.block(workload, 7, k)]
        assert first == again


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs_same_mix(workload):
    one, two = workloads.block(workload, 7, 0), workloads.block(workload, 8, 0)
    assert [it.describe() for it in one] != [it.describe() for it in two]
    assert _mix(one) == _mix(two)
    assert _mix(one) == _mix(workloads.block(workload, 7, 1))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_verdicts(workload, tmp_path):
    ctx = workloads.Context(str(tmp_path / "candidate.json"))
    items = sorted(workloads.block(workload, 3, 0),
                   key=lambda it: it.kind)[:4]
    verdicts = []
    for _ in range(2):
        outs = [workloads.run(workload, it, ctx) for it in items]
        verdicts.append([(_summary(out), workloads.check(workload, it, out))
                         for it, out in zip(items, outs)])
    assert verdicts[0] == verdicts[1]


def test_traced_counts_repeat(monkeypatch):
    monkeypatch.setitem(run.TRACE_BLOCKS, "classify-mix", 1)
    counts = []
    for _ in range(2):
        first = workloads.block("classify-mix", 5, 0)
        _, traced, metrics, _, units = run._traced("classify-mix", 5,
                                                   workloads, first)
        counts.append({k: v for k, v in metrics.items()
                       if units[k] == "count"})
        assert traced.attempted == len(first)
    assert counts[0] == counts[1]
    assert counts[0]["classify.check_constraints.checks"] > 0
    assert counts[0]["grammar.parse.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_answer_is_an_error(workload, tmp_path):
    ctx = workloads.Context(str(tmp_path / "candidate.json"))
    flipped = {"pass": "fail", "fail": "pass", True: False, False: True,
               "feasible": "infeasible", "infeasible": "feasible"}
    item = next(it for it in workloads.block(workload, 1, 0)
                if it.kind in ("spec", "feasible", "invariant"))
    honest = run.Loop(workloads, workload, ctx)
    honest.verdict(item)
    assert honest.failed == 0 and not honest.unexplained
    item.expect = flipped[item.expect]
    lying = run.Loop(workloads, workload, ctx)
    lying.verdict(item)
    assert lying.failed == 1
    assert lying.unexplained, "a wrong answer must not pass as a known defect"


def test_classify_errors_do_not_depend_on_seed(tmp_path):
    """Every classify-mix block meets each known defect equally often, so
    the failed count of a run depends on its length alone."""
    ctx = workloads.Context(str(tmp_path / "candidate.json"))
    counts = []
    for seed in (1, 2):
        defects = Counter()
        for item in workloads.block("classify-mix", seed, 0):
            out = workloads.run("classify-mix", item, ctx)
            problems = workloads.check("classify-mix", item, out)
            assert all(defect for _, defect in problems), problems
            defects.update({defect for _, defect in problems})
        counts.append(defects)
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"solver-reads-only-seeds",
                              "text-classify-one-index",
                              "zero-residue-certificate"}


def test_run_length_is_fixed_by_seconds():
    assert run.blocks_for("module-sweep", 18) == 4
    assert run.blocks_for("classify-mix", 0.01) == 1


def test_quantile():
    assert run.quantile([2.5] * 7, 0.5) == pytest.approx(2.5)
    values = [float(i) for i in range(1, 102)]
    assert run.quantile(values, 0.5) == pytest.approx(51.0, rel=1e-6)
    assert 85 < run.quantile(values, 0.9) < 95
    assert run.quantile([3.0], 0.8) == pytest.approx(3.0)
