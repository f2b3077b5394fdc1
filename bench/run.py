"""The virab benchmark: one closed-loop, single-threaded client per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports virab from ``src``.
Workloads (see workloads.py): module-sweep, classify-mix, algebra-orbit;
``--workload all`` runs the three in turn, each in a fresh process.

With ``--trace 0`` it sets up (import virab and draw the first block of
inputs), timing that in this process and in four fresh ones, then feeds
verdicts one at a time through a fixed number of blocks sized to take
about S seconds (see ``BLOCK_S``), checks each against the answer its
input was built with, and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed set of blocks twice, first untraced and then
under :class:`tracing.Tracer`, reports the per-layer metrics, and writes
the spans to ``bench/out/``.

Times are CPU times of the measuring thread (set-up: of the process, from
interpreter start); the work is single-threaded and CPU-bound, so on a
dedicated core they equal wall time.  They are also scaled to a fixed
machine speed: see ``REFERENCE_S``.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import ceil, exp, gcd, log, log1p
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROCESSES = 5  # this one and four fresh ones
# the highest percentile that leaves at least ten verdicts above it in a
# run of 18 seconds (module-sweep: 18 of 88 above its p80); fixed per
# workload so a faster program is judged at the same percentile
TAIL = {"module-sweep": 0.8, "classify-mix": 0.99, "algebra-orbit": 0.9}
# A run works through a fixed number of blocks, the run's seconds divided
# by BLOCK_S and rounded.  BLOCK_S is about a block's CPU time at the
# reference speed (see REFERENCE_S) at the commit that introduced the
# benchmark, so a run there takes about the seconds asked for; module-sweep
# gets a smaller one, and so a longer run, because its few long verdicts
# give too few samples otherwise.  Which inputs a run checks, and how many
# of its verdicts fail, depend on the workload, the seed and the seconds
# alone, never on the machine's speed.
BLOCK_S = {"module-sweep": 4.5, "classify-mix": 0.28, "algebra-orbit": 2.7}
# blocks in the traced run; the count metrics repeat exactly per seed
TRACE_BLOCKS = {"module-sweep": 1, "classify-mix": 8, "algebra-orbit": 1}

# The host's other guests slow this sandbox's vCPU by up to 2x, in phases
# of seconds to minutes, and CPU time grows with it.  A fixed computation
# that uses no virab code is timed after every verdict; each verdict's CPU
# time is divided by the mean of the reference times just before and after
# it and multiplied by REFERENCE_S, the reference's CPU time on a 2-vCPU
# sandbox with its host quiet, so verdict times read as CPU time at that
# speed.  Set-up time is scaled the same way, by the median of five
# reference times taken once the process is ready.  Repeating one block for 45 s, this cut the coefficient of
# variation of the block's time from 15-19% to 3-7%.
REFERENCE_STEPS = 4000
REFERENCE_S = 1.0e-3

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.tail": "ms",
    "correct_share": "share",
    "peak_rss_mb": "MB",
}


def _load_program():
    """Import virab from this checkout's sources, or exit 2 without it."""
    if not (SRC / "virab" / "__init__.py").is_file():
        print(f"error: no virab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import virab
    import workloads

    if Path(virab.__file__).resolve().parent != SRC / "virab":
        print(f"error: imported virab from {virab.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return workloads


def _setup(workload: str, seed: int):
    """Import the program and draw block 0; returns (module, block, CPU
    seconds this process has used so far, interpreter start included,
    scaled to the reference speed)."""
    workloads = _load_program()
    first = workloads.block(workload, seed, 0)
    cpu = time.process_time()
    reference = statistics.median(_reference_s() for _ in range(5))
    return workloads, first, cpu * REFERENCE_S / reference


def _fresh_setup_seconds(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _reference_s() -> float:
    """CPU seconds of the reference computation; it uses ints only, so it
    allocates nothing the garbage collector tracks."""
    start = time.thread_time()
    a = total = 0
    for i in range(REFERENCE_STEPS):
        a = (a * 48271 + i) % 2147483647
        total += gcd(a, i + 7)
    return time.thread_time() - start


class Loop:
    """Feeds items one at a time, timing each verdict and checking it."""

    def __init__(self, workloads, workload: str, ctx):
        self.w, self.workload, self.ctx = workloads, workload, ctx
        self.raw: list[float] = []  # CPU seconds
        self.latencies: list[float] = []  # CPU seconds at reference speed
        self.references: list[float] = [_reference_s()]
        self.failed = 0
        self.defects: Counter[str] = Counter()
        self.unexplained: list[str] = []

    def verdict(self, item, span=None) -> None:
        w = self.w
        start = time.thread_time()
        if span is None:
            out = w.run(self.workload, item, self.ctx)
        else:
            with span:
                out = w.run(self.workload, item, self.ctx)
        raw = time.thread_time() - start
        self.references.append(_reference_s())
        speed = REFERENCE_S / statistics.fmean(self.references[-2:])
        self.raw.append(raw)
        self.latencies.append(raw * speed)
        problems = w.check(self.workload, item, out)
        if not problems:
            return
        self.failed += 1
        for what, defect in problems:
            if defect is None:
                self.unexplained.append(f"{what} :: {item.describe()}")
            else:
                self.defects[defect] += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def quantile(sorted_values: list[float], p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the ``p`` quantile (Biometrika 69, 1982):
    a weighted mean of all order statistics, the i-th of n weighted by the
    mass of Beta((n+1)p, (n+1)(1-p)) on [(i-1)/n, i/n] (midpoint rule,
    ``steps`` points a slot).  A single order statistic jumps between neighbours when
    their order changes with timing noise, and verdict costs near the
    median of a mixed workload lie far apart; the weighted mean does not
    jump, which halved the spread of p50 over repeated runs of one seed."""
    n = len(sorted_values)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    m = n * steps
    logs = [(a - 1) * log(x) + (b - 1) * log1p(-x)
            for x in ((k + 0.5) / m for k in range(m))]
    top = max(logs)
    density = [exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def blocks_for(workload: str, seconds: float) -> int:
    """The number of blocks a run of ``seconds`` works through."""
    return max(1, round(seconds / BLOCK_S[workload]))


def _timed(workload: str, seed: int, seconds: float, workloads, first):
    ctx = workloads.Context(str(OUT / f"candidate-{os.getpid()}.json"))
    loop = Loop(workloads, workload, ctx)
    blocks = blocks_for(workload, seconds)
    start = time.thread_time()
    for k in range(blocks):
        for item in first if k == 0 else workloads.block(workload, seed, k):
            loop.verdict(item)
    cpu = time.thread_time() - start
    _remove(ctx.candidate_path)
    return loop, cpu, blocks


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _traced(workload: str, seed: int, workloads, first):
    import tracing

    blocks = [first] + [workloads.block(workload, seed, k)
                        for k in range(1, TRACE_BLOCKS[workload])]
    items = [item for blk in blocks for item in blk]
    ctx = workloads.Context(str(OUT / f"candidate-{os.getpid()}.json"))

    plain = Loop(workloads, workload, ctx)
    for item in items:
        plain.verdict(item)

    traced = Loop(workloads, workload, ctx)
    with tracing.Tracer() as tracer:
        for n, item in enumerate(items):
            traced.verdict(item, tracer.item(n, item.kind))
    _remove(ctx.candidate_path)
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write_spans(str(spans_path))
    metrics = tracer.metrics(sum(traced.latencies) - sum(plain.latencies))
    return plain, traced, metrics, spans_path, tracing.LAYER_METRICS


def _report_loop(loop: Loop) -> None:
    share = loop.failed / loop.attempted
    print(f"error_share = {share:.6f} share "
          f"({loop.failed} of {loop.attempted} verdicts)")
    for defect, n in sorted(loop.defects.items()):
        print(f"  known defect {defect}: {n} disagreements")
    for line in loop.unexplained[:10]:
        print(f"  UNEXPLAINED: {line}")


def _run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    status = 0
    for workload in TAIL:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=600,
        )
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(TAIL) + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    workloads, first, setup_s = _setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    OUT.mkdir(exist_ok=True)
    print(f"workload {args.workload}, seed {args.seed}, closed loop, "
          f"one client, one thread, python {sys.version.split()[0]}")

    if args.trace:
        plain, traced, values, spans_path, units = _traced(
            args.workload, args.seed, workloads, first)
        _report_loop(traced)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        loops = (plain, traced)
        attempted, failed = traced.attempted, traced.failed
    else:
        setups = [setup_s] + [_fresh_setup_seconds(args.workload, args.seed)
                              for _ in range(SETUP_PROCESSES - 1)]
        loop, cpu, blocks = _timed(args.workload, args.seed, args.seconds,
                                    workloads, first)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lat = sorted(loop.latencies)
        tail = TAIL[args.workload]
        beyond = loop.attempted - ceil(tail * loop.attempted)
        print(f"{loop.attempted} verdicts in {cpu:.3f} CPU s over {blocks} "
              f"blocks; tail = p{tail * 100:g} with {beyond} verdicts above")
        print(f"unscaled verdict CPU time p50 = "
              f"{statistics.median(loop.raw) * 1000:.6g} ms; reference "
              f"median = {statistics.median(loop.references) * 1000:.4g} ms "
              f"against {REFERENCE_S * 1000:g} ms")
        _report_loop(loop)
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": loop.attempted / sum(loop.latencies),
            "verdict_ms.p50": quantile(lat, 0.5) * 1000,
            "verdict_ms.tail": quantile(lat, tail) * 1000,
            "correct_share": 1 - loop.failed / loop.attempted,
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END
        loops = (loop,)
        attempted, failed = loop.attempted, loop.failed

    for name, value in values.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}")
    correct = not any(lp.unexplained for lp in loops)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
