"""Run one workload of the etaquad benchmark and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload's pass (a fixed list of ops drawn from ``--seed``) repeats in
a closed loop, one client and no threads, until ``--seconds`` have gone
by and the workload's minimum number of passes is done; whole passes
only, so every run does each op equally often.  Every op's output is
checked.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` the run spends half its time untraced and half with
spans around every layer's entry points, and reports the per-layer
metrics plus the tracing overhead.  The line before it holds the details:
tail percentile and sample count, failures, work counts, the environment
and the calibration loop times.  Both are also written to
``perfbench/results/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("campaign", "certify", "verify")
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
# Fresh interpreters timed for setup_s, besides the run's own process.
SETUP_PROBES = 6
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Ops run before timing starts, so lazy set-up in numpy is done.
WARMUP_SECONDS = 1.0
CHILD_TIMEOUT = 120


def load_package(workload: str, seed: int, quick: bool):
    """Import etaquad from this checkout's src/ and build the workload's pass."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import etaquad

    where = os.path.dirname(os.path.abspath(etaquad.__file__))
    if where != os.path.join(SRC, "etaquad"):
        raise SystemExit(f"perfbench: etaquad imported from {where}, not from {SRC}")
    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    return workloads.build(workload, seed, RESULTS, quick=quick)


def setup_probe(args) -> None:
    start = time.perf_counter()
    load_package(args.workload, args.seed, args.quick)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def setup_samples(args) -> list[float]:
    """Setup time of fresh interpreters, each timed from inside the child."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.quick:
        argv.append("--quick")
    out = []
    for _ in range(1 if args.quick else SETUP_PROBES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: setup probe exited with {done.returncode}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def calibrate() -> float:
    """Median time of a fixed pure-Python loop; shows host speed drift."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import numpy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def attempt(op) -> tuple[float, bool, str, int]:
    """Time one op and check its output: (seconds, ok, reason, report bytes).
    An exception from the op or from its check is a failure; the run goes on."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:
        return time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}", 0
    elapsed = time.perf_counter() - start
    try:
        outcome = op.check(out)
    except Exception as exc:
        return elapsed, False, f"check raised {type(exc).__name__}: {exc}", 0
    return elapsed, outcome.ok, outcome.reason, outcome.report_bytes


class Loop:
    """Closed-loop runner: one op at a time, whole passes, outputs checked."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.failures: Counter = Counter()
        self.failed = 0
        self.unexpected = 0
        self.passes: list[tuple[int, int, int, float]] = []  # span lo, hi, report bytes, op time

    def run_pass(self) -> None:
        lo = len(self.tracer.spans) if self.tracer else 0
        report_bytes = 0
        busy = 0.0
        for op in self.ops:
            if self.tracer:
                self.tracer.op = len(self.latencies)
            elapsed, ok, reason, nbytes = attempt(op)
            busy += elapsed
            report_bytes += nbytes
            self.latencies.append(elapsed)
            self.by_kind.setdefault(op.kind, []).append(elapsed)
            if not ok:
                self.failed += 1
                self.unexpected += op.known_defect is None
                self.failures[(op.kind, op.known_defect or "unexpected", reason[:160])] += 1
        hi = len(self.tracer.spans) if self.tracer else 0
        self.passes.append((lo, hi, report_bytes, busy))

    def run_for(self, seconds: float, min_passes: int = 1) -> None:
        start = time.perf_counter()
        passes = len(self.passes)
        while True:
            self.run_pass()
            if time.perf_counter() - start >= seconds and len(self.passes) - passes >= min_passes:
                return

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def failure_list(self) -> list[dict]:
        return [{"kind": k, "defect": d, "reason": r, "count": n}
                for (k, d, r), n in sorted(self.failures.items())]


def percentile(values: list[float], p: float) -> float:
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(min_samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it in
    every run.  It is fixed by the fewest samples a run may take, not by the
    count a run happened to reach, so it does not move with host speed."""
    for p in TAIL_LADDER:
        if min_samples * (1.0 - p / 100.0) >= 10:
            return p
    return 100.0


def warm_up(ops) -> None:
    start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - start > WARMUP_SECONDS:
            return
        try:
            op.run()
        except Exception:  # failures are counted in the timed loop
            pass


def end_to_end(args, ops, setups: list[float], min_passes: int):
    """Untraced run: the end-to-end metrics."""
    loop = Loop(ops)
    loop.run_for(args.seconds, min_passes=min_passes)
    p = tail_percentile(min_passes * len(ops))
    tail_s = percentile(loop.latencies, p)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(loop.latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": loop.ops_per_s(),
        "ok_frac": 1.0 - loop.failed / len(loop.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "tail_percentile": p,
        "samples": len(loop.latencies),
        "samples_beyond_tail": sum(x > tail_s for x in loop.latencies),
        "passes": len(loop.passes),
        "failed_frac": loop.failed / len(loop.latencies),
    }
    return [loop], metrics, details, True


def per_layer(args, ops, tracing):
    """Half the time untraced, half traced: per-layer metrics per pass and
    the tracing overhead.  Work counts must repeat in every traced pass."""
    plain = Loop(ops)
    plain.run_for(args.seconds / 2)
    with tracing.Tracer() as tr:
        traced = Loop(ops, tr)
        traced.run_for(args.seconds / 2, min_passes=2)
    tables = [tracing.layer_table(tr.spans, lo, hi, nbytes) for lo, hi, nbytes, _ in traced.passes]
    counts = tracing.work_counts(tables[0])
    repeat = all(tracing.work_counts(t) == counts for t in tables[1:])
    n_pass = len(traced.passes)
    metrics = {k: statistics.fmean(t[k] for t in tables) for k in tables[0]}
    metrics.update(counts)
    busy = sum(b for *_, b in traced.passes)
    top = sum(s.end - s.start for s in tr.spans if s.parent < 0)
    metrics.update({
        "trace.ops_per_s_untraced": plain.ops_per_s(),
        "trace.ops_per_s_traced": traced.ops_per_s(),
        "trace.overhead_frac": 1.0 - traced.ops_per_s() / plain.ops_per_s(),
        "trace.spans": len(tr.spans) // n_pass,
        "trace.pass_s": busy / n_pass,
        "trace.unattributed_s": (busy - top) / n_pass,
    })
    details = {
        "work_counts_repeat": repeat,
        "traced_passes": n_pass,
        "unwrapped": tr.missing,
        "self_s_by_layer": tracing.self_by_layer(metrics),
    }
    tr.write(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    return [plain, traced], metrics, details, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="etaquad benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "etaquad", "__init__.py")):
        print(f"perfbench: no etaquad package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0

    setups = setup_samples(args)
    start = time.perf_counter()
    ops = load_package(args.workload, args.seed, args.quick)
    setups.append(time.perf_counter() - start)

    import tracer as tracing
    import workloads

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "quick": args.quick, "environment": environment(),
               "pass_ops": len(ops), "setup_samples_s": setups,
               "calibration_before_s": calibrate()}
    leaked = tracing.installed()
    warm_up(ops)
    if args.trace == 0:
        min_passes = 1 if args.quick else workloads.MIN_PASSES[args.workload]
        loops, values, more, ok = end_to_end(args, ops, setups, min_passes)
        units = END_TO_END
    else:
        loops, values, more, ok = per_layer(args, ops, tracing)
        units = tracing.units()
    leaked += tracing.installed()
    details.update(more)
    details["calibration_after_s"] = calibrate()

    unexpected = sum(lp.unexpected for lp in loops)
    details.update({
        "leaked_wrappers": leaked,
        "unexpected_failures": unexpected,
        "failures": [f for lp in loops for f in lp.failure_list()],
        "latency_ms_by_kind": {
            kind: statistics.median(v) * 1e3 for kind, v in loops[0].by_kind.items()
        },
    })
    result = {
        "correct": ok and not leaked and unexpected == 0,
        "attempted": sum(len(lp.latencies) for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    inputs = [{"kind": op.kind, "known_defect": op.known_defect, "input": op.spec} for op in ops]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "inputs": inputs, "result": result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
