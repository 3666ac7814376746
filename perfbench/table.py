"""Run every workload once and print one table of its metrics with units.

    python3 perfbench/table.py --seed 1 --seconds 20 [--trace 1]

Each workload runs in its own process through run.py, so peak memory is
the workload's own.  The rows under the metrics come from each run's
details line: the tail percentile with its sample count, the failure
fraction, and the calibration loop before and after, which shows how
much the host's speed drifted during the run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    runs = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            print(f"{workload}: run failed with exit code {done.returncode}", file=sys.stderr)
            return 1
        runs[workload] = (json.loads(lines[-2]), json.loads(lines[-1]))

    first = runs[WORKLOADS[0]][1]["metrics"]
    print(f"{'metric':40s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name, m in first.items():
        cells = "".join(f"{runs[w][1]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(f"{name:40s} {m['unit']:6s}{cells}")
    rows = [("correct", lambda d, r: str(r["correct"])),
            ("attempted / failed", lambda d, r: f"{r['attempted']}/{r['failed']}")]
    if args.trace == 0:
        rows += [("tail percentile (samples beyond)",
                  lambda d, r: f"p{d['tail_percentile']:g} ({d['samples_beyond_tail']})"),
                 ("failed_frac", lambda d, r: f"{d['failed_frac']:.4f}")]
    rows += [("calibration before / after, ms",
              lambda d, r: f"{d['calibration_before_s'] * 1e3:.1f}/{d['calibration_after_s'] * 1e3:.1f}")]
    for label, cell in rows:
        print(f"{label:47s}" + "".join(f"{cell(*runs[w]):>14s}" for w in WORKLOADS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
