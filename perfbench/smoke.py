"""Smoke test of the benchmark itself, at minimal size (about a minute).

    python3 perfbench/smoke.py

Checks that
  * BENCHMARK.json names exactly the workloads and metrics run.py reports;
  * every end-to-end metric is printed with its unit for every workload,
    and every per-layer metric in a traced run;
  * the work counts of a traced run repeat exactly in a second process;
  * the traced run restores every wrapped attribute, so untraced runs
    install none;
  * the seed changes the campaign inputs and leaves their count unchanged.
Exits 1 and names each failed check otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

import tracer  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    expect(done.returncode == 0, f"{workload} trace={trace}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(label: str, result: dict, units: dict[str, str]) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] is True, f"{label}: correct is {result['correct']}")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    metrics = result["metrics"]
    expect(set(metrics) == set(units), f"{label}: metric names {sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        expect(m.get("unit") == units.get(name), f"{label}: {name} unit {m.get('unit')}")
        expect(isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"]),
               f"{label}: {name} value {m.get('value')}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    expect(end_to_end == run.END_TO_END, "end-to-end metrics and units")
    expect(per_layer == tracer.units(), "per-layer metrics and units")

    for workload in run.WORKLOADS:
        check_metrics(f"{workload} trace=0", bench(workload, 1, 0), end_to_end)
        first = bench(workload, 1, 1)
        check_metrics(f"{workload} trace=1", first, per_layer)
        second = bench(workload, 1, 1)
        counts = list(tracer.work_counts(tracer.layer_table([], 0, 0, 0))) + ["trace.spans"]
        differ = [k for k in counts if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        expect(not differ, f"{workload}: work counts differ between two processes: {differ}")

    expect(tracer.installed() == [], "wrappers installed before tracing")
    originals = [getattr(tracer._owner(m, o), a) for m, o, a, _ in tracer.TARGETS]
    with tracer.Tracer():
        expect(len(tracer.installed()) == len(tracer.TARGETS), "tracer wraps every target")
    restored = [getattr(tracer._owner(m, o), a) for m, o, a, _ in tracer.TARGETS]
    expect(tracer.installed() == [], "wrappers left installed after tracing")
    expect(all(x is y for x, y in zip(originals, restored)), "attributes not restored to the originals")

    one = workloads.build("campaign", 1, run.RESULTS)
    again = workloads.build("campaign", 1, run.RESULTS)
    two = workloads.build("campaign", 2, run.RESULTS)
    expect([op.spec for op in one] == [op.spec for op in again], "same seed gives the same campaign")
    expect([op.spec for op in one] != [op.spec for op in two], "seed does not change the campaign")
    expect(len(one) == len(two), "seed changes the campaign's op count")

    print("smoke: ok" if not failures else f"smoke: {len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
