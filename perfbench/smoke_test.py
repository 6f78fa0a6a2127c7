#!/usr/bin/env python3
"""Smoke test of the efd cycle benchmark.

Runs every workload at tiny scale (--smoke), untraced and traced, and
checks that each run passes its own output checks and reports exactly the
metrics BENCHMARK.json declares. Run from the repository root:

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "5", "--trace", trace,
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            context, result = run(workload, trace)
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"checks failed: {context.get('failures')}")
            if result.get("attempted", 0) < 1:
                problems.append("no cycle attempted")
            if set(result.get("metrics", {})) != expected[trace]:
                problems.append("metric set differs: " + str(
                    set(result.get("metrics", {})) ^ expected[trace]))
            for name, metric in result.get("metrics", {}).items():
                if metric.get("unit") != units.get(name):
                    problems.append(f"{name} unit {metric.get('unit')}")
            for key in ("host.nproc", "host.cpu", "host.kernel",
                        "host.compiler", "host.build_type", "scale", "seed",
                        "knobs"):
                if key not in context.get("context", {}):
                    problems.append(f"context lacks {key}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:12s} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
