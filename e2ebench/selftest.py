#!/usr/bin/env python3
"""Tiny-scale self-test of the end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/selftest.py

Runs every workload at scale 0.05 on seed 2 (a committed, non-default
seed), untraced and traced, through e2ebench/run.py, and asserts that
each run prints every metric BENCHMARK.json names with its unit, that
the simulated outputs match the committed expected values, and that no
check failed. fig8_sweep also runs on one worker and on two, which
must simulate the same outputs as the default worker count. Takes
about a minute once built.
"""

import json
import math
import subprocess
import sys

import run

SCALE = 0.05
SEED = 2


def require(ok, what):
    if not ok:
        sys.exit(f"FAIL: {what}")


def bench(workload, trace, jobs=0):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", str(SCALE), "--jobs", str(jobs)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=run.ROOT)
    require(proc.returncode == 0,
            f"{cmd} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    require("no committed expected outputs" not in proc.stderr,
            f"{workload}: scale {SCALE} seed {SEED} has no expected values")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    require([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
            "BENCHMARK.json workloads differ from run.py's")
    runs = [(w, t, 0) for w in run.WORKLOADS for t in (0, 1)]
    runs += [("fig8_sweep", 0, 1), ("fig8_sweep", 0, 2)]
    for workload, trace, jobs in runs:
        res = bench(workload, trace, jobs)
        label = f"{workload} trace={trace} jobs={jobs or 'default'}"
        require(set(res) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result keys {sorted(res)}")
        require(res["correct"] and res["failed"] == 0,
                f"{label}: output check failed")
        require(res["attempted"] >= 1, f"{label}: nothing attempted")
        declared = spec["per_layer" if trace else "end_to_end"]
        for m in declared:
            got = res["metrics"].get(m["name"])
            require(got is not None, f"{label}: {m['name']} not printed")
            require(got["unit"] == m["unit"], f"{label}: {m['name']} unit")
            require(math.isfinite(got["value"]),
                    f"{label}: {m['name']} is not finite")
            require(trace or got["value"] > 0,
                    f"{label}: {m['name']} is 0")
        require(len(res["metrics"]) == len(declared),
                f"{label}: undeclared metrics printed")
        print(f"ok  {label}: {len(declared)} metrics, "
              f"{res['attempted']} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
