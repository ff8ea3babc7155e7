#!/usr/bin/env python3
"""End-to-end simulator benchmark: build, run one workload, check outputs.

Usage (from the repository root):

    python3 e2ebench/run.py --workload fig8_sweep --seed 1 --trace 0

Builds e2ebench/ (and the simulator sources it compiles) into
.bench_build/, runs e2e_bench for the workload, compares the simulated
outputs with e2ebench/expected/<workload>.json and prints, as the last
stdout line, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones (spans land in
.bench_out/). Build logs and notes go to stderr.

A seed without committed expected values is checked against a
one-worker reference pass run on the spot instead (the same-build
comparison catches nondeterminism and worker-count dependence, not a
change in the model); a note on stderr says so.

Exit status is 0 whenever a result line is printed, 1 otherwise.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
EXE = BUILD / "e2e_bench"
WORKLOADS = ("fig8_sweep", "replay_550k", "aged_stream", "spo_snapshot")
# The seed a run uses unless --seed says otherwise; expected/ keeps its
# full output values, so a miss on it names the field that moved.
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; serialised by a lock."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "e2e_bench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                return False
    return EXE.exists()


def run_bench(args, extra):
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", repr(args.scale),
           "--work-dir", str(OUT)] + extra
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"e2e_bench exited {proc.returncode}")
    return json.loads(lines[-1])


def digest(item):
    text = json.dumps(item, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scale_key(scale):
    return f"{scale:g}"


def load_expected(workload):
    path = HERE / "expected" / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text()).get("scales", {})


def compare(outputs, want, values=None):
    """Items checked and items that miss; field diffs go to stderr."""
    misses = 0
    for name in sorted(set(want) | set(outputs)):
        got = outputs.get(name)
        if got is not None and digest(got) == want.get(name):
            continue
        misses += 1
        ref = (values or {}).get(name)
        if got is None or name not in want:
            log(f"output check: item {name} missing on one side")
        elif ref is not None:
            diff = {k: (ref.get(k), got.get(k))
                    for k in sorted(set(ref) | set(got))
                    if ref.get(k) != got.get(k)}
            log(f"output check: {name} differs (expected, got): {diff}")
        else:
            log(f"output check: {name} differs from its committed digest")
    return len(set(want) | set(outputs)), misses


def check_outputs(args, res):
    per_scale = load_expected(args.workload).get(scale_key(args.scale), {})
    want = per_scale.get("seeds", {}).get(str(args.seed))
    if want is not None:
        values = per_scale.get("values", {}).get(str(args.seed))
        return compare(res["outputs"], want, values)
    log(f"note: no committed expected outputs for seed {args.seed} at "
        f"scale {scale_key(args.scale)}; checking against a one-worker "
        "reference pass of this build")
    ref = run_bench(args, ["--reference"])
    want = {k: digest(v) for k, v in ref["outputs"].items()}
    return compare(res["outputs"], want, ref["outputs"])


def check_metrics(trace, metrics):
    """The printed metrics must be exactly BENCHMARK.json's, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"extra {extra}, unit differs {units}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (1 = the benchmark; the "
                         "self-test runs small)")
    ap.add_argument("--jobs", type=int, default=0,
                    help="fig8_sweep workers (0 = min(4, nproc))")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    t0 = time.monotonic()
    if not build():
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f} s")
    OUT.mkdir(exist_ok=True)
    try:
        res = run_bench(args, ["--trace", str(args.trace)])
        check_metrics(args.trace, res["metrics"])
        items, misses = check_outputs(args, res)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError, OSError) as e:
        log(f"benchmark failed: {e}")
        return 1
    for note in res["notes"]:
        log(f"check failed: {note}")
    attempted = res["attempted"] + items
    failed = res["failed"] + misses
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
