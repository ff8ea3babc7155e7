#!/usr/bin/env python3
"""Regenerate e2ebench/expected/<workload>.json from reference passes.

Usage (from the repository root):

    python3 e2ebench/make_expected.py --seeds 0-63 --scale 1
    python3 e2ebench/make_expected.py --seeds 2 --scale 0.05   # self-test

Each (workload, seed) runs e2e_bench --reference: one setup, one pass,
one sweep worker. The file keeps, per scale, a digest of every output
item for each seed, plus the full values for run.py's default seed so
a miss on it can name the field that moved. Only regenerate after a change that is
meant to alter simulated outputs; a speed-only change must leave every
digest as it is.
"""

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def reference(workload, seed, scale):
    cmd = [str(run.EXE), "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--work-dir", str(run.OUT),
           "--reference"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if res["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed: {res['notes']}")
    return res["outputs"]


def render(doc):
    """JSON with one line per seed, so a diff shows which seeds moved."""
    scales = []
    for key, per_scale in doc["scales"].items():
        seeds = ",\n".join(f'    "{s}": {json.dumps(d)}'
                           for s, d in per_scale.get("seeds", {}).items())
        values = json.dumps(per_scale.get("values", {}), indent=1)
        scales.append(f'  "{key}": {{\n   "seeds": {{\n{seeds}\n   }},\n'
                      f'   "values": {values}\n  }}')
    return (f'{{\n "workload": "{doc["workload"]}",\n "scales": {{\n'
            + ",\n".join(scales) + "\n }\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    ap.add_argument("--seeds", default="0-99")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--parallel", type=int, default=2)
    args = ap.parse_args()
    if not run.build():
        return 1
    run.OUT.mkdir(exist_ok=True)
    seeds = parse_seeds(args.seeds)
    (run.HERE / "expected").mkdir(exist_ok=True)
    for w in args.workloads:
        path = run.HERE / "expected" / f"{w}.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["workload"] = w
        per_scale = doc.setdefault("scales", {}).setdefault(
            run.scale_key(args.scale), {})
        with ThreadPoolExecutor(args.parallel) as pool:
            outs = dict(zip(seeds, pool.map(
                lambda s: reference(w, s, args.scale), seeds)))
        for s, outputs in outs.items():
            per_scale.setdefault("seeds", {})[str(s)] = {
                k: run.digest(v) for k, v in outputs.items()}
            if s == run.DEFAULT_SEED:
                per_scale.setdefault("values", {})[str(s)] = outputs
        per_scale["seeds"] = dict(sorted(per_scale["seeds"].items(),
                                         key=lambda kv: int(kv[0])))
        path.write_text(render(doc))
        print(f"{w}: {len(seeds)} seed(s) at scale "
              f"{run.scale_key(args.scale)} -> {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
