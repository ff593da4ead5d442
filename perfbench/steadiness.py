#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

Run from the root of the repository:

    python3 perfbench/steadiness.py --workload flickr-memory --seeds 1 2 3 4 5 6 7 8 9 10

Runs the benchmark once per seed (each seed is other inputs of the same
make-up), then prints, per end-to-end metric, the median of the runs and
the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, beside the
metric's bound from BENCHMARK.json. A spread below a third of the bound
is marked steady. The raw results go to .bench_build/steadiness-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit("seed %d: benchmark exited with %d" % (seed, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    runs = []
    for seed in args.seeds:
        res = run_once(args.workload, seed, args.seconds)
        runs.append({"seed": seed, "result": res})
        m = res["metrics"]
        print("seed %3d: correct=%s attempted=%d failed=%d total_s=%.4f setup_s=%.4f" % (
            seed, res["correct"], res["attempted"], res["failed"],
            m["total_s"]["value"], m["setup_s"]["value"]), flush=True)

    out = os.path.join(ROOT, ".bench_build", "steadiness-%s.json" % args.workload)
    with open(out, "w") as f:
        json.dump(runs, f, indent=1)

    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print("failed share: %s" % sorted(shares))
    print("%-22s %14s %9s %7s %s" % ("metric", "median", "spread", "bound", ""))
    for d in spec["end_to_end"]:
        vals = [r["result"]["metrics"][d["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        steady = "" if d["name"] == "setup_s" else ("steady" if spread < d["bound"] / 3 else "WIDE")
        print("%-22s %14.4f %8.2f%% %6.0f%% %s" % (d["name"], med, 100 * spread, 100 * d["bound"], steady))
    print("raw results: %s" % out)


if __name__ == "__main__":
    main()
