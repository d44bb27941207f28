"""Steadiness of the end-to-end metrics, and the bounds they justify.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

For each workload it makes two sets of --runs runs of the BENCHMARK.json
command, set A on seeds first-seed .. first-seed+runs-1 and set B on the
next --runs seeds.  The two sets are interleaved, pair by pair, with the
set that goes first alternating.  For every end-to-end metric it prints
each set's median, first and third quartiles (statistics.quantiles,
n=4) and spread (q3 - q1) / median, and the change of B's median from A's.

A metric is steady when its spread in both sets is below a third of its
bound (setup_s is exempt), and the sets agree when B's median is within
the bound of A's, in either direction.  The suggested bound is three times
the widest spread seen on any workload, rounded up to 0.01, at least 0.05
and at most 0.25; setup_s takes the largest bound.  It also checks that
every run is correct and that the share of failed operations is the same
in every run.  Exit status 1 means a check failed, a metric is not steady
or the sets disagree.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_BOUND, MAX_BOUND = 0.05, 0.25


def run_once(spec, workload, seed):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    widest = {m["name"]: 0.0 for m in metrics}
    healthy = True
    for workload in names:
        sets = ([], [])
        for i in range(args.runs):
            for j in (0, 1) if i % 2 == 0 else (1, 0):
                seed = args.first_seed + j * args.runs + i
                result = run_once(spec, workload, seed)
                sets[j].append(result)
                print(f"# {workload} set {'AB'[j]} seed {seed}: failed {result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        results = sets[0] + sets[1]
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results) or len(shares) != 1:
            print(f"{workload}: correct={[r['correct'] for r in results]} failed shares={sorted(shares)}")
            healthy = False
        print(f"\n{workload}: 2 x {args.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':12s} {'set':3s} {'q1':>11s} {'median':>11s} {'q3':>11s} {'spread':>7s} {'B/A-1':>7s} {'bound':>5s}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            rows = [quartiles([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in rows]
            change = rows[1][1] / rows[0][1] - 1.0
            widest[name] = max(widest[name], *spreads)
            steady = name == "setup_s" or max(spreads) < bound / 3
            agree = abs(change) <= bound
            healthy &= steady and agree
            for j, ((q1, med, q3), spread) in enumerate(zip(rows, spreads)):
                tail = f"{change:7.4f} {bound:5.2f}  " + ("steady" if steady else "NOT STEADY") + (", agree" if agree else ", DISAGREE")
                print(f"  {name if j == 0 else '':12s} {'AB'[j]:3s} {q1:11.6g} {med:11.6g} {q3:11.6g} {spread:7.4f} " + (tail if j else ""))
        print()
    print(f"suggested bounds (3 x widest spread, rounded up to 0.01, within {MIN_BOUND}..{MAX_BOUND}):")
    for metric in metrics:
        name = metric["name"]
        suggested = MAX_BOUND if name == "setup_s" else min(MAX_BOUND, max(MIN_BOUND, math.ceil(300 * widest[name]) / 100))
        print(f"  {name:14s} widest spread {widest[name]:.4f}  suggested {suggested:.2f}  set {metric['bound']:.2f}")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
