"""One benchmark set-up in a fresh interpreter: import bgrank, build a workload's inputs.

Usage: python perfbench/setup_probe.py --workload NAME --seed N

run.py times this script from spawn to exit to report setup_s.
"""

import sys

import program

program.load()

import argparse  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()
WORKLOADS[args.workload](args.seed)
sys.exit(0)
