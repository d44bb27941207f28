"""Single-call baseline probes, each in a fresh interpreter.

Usage (from the root of a checkout):

    python3 perfbench/probes.py

Prints one line per probe: wall seconds of the call and the peak resident
memory of the process that made it.  These are the single calls behind the
ROADMAP's baseline table; the workloads measure the same layers at scale.
"""

import sys

import program

program.load()

import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from bgrank import bijections, qseries  # noqa: E402
from bgrank.partitions import StrictPartition  # noqa: E402


def _map_unmap(parts):
    d = StrictPartition(parts)
    pair = bijections.map_strict(d)
    back = bijections.unmap_strict(pair.triangular, pair.image, conjugated=pair.conjugated)
    if back != d:
        raise SystemExit(f"round trip of {parts} failed")


PROBES = {
    "strict_bgrank_gf(16, 0)": lambda: qseries.strict_bgrank_gf(16, 0),
    "strict_bgrank_gf(18, 0)": lambda: qseries.strict_bgrank_gf(18, 0),
    "gaussian_binomial(120, 60)": lambda: qseries.gaussian_binomial(120, 60),
    "map_strict+unmap_strict (6000,5999,3)": lambda: _map_unmap((6000, 5999, 3)),
}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        started = time.perf_counter()
        PROBES[sys.argv[2]]()
        seconds = time.perf_counter() - started
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"seconds": seconds, "rss_mb": rss}))
        return 0
    print(f"{'probe':40s} {'seconds':>9s} {'peak RSS MB':>12s}")
    for name in PROBES:
        done = subprocess.run([sys.executable, __file__, "--one", name], cwd=program.ROOT,
                              capture_output=True, text=True, check=True, timeout=300)
        result = json.loads(done.stdout)
        print(f"{name:40s} {result['seconds']:9.3f} {result['rss_mb']:12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
