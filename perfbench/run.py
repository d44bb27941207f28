"""Benchmark for bgrank: one workload, one run, one JSON line of results.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload identity-sweep --seed 1 --seconds 25 --trace 0

The run builds the workload's inputs from --seed, then repeats whole
rounds of its operations until the rounds have taken --seconds, checks
every output against the independent computations in checkers.py, and
prints as its last line {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the rounds are untraced and the metrics are the end-to-end
ones.  With --trace 1 each round runs every operation twice, untraced and
traced, and the metrics are the per-layer ones plus the tracing overhead.
See README.md for what each metric means.
"""

import sys

import program

try:
    IMPORT_S = program.load()
except program.ProgramMissing as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# Host speed: see HostSpeed.  REFERENCE_S is about the median time of
# speed_kernel() on the 2-vCPU host the bounds were set on (Python 3.11.7).
REFERENCE_S = 0.0055
RECALIBRATE_S = 0.25
KERNEL_WARMUP, KERNEL_REPEATS = 2, 3
_KERNEL_INTS = [(i * 7919) ** 3 for i in range(80)]


def speed_kernel():
    """Fixed pure-Python work shaped like the program's: a small-integer
    loop, a big-integer convolution, and sorting and counting tuples."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    product = [0] * (2 * len(_KERNEL_INTS))
    for i, a in enumerate(_KERNEL_INTS):
        for j, b in enumerate(_KERNEL_INTS):
            product[i + j] += a * b
    counts = {}
    for i in range(300):
        row = tuple(sorted(((i * j * 31) % 97 for j in range(20)), reverse=True))
        counts[row] = counts.get(row, 0) + len(row)
    return total, product, counts


class HostSpeed:
    """Rescales the times of work done in this process to the reference speed.

    The host's speed drifts by 15 % and more over tens of seconds, and no
    length of run averages that out.  So speed_kernel() is timed in this
    process, outside the timed sections: at the start and end of every
    round and between operations once RECALIBRATE_S of timed work has
    passed.  A calibration runs the kernel KERNEL_WARMUP times untimed and
    is then the median of KERNEL_REPEATS kernel times, which drops a single
    interrupted one.  A timed section is multiplied by REFERENCE_S over
    the mean of the two calibrations around it.  The kernel is benchmark
    code, so a change to the program moves rescaled times as it moves
    measured ones.

    Work in child processes (cli-oneshot, set-up probes) is not rescaled
    (rescale=False: no kernel runs and every factor is 1): the kernel's
    speed in this process did not follow theirs, and rescaling widened
    their spread instead of narrowing it (see README.md, "Host speed").
    """

    def __init__(self, rescale: bool):
        self.rescale = rescale
        self.kernel_s = []
        self.timed_s = 0.0  # measured seconds of every timed operation so far
        self._due = 0.0

    def calibrate(self) -> None:
        if self.rescale:
            for _ in range(KERNEL_WARMUP):
                speed_kernel()
            times = []
            for _ in range(KERNEL_REPEATS):
                started = time.perf_counter()
                speed_kernel()
                times.append(time.perf_counter() - started)
            self.kernel_s.append(statistics.median(times))
        self._due = RECALIBRATE_S

    def opening(self) -> int:
        """Calibrate if due; the index of the calibration that opens the next timed section."""
        if self._due <= 0.0:
            self.calibrate()
        return len(self.kernel_s) - 1

    def charge(self, seconds: float) -> None:
        self.timed_s += seconds
        self._due -= seconds

    def factor(self, opened: int) -> float:
        """Factor for a section opened by calibration `opened`, once the next one is taken."""
        if not self.rescale:
            return 1.0
        return 2.0 * REFERENCE_S / (self.kernel_s[opened] + self.kernel_s[opened + 1])


def cpu_seconds() -> float:
    """User+system CPU of this process and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def time_setup(workload: str, seed: int) -> float:
    """Spawn-to-exit seconds of one set-up in a fresh interpreter.

    No timeout: with one, subprocess polls for the exit in sleeps of up to
    50 ms, which would round every time to that step.
    """
    probe = [sys.executable, os.path.join(workloads.HERE, "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    subprocess.run(probe, cwd=program.ROOT, check=True)
    return time.perf_counter() - started


def run_op(workload, op, trace=False, tracer=None):
    """(output, seconds) of one operation, caches cleared first; traced
    in this process when a tracer is given, in the child when trace is set."""
    workload.clear_caches()
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        output = op.run(trace)
    except Exception as exc:  # a program fault is a failed operation, not a benchmark crash
        output = workloads.Crash(f"{type(exc).__name__}: {exc}")
    finally:
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
            workload.clear_caches(tracer)
    return output, seconds


def run_round(workload, speed):
    """Run every operation once; return (wall s, cpu s, [(op, output,
    seconds)]), with times rescaled by speed.  The wall time is the sum of
    the operations' times, without the calibrations between them."""
    timed = []
    speed.calibrate()
    for op in workload.ops:
        opened = speed.opening()
        cpu_before = cpu_seconds()
        output, seconds = run_op(workload, op)
        timed.append((op, output, seconds, cpu_seconds() - cpu_before, opened))
        speed.charge(seconds)
    speed.calibrate()
    results, wall, cpu = [], 0.0, 0.0
    for op, output, seconds, op_cpu, opened in timed:
        factor = speed.factor(opened)
        wall += seconds * factor
        cpu += op_cpu * factor
        results.append((op, output, seconds * factor))
    return wall, cpu, results


def run_traced_round(workload, tracer):
    """Run every operation twice, untraced and traced, the order alternating
    from one operation to the next so that drift in machine speed falls on
    both sides alike.  Returns ([(op, output, seconds, traced)], counters,
    import seconds of the traced children)."""
    tracer.reset()
    results = []
    for i, op in enumerate(workload.ops):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            in_process = tracer if traced and workload.in_process else None
            results.append((op, *run_op(workload, op, traced, in_process), traced))
    if workload.in_process:
        return results, tracer.raw(), []
    raws = [workloads.child_trace(output) for _, output, _, traced in results if traced]
    raws = [raw for raw in raws if raw is not None]
    return results, tracing.merge(raws), [raw["import_s"] for raw in raws]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verdicts(results):
    """Classify a round's outputs as soon as it ends, outside the timed
    section, so that no output outlives its round and none adds to the
    peak memory of the next."""
    return [workloads.classify(op, output) for op, output, *_ in results]


def end_to_end(workload, args):
    """Untraced rounds for --seconds: the end-to-end metrics and every verdict."""
    speed = HostSpeed(rescale=workload.in_process)
    walls, cpus, latencies, setups, outcomes = [], [], [], [], []
    while speed.timed_s < args.seconds:
        wall, cpu, results = run_round(workload, speed)
        walls.append(wall)
        cpus.append(cpu)
        latencies += [seconds for _, _, seconds in results]
        outcomes += verdicts(results)
        del results
        setups.append(time_setup(args.workload, args.seed))  # between rounds, to sample the whole run
    peak = peak_rss_mb(workload.in_process)
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(args.workload, args.seed))
    if speed.kernel_s:
        print(f"host speed: speed_kernel median {statistics.median(speed.kernel_s) * 1e3:.3f} ms over "
              f"{len(speed.kernel_s)} calibrations, reference {REFERENCE_S * 1e3:.3f} ms", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "op_p99_ms": (percentile(latencies, 99) * 1000.0, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return outcomes, metrics


def per_layer(workload, args):
    """Paired untraced and traced runs of every operation for --seconds:
    per-layer metrics (medians over rounds) and the tracing overhead."""
    tracer = tracing.Tracer()
    samples = {}  # tracer cost per call, calibrated once a round to follow drift in machine speed
    rounds, import_s, outcomes, measured, plain_s, traced_s = [], [], [], 0.0, 0.0, 0.0
    while measured < args.seconds:
        for kind, values in tracing.calibrate().items():
            samples.setdefault(kind, []).extend(values)
        results, counters, children_import_s = run_traced_round(workload, tracer)
        rounds.append(counters)
        import_s += children_import_s
        for _, _, seconds, traced in results:
            measured += seconds
            if traced:
                traced_s += seconds
            else:
                plain_s += seconds
        outcomes += verdicts(results)
        del results
    costs = {kind: statistics.median(values) for kind, values in samples.items()}
    print("tracer cost per call: " + ", ".join(f"{k} {v * 1e9:.0f} ns" for k, v in costs.items()), file=sys.stderr)
    per_round = [tracing.layer_metrics(tracing.merge([counters]), costs) for counters in rounds]
    metrics = {}
    for name in tracing.metric_names():
        if name == "cli.import_s":
            value = statistics.median(import_s) if import_s else IMPORT_S
        elif name == "trace.overhead_pct":
            value = (traced_s / plain_s - 1.0) * 100.0
        else:
            value = max(0.0, statistics.median(r[name] for r in per_round))
        metrics[name] = (value, tracing.metric_unit(name))
    return outcomes, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.environ.pop("BGRANK_THREADS", None)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    verdict_list, metrics = (per_layer if args.trace else end_to_end)(workload, args)

    outcomes = {"failed": [], "wrong": []}
    for kind, why in verdict_list:
        if kind != "ok":
            outcomes[kind].append(why)
    if workload.library_checks is not None:
        outcomes["wrong"] += workload.library_checks()
    for kind, whys in outcomes.items():
        for why in dict.fromkeys(whys):
            print(f"{kind}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcomes["wrong"],
        "attempted": len(verdict_list),
        "failed": len(outcomes["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
