"""The three workloads: their inputs, operations and output checks.

A workload is a fixed list of operations built from the seed; one round
runs every operation once, in list order.  An operation's run() returns
its raw output and check() classifies that output afterwards:
("ok", None), ("failed", why) when the program errored, or ("wrong", why)
when it finished with an output the independent checkers reject.

Grids and sizes are the benchmark's own constants, never the program's
defaults, so a workload does not change when the program does.
"""

import io
import json
import os
import random
import subprocess
import sys

import checkers
import program
from tracer import STATS_MARK

HERE = os.path.dirname(os.path.abspath(__file__))


class Op:
    """One timed operation: run(trace) gives its output, check(output) classifies it."""

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


class Crash:
    """Output of an operation that raised instead of returning."""

    def __init__(self, text):
        self.text = text


class Workload:
    """Operations of one round, plus what the run loop needs around them.

    in_process workloads are traced by patching this process; the others
    trace their child processes.  caches are cleared before every
    operation; library_checks() runs once, after the timed rounds.
    """

    def __init__(self, ops, in_process=True, caches=(), library_checks=None):
        self.ops, self.in_process, self.caches = ops, in_process, list(caches)
        self.library_checks = library_checks

    def clear_caches(self, tracer=None):
        """Clear every cache, first adding its statistics to tracer if given."""
        for fn in self.caches:
            if tracer is not None:
                tracer.note_cache(fn)
            fn.cache_clear()


def classify(op, output):
    """("ok", None), ("failed", why) or ("wrong", why) for one output."""
    if isinstance(output, Crash):
        return "failed", f"{op.label}: {output.text}"
    kind, why = op.check(output)
    return kind, None if why is None else f"{op.label}: {why}"


def _verdict(problem, kind="wrong"):
    """("ok", None) for no problem, else (kind, problem)."""
    return ("ok", None) if problem is None else (kind, problem)


# ---------------------------------------------------------------- identity-sweep

def _range(lo, hi):
    return list(range(lo, hi + 1))


def _eq_grid(identity, ns=(None,), nus=(None,), ks=(None,), degree=None):
    labels = []
    for n_cap in ns:
        for nu in nus:
            for k in ks:
                params = [(key, v) for key, v in (("N", n_cap), ("nu", nu), ("k", k), ("D", degree)) if v is not None]
                labels.append(" ".join([identity] + [f"{key}={v}" for key, v in params]))
    return labels


# (argv, expected grid labels); every grid is spelt out in full.
IDENTITY_SWEEP = [
    (["eq1", "--N", "0..6", "--nu", "0,1", "--k=-4..5"], _eq_grid("eq1", _range(0, 6), (0, 1), _range(-4, 5))),
    (["eq1", "--N", "7", "--nu", "0,1", "--k=-3..4"], _eq_grid("eq1", (7,), (0, 1), _range(-3, 4))),
    (["eq1", "--N", "8", "--nu", "0", "--k=-1..1"], _eq_grid("eq1", (8,), (0,), _range(-1, 1))),
    (["eq52", "--N", "0..24", "--nu", "0,1"], _eq_grid("eq52", _range(0, 24), (0, 1))),
    (["eq2", "--k=-3..3", "--degree", "60"], _eq_grid("eq2", ks=_range(-3, 3), degree=60)),
    (["eq3", "--degree", "72"], _eq_grid("eq3", degree=72)),
    (["eq51", "--N", "0..4", "--nu", "0,1", "--k=-3..3", "--degree", "44"], _eq_grid("eq51", _range(0, 4), (0, 1), _range(-3, 3), 44)),
    (["eq53", "--N", "0..8", "--nu", "0,1", "--degree", "80"], _eq_grid("eq53", _range(0, 8), (0, 1), degree=80)),
]
# theorem31 runs without --json: only its text lines carry the two counts.
THEOREM31 = (["theorem31", "--n-max", "24", "--N", "0..5", "--nu", "0,1", "--k=-3..3"], 24, _range(0, 5), (0, 1), _range(-3, 3))


def identity_sweep(seed: int) -> Workload:
    import bgrank.cli

    def run_cli(argv):
        def run(trace=False):
            out = io.StringIO()
            code = bgrank.cli.main(["verify"] + argv, out)
            return code, out.getvalue()

        return run

    ops = []
    for argv, labels in IDENTITY_SWEEP:
        ops.append(Op(
            "verify " + " ".join(argv),
            run_cli(argv + ["--json"]),
            lambda output, labels=labels: _verdict(checkers.check_verify_json(labels, *output)),
        ))
    argv, n_max, ns, nus, ks = THEOREM31
    grid = [(n, n_cap, nu, k) for n in range(n_max + 1) for n_cap in ns for nu in nus for k in ks]
    ops.append(Op(
        "verify " + " ".join(argv),
        run_cli(argv),
        lambda output: _verdict(checkers.check_theorem31_text(grid, *output)),
    ))
    random.Random(seed).shuffle(ops)
    # Each `verify` command stands for its own bgrank invocation, so the
    # program's caches start cold for every operation.
    return Workload(ops, caches=program.caches(), library_checks=library_checks)


def library_checks() -> list[str]:
    """The layer functions behind identity-sweep, at small sizes, against
    the independent DPs.  Run once per run, after the timed rounds."""
    from bgrank import qseries as qs

    problems = []

    def note(problem):
        if problem:
            problems.append(problem)

    for m in range(0, 13):
        table = checkers.strict_rank_table(m)
        for k in range(-m // 2 - 2, m // 2 + 3):
            note(checkers.compare_coeffs(f"strict_bgrank_gf({m},{k})", qs.strict_bgrank_gf(m, k).coeffs, table.get(k, [])))
    for k in range(-3, 4):
        note(checkers.check_strict_series(k, 40, qs.strict_rank_series(k, 40).coeffs))
    for m in range(0, 8):
        for k in range(-3, 4):
            note(checkers.check_all_gf(m, k, 30, qs.all_bgrank_gf(m, k, 30).coeffs))
    for base, factors, degree in ((2, None, 80), (1, 12, 80), (2, 5, 60), (1, None, 60)):
        note(checkers.check_inv_pochhammer(base, factors, degree, qs.inv_pochhammer(base, factors, degree).coeffs))
    for m in range(0, 15):
        for n in range(0, m + 1):
            note(checkers.check_gaussian_exact(m, n, qs.gaussian_binomial(m, n).coeffs))
    note(checkers.check_gaussian(48, 24, 1, qs.gaussian_binomial(48, 24).coeffs))
    for count in range(0, 25):
        note(checkers.check_neg_pochhammer(count, qs.neg_q_pochhammer(count).coeffs))
    return problems


# ---------------------------------------------------------------- bijection-roundtrip

# One round: SMALL forward and SMALL reverse operations with 2N+nu drawn
# from SMALL_SPAN, MEDIUM of each direction at 2N+nu = MEDIUM_SPAN, and two
# large forward shapes that stress the cover layer: one sparse and long,
# and one dense, 900 of the values up to 1000, whose covers set the run's
# peak memory.  The medium class (3.8 % of operations) sits above the 95th
# percentile and below the large one (0.3 %), so the 99th percentile falls
# inside it, not on a class boundary.
SMALL = 300
MEDIUM = 12
SMALL_SPAN = (8, 40)
MEDIUM_SPAN = 180
SPARSE_LARGEST = 6000
DENSE_LARGEST, DENSE_PARTS = 1000, 900


def _strict_with_largest(rng, largest, count=None):
    below = range(1, largest)
    rest = rng.sample(below, count - 1) if count is not None else [v for v in below if rng.random() < 0.5]
    return tuple(sorted(rest + [largest], reverse=True))


def _box_for(rng, k, largest):
    """The minimal box for rank k and this largest part, sometimes widened."""
    n_cap, nu = checkers.minimal_box(k, largest)
    v = 2 * n_cap + nu + rng.choice((0, 0, 1, 2))
    return v // 2, v % 2


def _given(rng, box):
    """The box to pass, or None (one time in four) to let the program pick the minimal one."""
    return None if rng.random() < 0.25 else box


def _partition_in_box(rng, max_part, max_len):
    if max_part <= 0 or max_len <= 0:
        return ()
    length = rng.randint(0, max_len)
    return tuple(sorted((rng.randint(1, max_part) for _ in range(length)), reverse=True))


def _reverse_input(rng, v):
    n_cap, nu = v // 2, v % 2
    k = rng.randint(-n_cap, n_cap + nu)
    return k, n_cap, nu, _partition_in_box(rng, n_cap + nu - k, n_cap + k)


def bijection_roundtrip(seed: int) -> Workload:
    from bgrank import bijections
    from bgrank.partitions import Partition, StrictPartition

    rng = random.Random(seed)

    def forward(d):
        k = checkers.bg_rank(d)
        n_cap, nu = _box_for(rng, k, d[0] if d else 0)
        box = _given(rng, bijections.ParameterBox(n_cap, nu, k))
        if box is None:
            n_cap, nu = checkers.minimal_box(k, d[0] if d else 0)
        strict = StrictPartition(d)

        def run(trace=False):
            out = []
            for conjugate_positive in (True, False):
                pair = bijections.map_strict(strict, box, conjugate_positive=conjugate_positive)
                back = bijections.unmap_strict(pair.triangular, pair.image, box, conjugated=pair.conjugated)
                out.append((conjugate_positive, pair.k, pair.triangular, pair.image.parts, pair.conjugated, back.parts))
            return out

        def check(out):
            for conjugate_positive, *rest in out:
                problem = checkers.check_forward(d, n_cap, nu, conjugate_positive, *rest)
                if problem:
                    return "wrong", problem
            return "ok", None

        return Op(f"forward largest={d[0] if d else 0} parts={len(d)}", run, check)

    def reverse(k, n_cap, nu, image):
        box, source = _given(rng, bijections.ParameterBox(n_cap, nu, k)), Partition(image)
        t = checkers.staircase_weight(k)

        def run(trace=False):
            d = bijections.unmap_strict(t, source, box, conjugated=True)
            pair = bijections.map_strict(d, box, conjugate_positive=True)
            return d.parts, pair.triangular, pair.image.parts, pair.k

        return Op(
            f"reverse box={n_cap},{nu} k={k} parts={len(image)}",
            run,
            lambda out: _verdict(checkers.check_reverse(k, n_cap, nu, image, *out)),
        )

    ops = []
    for _ in range(SMALL):
        ops.append(forward(_strict_with_largest(rng, rng.randint(*SMALL_SPAN))))
        ops.append(reverse(*_reverse_input(rng, rng.randint(*SMALL_SPAN))))
    for _ in range(MEDIUM):
        ops.append(forward(_strict_with_largest(rng, MEDIUM_SPAN, MEDIUM_SPAN // 2)))
        ops.append(reverse(*_reverse_input(rng, MEDIUM_SPAN)))
    ops.append(forward((SPARSE_LARGEST, SPARSE_LARGEST - 1, rng.randint(1, 40))))
    ops.append(forward(_strict_with_largest(rng, DENSE_LARGEST, DENSE_PARTS)))
    rng.shuffle(ops)
    return Workload(ops)


# ---------------------------------------------------------------- cli-oneshot

# Commands that must be refused with exit 2 or 3, an `error:` line and no
# traceback.  Their inputs do not depend on the seed.
MALFORMED = [
    ["gf", "strict", "--max-part", "-1"],
    ["verify", "eq1", "--nu", "2"],
    ["verify", "eq1", "--N", "0..x"],
    ["gf", "invpoch", "--factors", "abc"],
]


def _coeffs_check(check, *params):
    """Check of a `gf ... --json` stdout: its coefficients go last to check()."""
    return lambda stdout: check(*params, [int(c) for c in json.loads(stdout)["coeffs"]])


def cli_commands(seed: int):
    """(argv, check of stdout or None for a malformed command) in run order."""
    rng = random.Random(seed)
    d = _strict_with_largest(rng, rng.randint(24, 36))
    k = checkers.bg_rank(d)
    n_cap, nu = _box_for(rng, k, d[0])
    rk, rn, rnu, image = _reverse_input(rng, rng.randint(24, 36))
    t = checkers.staircase_weight(rk)
    ranked = _partition_in_box(rng, 30, 12)
    fmt = lambda parts: ",".join(map(str, parts))  # noqa: E731
    commands = [
        (["gf", "gaussian", "--m", "116", "--n", "58", "--json"], _coeffs_check(checkers.check_gaussian, 116, 58, 1)),
        (["gf", "gaussian", "--m", "100", "--n", "50", "--base", "2", "--json"], _coeffs_check(checkers.check_gaussian, 100, 50, 2)),
        (["gf", "negpoch", "--count", "120", "--json"], _coeffs_check(checkers.check_neg_pochhammer, 120)),
        (["gf", "invpoch", "--base", "2", "--degree", "400", "--json"], _coeffs_check(checkers.check_inv_pochhammer, 2, None, 400)),
        (["gf", "invpoch", "--base", "1", "--factors", "12", "--degree", "300", "--json"], _coeffs_check(checkers.check_inv_pochhammer, 1, 12, 300)),
        (["gf", "strict", "--max-part", "14", "--k", "1", "--json"], _coeffs_check(checkers.check_strict_gf, 14, 1)),
        (["gf", "all", "--max-part", "9", "--k=-1", "--degree", "40", "--json"], _coeffs_check(checkers.check_all_gf, 9, -1, 40)),
        (["map", fmt(d), "--box", f"{n_cap},{nu}", "--json"],
         lambda out: checkers.check_map_record(d, n_cap, nu, json.loads(out))),
        (["unmap", str(t), fmt(image), "--box", f"{rn},{rnu}", "--json"],
         lambda out: checkers.check_unmap_record(t, image, rn, rnu, json.loads(out))),
        (["rank", fmt(ranked), "--json"], lambda out: checkers.check_rank_record(ranked, json.loads(out))),
    ] + [(argv, None) for argv in MALFORMED]
    rng.shuffle(commands)
    return commands


def cli_oneshot(seed: int) -> Workload:
    env = dict(os.environ)
    env.pop("BGRANK_THREADS", None)
    env["PYTHONPATH"] = program.SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A traced child starts through runpy too, as `-m child`, so traced and
    # untraced executions pay the same start-up.
    plain = ([sys.executable, "-m", "bgrank"], env)
    traced = ([sys.executable, "-m", "child"], dict(env, PYTHONPATH=env["PYTHONPATH"] + os.pathsep + HERE))
    ops = []
    for argv, check_stdout in cli_commands(seed):

        def run(trace=False, argv=argv):
            command, command_env = traced if trace else plain
            done = subprocess.run(
                command + argv, cwd=program.ROOT, env=command_env, capture_output=True, text=True,
            )  # no timeout: it would make subprocess poll for the exit in sleeps of up to 50 ms
            return done.returncode, done.stdout, done.stderr

        def check(output, argv=argv, check_stdout=check_stdout):
            code, stdout, stderr = output
            stderr = "\n".join(line for line in stderr.splitlines() if not line.startswith(STATS_MARK))
            if check_stdout is None:
                return _verdict(checkers.check_usage_error(code, stderr), "failed")
            if code != 0 or "Traceback" in stderr:
                return "failed", f"exit {code}: {stderr.strip()[-200:]}"
            try:
                return _verdict(check_stdout(stdout))
            except (ValueError, KeyError, TypeError) as exc:
                return "wrong", f"unreadable output ({exc})"

        ops.append(Op("bgrank " + " ".join(argv), run, check))
    return Workload(ops, in_process=False)


def child_trace(output) -> dict | None:
    """Tracer counters, with import_s, reported by a traced child, or None."""
    if isinstance(output, Crash):
        return None
    _, _, stderr = output
    for line in stderr.splitlines():
        if line.startswith(STATS_MARK):
            return json.loads(line[len(STATS_MARK):])
    return None


WORKLOADS = {
    "identity-sweep": identity_sweep,
    "bijection-roundtrip": bijection_roundtrip,
    "cli-oneshot": cli_oneshot,
}
