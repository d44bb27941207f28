"""Per-layer spans recorded from outside the program.

Tracer.install() replaces every public function of the bgrank layer
modules, and the QPolynomial arithmetic methods, with a timing wrapper.
It rebinds the name in every bgrank module that holds it (the modules
import one another's functions by name), and uninstall() puts the
originals back.  Each wrapped call is a span; a span's self time is its
duration minus the spans nested in it, and a layer's self time is the sum
over its spans.  A recursive function is timed only at its outermost
call, while every call is counted.  A generator is timed per item it
yields.  Counters stay in memory until raw() hands them out.

The wrapper's own bookkeeping costs time, and some of it falls inside the
enclosing span: before a nested call opens its span and after it closes.
calibrate() measures that cost per nested call on an empty function, and
layer_metrics() takes it out of every span by the number of spans opened
and nested calls made.  The result is an estimate: the cost moves with
the host's speed between the calibration and the traced round.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("partitions", "sequences", "cover", "bijections", "qseries", "enumeration", "cli")

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "truncate", "zero", "one", "monomial")
_COMPARISON = ("first_difference", "__eq__")

ENUM_SIDE = ("qseries.strict_bgrank_gf", "qseries.all_bgrank_gf", "qseries.strict_rank_series")
PRODUCT_SIDE = (
    "qseries.gaussian_binomial",
    "qseries.neg_q_pochhammer",
    "qseries.inv_pochhammer",
    "qseries.substitute_power",
) + tuple(f"qseries.QPolynomial.{name}" for name in _ARITHMETIC)
COMPARE = tuple(f"qseries.QPolynomial.{name}" for name in _COMPARISON)
MUL = ("qseries.QPolynomial.__mul__", "qseries.QPolynomial.__rmul__")

# Functions whose self time is reported on its own: metric prefix -> span keys.
FUNCTION_METRICS = {
    "qseries.strict_bgrank_gf": ("qseries.strict_bgrank_gf",),
    "qseries.gaussian_binomial": ("qseries.gaussian_binomial",),
    "qseries.neg_q_pochhammer": ("qseries.neg_q_pochhammer",),
    "qseries.inv_pochhammer": ("qseries.inv_pochhammer",),
    "qseries.QPolynomial.mul": MUL,
    "cover.assemble": ("cover.assemble",),
    "cover.double_cover": ("cover.double_cover",),
    "cover.read_cover": ("cover.read_cover",),
    "cover.cover_preimage": ("cover.cover_preimage",),
    "bijections.staircase_join": ("bijections.staircase_join",),
    "bijections.minimal_box": ("bijections.minimal_box", "bijections.minimal_box_for_image"),
    "partitions.shifted_column_profile": ("partitions.shifted_column_profile",),
    "partitions.conjugate": ("partitions.conjugate",),
    "sequences.split_point": ("sequences.split_point",),
}
WORK_COUNTERS = ("qseries.coeffs_out", "cover.blocks", "partitions.cells", "enumeration.yielded")
# A traced child process writes its counters to stderr on one line after this mark.
STATS_MARK = "@@perfbench-trace "


class Tracer:
    """Span recorder for the bgrank modules loaded in this process."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self._stack = []  # one [nested seconds, nested spans, nested counted-only calls] cell per open span
        self._records = {}  # key -> [calls, self seconds, spans, nested spans, nested counted-only calls]
        self.work = defaultdict(int)
        self.cache = defaultdict(int)  # gaussian_binomial lru_cache hits and misses

    def reset(self):
        """Zero every counter in place: the installed wrappers hold them."""
        for record in self._records.values():
            record[:] = [0, 0.0, 0, 0, 0]
        self.work.clear()
        self.cache.clear()

    def _counter(self, layer):
        """The work counter of a layer, as f(args, result), or None."""
        work, stack, perf = self.work, self._stack, time.perf_counter
        if layer == "qseries":
            attribute, name = "coeffs", "qseries.coeffs_out"
        elif layer == "cover":
            attribute, name = "covered", "cover.blocks"
        elif layer == "partitions":

            def count_cells(args, result):
                # Its cost grows with the partition, so it is timed and
                # taken out of the enclosing span.
                started = perf()
                for arg in args:
                    parts = getattr(arg, "parts", None)
                    if parts is not None:
                        work["partitions.cells"] += sum(parts)
                if stack:
                    stack[-1][0] += perf() - started

            return count_cells
        else:
            return None

        def count_length(args, result):
            value = getattr(result, attribute, None)
            if value is not None:
                work[name] += len(value)

        return count_length

    def _wrap(self, layer, key, fn):
        stack, perf, count = self._stack, time.perf_counter, self._counter(layer)
        record = self._records.setdefault(key, [0, 0.0, 0, 0, 0])
        depth = [0]  # 1 while a span of this function is open: a nested call is recursion

        def close(cell, started):
            duration = perf() - started
            stack.pop()
            record[1] += duration - cell[0]
            record[2] += 1
            record[3] += cell[1]
            record[4] += cell[2]
            if stack:
                stack[-1][0] += duration

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                record[0] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        if stack:
                            stack[-1][1] += 1
                        cell = [0.0, 0, 0]
                        stack.append(cell)
                        started = perf()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close(cell, started)
                        self.work[f"{layer}.yielded"] += 1
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        # The hot path is written out in full: every statement here is tracer
        # cost that calibrate() has to take back out.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record[0] += 1
            if depth[0]:
                if stack:
                    stack[-1][2] += 1
                result = fn(*args, **kwargs)
            else:
                if stack:
                    stack[-1][1] += 1
                cell = [0.0, 0, 0]
                stack.append(cell)
                depth[0] = 1
                started = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf() - started
                    depth[0] = 0
                    stack.pop()
                    record[1] += duration - cell[0]
                    record[2] += 1
                    record[3] += cell[1]
                    record[4] += cell[2]
                    if stack:
                        stack[-1][0] += duration
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of each layer and rebind it everywhere."""
        modules = [m for n, m in sys.modules.items() if n == "bgrank" or n.startswith("bgrank.")]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"bgrank.{layer}"]
            for name, value in vars(module).items():
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(getattr(value, "__wrapped__", value)):
                    wrappers[id(value)] = (value, self._wrap(layer, f"{layer}.{name}", value))
        for module in modules:
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, entry[1])
        qpoly = sys.modules["bgrank.qseries"].QPolynomial
        for name in _ARITHMETIC + _COMPARISON:
            raw = qpoly.__dict__.get(name)
            if raw is None:
                continue
            key = f"qseries.QPolynomial.{name}"
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap("qseries", key, raw.__func__))
            else:
                patched = self._wrap("qseries", key, raw)
            self._patches.append((qpoly, name, raw))
            setattr(qpoly, name, patched)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def note_cache(self, fn):
        """Add gaussian_binomial's public cache statistics; call before the cache is cleared."""
        info = getattr(fn, "cache_info", None)
        if info is not None and getattr(fn, "__name__", None) == "gaussian_binomial":
            stats = info()
            self.cache["hits"] += stats.hits
            self.cache["misses"] += stats.misses

    def raw(self) -> dict:
        """Counters as plain data, to be merged across rounds and processes."""
        raw = {field: {key: record[i] for key, record in self._records.items() if record[0]} for i, field in enumerate(RECORD)}
        return dict(raw, work=dict(self.work), cache=dict(self.cache))


RECORD = ("calls", "self_s", "spans", "nested", "nested_counted")
FIELDS = RECORD + ("work", "cache")


def calibrate(calls: int = 10000, repeats: int = 3) -> dict[str, list[float]]:
    """Samples, one per repeat, of the tracer seconds charged per call.

    "timed": to the enclosing span, per nested call that opens its own span;
    "counted": to the enclosing span, per nested recursive call, which is
    only counted; "span": to a span itself, per span opened (the self time
    of an empty function).  The calibration functions are put in the cover
    layer, so they pay its work counter as the many small cover calls do.
    """

    def leaf():
        return None

    def loop(fn=None):
        if fn is not None:
            for _ in range(calls):
                fn()

    tracer = Tracer()
    outer = tracer._wrap("cover", "calibrate.loop", loop)
    timed_leaf = tracer._wrap("cover", "calibrate.leaf", leaf)

    def outer_self(fn):
        tracer.reset()
        outer(fn)
        return tracer.raw()["self_s"]["calibrate.loop"]

    samples = {"timed": [], "counted": [], "span": []}
    for _ in range(repeats):
        base = outer_self(leaf)
        samples["counted"].append((outer_self(outer) - base) / calls)  # outer() inside outer: a recursive call
        samples["timed"].append((outer_self(timed_leaf) - base) / calls)
        samples["span"].append(tracer.raw()["self_s"]["calibrate.leaf"] / calls)
    return samples


def metric_names() -> list[str]:
    """Every per-layer metric, in the order the benchmark reports them."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"] if layer != "cli" else ["cli.self_s", "cli.import_s"]
        if layer == "qseries":
            names += [
                "qseries.enum_side_s",
                "qseries.product_side_s",
                "qseries.compare_s",
                "qseries.gaussian_binomial.calls",
                "qseries.gaussian_binomial.cache_hit_ratio",
                "qseries.QPolynomial.mul.calls",
            ]
        names += [f"{prefix}.self_s" for prefix in FUNCTION_METRICS if prefix.split(".")[0] == layer]
        names += [name for name in WORK_COUNTERS if name.split(".")[0] == layer]
    return names + ["trace.overhead_pct"]


def metric_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_pct", "%"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def merge(raws) -> dict:
    total = {field: Counter() for field in FIELDS}
    for raw in raws:
        for field, counter in total.items():
            counter.update(raw.get(field, {}))
    return total


def layer_metrics(raw: dict, costs: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from merged counters (all but cli.import_s and the
    overhead), self times net of the tracer costs from calibrate()."""
    calls, work, cache = raw["calls"], raw["work"], raw["cache"]
    self_s = {
        key: seconds
        - costs["span"] * raw["spans"].get(key, 0)
        - costs["timed"] * raw["nested"].get(key, 0)
        - costs["counted"] * raw["nested_counted"].get(key, 0)
        for key, seconds in raw["self_s"].items()
    }

    def total(counter, keys):
        return sum(counter.get(k, 0) for k in keys)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(v for k, v in self_s.items() if k.split(".")[0] == layer))
        if layer != "cli":
            out[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.split(".")[0] == layer)
    out["qseries.enum_side_s"] = float(total(self_s, ENUM_SIDE))
    out["qseries.product_side_s"] = float(total(self_s, PRODUCT_SIDE))
    out["qseries.compare_s"] = float(total(self_s, COMPARE))
    for prefix, keys in FUNCTION_METRICS.items():
        out[f"{prefix}.self_s"] = float(total(self_s, keys))
    out["qseries.gaussian_binomial.calls"] = calls.get("qseries.gaussian_binomial", 0)
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out["qseries.gaussian_binomial.cache_hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    out["qseries.QPolynomial.mul.calls"] = total(calls, MUL)
    for name in WORK_COUNTERS:
        out[name] = work.get(name, 0)
    return out
