"""Spans and counters around frob2d's public functions, from outside the package.

``Tracer.install()`` rebinds every public function of every ``frob2d``
module in each module that binds it (``tqft`` and ``frobenius`` import
``compose`` from ``linalg``, the benchmark imports from ``frob2d``), so all
calls go through one wrapper per function.  A span records name, start,
end, parent span and operation id; spans stay in memory until ``write``.
Self time is a span's duration minus the time its child spans and the
tracer's own counting cover.  Nothing is changed unless ``install`` runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

CACHED = ("identity", "braiding", "interleaver")
EXACT_BITS_LIMIT = 1 << 16  # larger compose outputs are not scanned for bit size


def entry_bits(entries) -> int:
    """Largest numerator or denominator bit length among exact rationals."""
    best = 0
    for x in entries:
        if isinstance(x, int):
            bits = x.bit_length()
        else:
            bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        if bits > best:
            best = bits
    return best


# -- counters taken at the layer boundaries ------------------------------------


def _compose(tr, args, result, parent):
    if len(args) != 2:
        return  # the product of several factors recurses into pairwise calls
    f, g = args
    nnz = len(f.entries) - f.entries.count(0)
    tr.counts["compose.inner_steps"] += nnz * g.cols
    tr.counts["compose.nnz"] += nnz
    tr.counts["compose.cells"] += len(f.entries)
    if len(result.entries) <= EXACT_BITS_LIMIT:
        tr.maxima["max_entry_bits"] = max(tr.maxima["max_entry_bits"], entry_bits(result.entries))


def _kron(tr, args, result, parent):
    cells = len(result.entries)
    tr.counts["kron.cells_out"] += cells
    if parent == "tqft.evaluate":
        tr.maxima["max_layer_cells"] = max(tr.maxima["max_layer_cells"], cells)


def _evaluate(tr, args, result, parent):
    slices = args[0].slices
    tr.counts["tqft.slices"] += len(slices)
    width = max((max(sum(g.arity_in for g in s), sum(g.arity_out for g in s)) for s in slices),
                default=0)
    tr.samples["evaluate"].append((width, tr.last_ns))


def _check_frobenius(tr, args, result, parent):
    tr.samples["check_frobenius"].append((args[0].dim, tr.last_ns))


def _check_extended(tr, args, result, parent):
    if parent == "frobenius.search_theta":
        tr.counts["search_theta.candidates"] += 1


def _search_theta(tr, args, result, parent):
    tr.counts["search_theta.hits"] += len(result)


def _compare(tr, args, result, parent):
    tr.counts["compare.cells"] += args[1].rows * args[1].cols


def _load(tr, args, result, parent):
    tr.counts["documents.bytes_read"] += os.path.getsize(args[0])


HOOKS = {
    "linalg.compose": _compose, "linalg.kron": _kron, "tqft.evaluate": _evaluate,
    "frobenius.check_frobenius": _check_frobenius, "frobenius.check_extended": _check_extended,
    "frobenius.search_theta": _search_theta, "report.compare": _compare,
    "documents.load_algebra": _load, "documents.load_morphism": _load,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name, self.span_parent, self.span_op = array("i"), array("i"), array("i")
        self.span_start, self.span_end = array("q"), array("q")
        self.op = -1
        self.stats = defaultdict(lambda: [0, 0, 0])  # name -> calls, self ns, total ns
        self.counts = Counter()
        self.maxima = Counter()
        self.samples = defaultdict(list)
        self.cache = [0, 0, 0]  # hits, misses, entries
        self.last_ns = 0
        self._stack = []
        self._open = Counter()
        self._patched = []
        self._cached = {}

    # -- spans ------------------------------------------------------------------

    def _enter(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self._open[name] += 1
        frame = [index, name, 0, 0]
        self._stack.append(frame)
        frame[3] = now = perf_counter_ns()
        self.span_start.append(now)
        return frame

    def _leave(self, frame, hook=None, args=None, result=None):
        end = perf_counter_ns()
        index, name, child_ns, start = frame
        self._stack.pop()
        self.span_end[index] = end
        duration = self.last_ns = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration - child_ns
        self._open[name] -= 1
        if not self._open[name]:
            stat[2] += duration  # outermost call only, so recursion is not counted twice
        if hook is not None:
            hook(self, args, result, self._stack[-1][1] if self._stack else None)
        if self._stack:
            self._stack[-1][2] += perf_counter_ns() - start

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the root span of an operation)."""
        frame = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._leave(frame)
            raise
        self._leave(frame)
        return result

    def _wrap(self, name, fn):
        enter, leave, hook = self._enter, self._leave, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame)
                raise
            leave(frame, hook, args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap frob2d's public functions wherever they are bound."""
        import frob2d.cli  # noqa: F401  (loads every frob2d module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "frob2d" or n.startswith("frob2d.")] + list(extra_modules)
        linalg = sys.modules["frob2d.linalg"]
        self._cached = {n: getattr(linalg, n) for n in CACHED}
        self._cache_start = self._cache_totals()
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or not home.startswith("frob2d.")
                        or not (inspect.isfunction(obj) or hasattr(obj, "cache_info"))):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{home[7:]}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[id(obj)])
                self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()
        hits, misses, entries = self._cache_totals()
        self.cache[0] += hits - self._cache_start[0]
        self.cache[1] += misses - self._cache_start[1]
        self.cache[2] = max(self.cache[2], entries)

    def _cache_totals(self):
        infos = [f.cache_info() for f in self._cached.values()]
        return (sum(i.hits for i in infos), sum(i.misses for i in infos),
                sum(i.currsize for i in infos))

    # -- another process's trace ---------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "spans": [list(self.span_name), list(self.span_start), list(self.span_end),
                          list(self.span_parent)],
                "stats": self.stats, "counts": self.counts, "maxima": self.maxima,
                "samples": self.samples, "cache": self.cache,
            }, fh)

    def merge(self, path):
        """Add a trace written by ``dump`` in a child process, under ``self.op``."""
        with open(path) as fh:
            data = json.load(fh)
        ids = []
        for name in data["names"]:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            ids.append(self._ids[name])
        names, starts, ends, parents = data["spans"]
        base = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        for nid, start, end, up in zip(names, starts, ends, parents):
            self.span_name.append(ids[nid])
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(base + up if up >= 0 else parent)
            self.span_op.append(self.op)
        for name, (calls, self_ns, total_ns) in data["stats"].items():
            stat = self.stats[name]
            stat[0] += calls
            stat[1] += self_ns
            stat[2] += total_ns
        self.counts.update(data["counts"])
        for key, value in data["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        for key, values in data["samples"].items():
            self.samples[key].extend(tuple(v) for v in values)
        self.cache[0] += data["cache"][0]
        self.cache[1] += data["cache"][1]
        self.cache[2] = max(self.cache[2], data["cache"][2])

    def write(self, path):
        """All spans as tab-separated op, name, start_ns, end_ns, parent index."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for row in zip(self.span_op, self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                fh.write(f"{row[0]}\t{names[row[1]]}\t{row[2]}\t{row[3]}\t{row[4]}\n")


# -- per-layer metrics --------------------------------------------------------

_WIDE, _AX, _CLI = "wide_words", "axioms", "cli"
_KERNEL = (("ops_per_s", _WIDE), ("latency_p90_ms", _WIDE), ("peak_rss_mb", _WIDE),
           ("ops_per_s", _AX))
_AXIOMS = (("ops_per_s", _AX), ("latency_p90_ms", _AX))
_DOCS = (("latency_p50_ms", _CLI), ("setup_s", "every in-process workload"))
_THETA = (("latency_p90_ms", _AX), ("latency_p50_ms", _CLI))
# Long narrow words run only in cli's over-4300-digit invariant (genus
# 14400-14600, the slowest call of a round): thousands of slices and
# big-integer growth, about a tenth of cli's operation time.
_LONG = (("ops_per_s", _CLI),)
_EVALUATE = (("ops_per_s", _WIDE), ("ops_per_s", _CLI))

# name, unit, better, the end-to-end (metric, workload) pairs it should move
PER_LAYER = (
    ("linalg.compose.calls", "count", "lower", _KERNEL),
    ("linalg.compose.self_s", "s", "lower", _KERNEL),
    ("linalg.compose.inner_steps", "count", "lower", _KERNEL),
    ("linalg.compose.density", "ratio", "higher", _KERNEL),
    ("linalg.kron.calls", "count", "lower", _KERNEL),
    ("linalg.kron.self_s", "s", "lower", _KERNEL),
    ("linalg.kron.cells_out", "count", "lower", _KERNEL),
    ("linalg.max_entry_bits", "bits", "lower", _LONG),
    ("linalg.cache.entries", "count", "lower", (("peak_rss_mb", _WIDE),)),
    ("linalg.cache.hit_ratio", "ratio", "higher", (("peak_rss_mb", _WIDE),)),
    ("tqft.evaluate.calls", "count", "lower", _EVALUATE),
    ("tqft.evaluate.self_s", "s", "lower", _EVALUATE),
    ("tqft.evaluate.total_s", "s", "lower", _EVALUATE),
    ("tqft.slices", "count", "lower", _EVALUATE),
    ("tqft.max_layer_cells", "count", "lower", (("peak_rss_mb", _WIDE), ("latency_p90_ms", _WIDE))),
    ("tqft.check_naturality.total_s", "s", "lower", (("ops_per_s", _WIDE),)),
    ("cobordism.validate_word.calls", "count", "lower", _LONG),
    ("cobordism.validate_word.self_s", "s", "lower", _LONG),
    ("cobordism.parse_word.total_s", "s", "lower", (("latency_p50_ms", _CLI),)),
    ("frobenius.check_frobenius.calls", "count", "lower", _AXIOMS),
    ("frobenius.check_frobenius.self_s", "s", "lower", _AXIOMS),
    ("frobenius.check_frobenius.total_s", "s", "lower", _AXIOMS),
    ("frobenius.check_extended.total_s", "s", "lower", _AXIOMS),
    ("frobenius.check_morphism.total_s", "s", "lower", _AXIOMS),
    ("frobenius.tensor.total_s", "s", "lower", _AXIOMS),
    ("frobenius.derive_comult.total_s", "s", "lower", _AXIOMS),
    ("frobenius.search_theta.total_s", "s", "lower", _THETA),
    ("frobenius.search_theta.candidates", "count", "lower", _THETA),
    ("frobenius.search_theta.hit_ratio", "ratio", "higher", _THETA),
    ("report.compare.calls", "count", "lower", (("ops_per_s", _AX),)),
    ("report.compare.self_s", "s", "lower", (("ops_per_s", _AX),)),
    ("report.compare.cells", "count", "lower", (("ops_per_s", _AX),)),
    ("documents.load_algebra.total_s", "s", "lower", _DOCS),
    ("documents.parse_algebra.self_s", "s", "lower", _DOCS),
    ("documents.save_algebra.total_s", "s", "lower", _DOCS),
    ("documents.bytes_read", "bytes", "lower", _DOCS),
    ("cli.import_ms", "ms", "lower", (("latency_p50_ms", _CLI),)),
    ("cli.handler_ms", "ms", "lower", (("latency_p50_ms", _CLI),)),
    ("cli.interpreter_ms", "ms", "lower", ()),  # control: no change to frob2d moves it
    ("tqft.evaluate.width_exponent", "slope", "lower", (("ops_per_s", _WIDE),)),
    ("frobenius.check_frobenius.dim_exponent", "slope", "lower", (("ops_per_s", _AX),)),
    ("trace.overhead_frac", "ratio", "lower", ()),
)


def loglog_slope(samples) -> float:
    """Least-squares slope of log(median time) against log(size); 0 below two sizes."""
    by_size = defaultdict(list)
    for size, ns in samples:
        if size > 0 and ns > 0:
            by_size[size].append(ns)
    if len(by_size) < 2:
        return 0.0
    sizes = sorted(by_size)
    return statistics.linear_regression(
        [math.log(s) for s in sizes],
        [math.log(statistics.median(by_size[s])) for s in sizes]).slope


def layer_values(tr: Tracer, probes: dict) -> dict:
    """Every PER_LAYER metric from a finished trace plus the probe timings."""
    def stat(name, field):
        calls, self_ns, total_ns = tr.stats.get(name, (0, 0, 0))
        return {"calls": calls, "self_s": self_ns / 1e9, "total_s": total_ns / 1e9}[field]

    c = tr.counts
    values = {}
    for name, *_ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "total_s"):
            values[name] = stat(layer, field)
    lookups = tr.cache[0] + tr.cache[1]
    values.update({
        "linalg.compose.inner_steps": c["compose.inner_steps"],
        "linalg.compose.density": (c["compose.nnz"] / c["compose.cells"]
                                   if c["compose.cells"] else 0.0),
        "linalg.kron.cells_out": c["kron.cells_out"],
        "linalg.max_entry_bits": tr.maxima["max_entry_bits"],
        "linalg.cache.entries": tr.cache[2],
        "linalg.cache.hit_ratio": tr.cache[0] / lookups if lookups else 0.0,
        "tqft.slices": c["tqft.slices"],
        "tqft.max_layer_cells": tr.maxima["max_layer_cells"],
        "frobenius.search_theta.candidates": c["search_theta.candidates"],
        "frobenius.search_theta.hit_ratio": (c["search_theta.hits"] / c["search_theta.candidates"]
                                             if c["search_theta.candidates"] else 0.0),
        "report.compare.cells": c["compare.cells"],
        "documents.bytes_read": c["documents.bytes_read"],
        "tqft.evaluate.width_exponent": loglog_slope(tr.samples["evaluate"]),
        "frobenius.check_frobenius.dim_exponent": loglog_slope(tr.samples["check_frobenius"]),
    })
    values.update(probes)
    return {name: values[name] for name, *_ in PER_LAYER}
