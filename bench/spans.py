"""Span tracing of the calls into each zerosum module, from outside it.

A Tracer replaces public names where their callers look them up (for
example zerosum.finders.census and zerosum.families.weight) with wrappers
that record a span -- name, start, end, parent -- and pass arguments and
results through unchanged.  Spans are kept in flat arrays in memory and
written out when the run ends; per-layer metrics are derived from them,
with a span's self time being its duration minus that of its children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

FINDER_KINDS = ("tree", "path", "diam3", "connect")

# (module of zerosum, attribute, span name); a module-level function is
# wrapped in every namespace that calls it by that name
PATCHES = [
    ("oracle", "exhaustive_theorem_check", "oracle"),
    ("finders", "find_zero_sum_spanning_tree", "finders.tree"),
    ("finders", "find_zero_sum_spanning_path", "finders.path"),
    ("finders", "find_zero_sum_diam3_tree", "finders.diam3"),
    ("finders", "find_zero_sum_path_leq4", "finders.connect"),
    ("finders", "extract_monochromatic_forest", "finders.extract_forest"),
    ("finders", "census", "graphs.census"),
    ("finders", "weight", "graphs.weight"),
    ("families", "weight", "graphs.weight"),
    ("finders", "is_spanning_tree", "graphs.validate"),
    ("finders", "is_hamiltonian_path", "graphs.validate"),
    ("finders", "tree_diameter", "graphs.validate"),
    ("families", "is_spanning_tree", "graphs.validate"),
    ("families", "is_hamiltonian_path", "graphs.validate"),
    ("families", "tree_diameter", "graphs.validate"),
    ("finders", "host_class_check", "graphs.host_class_check"),
    ("graphs", "read_edge_list", "graphs.read_edge_list"),
    ("finders", "interpolate_traced", "families.interpolate"),
    ("finders", "hamilton_path_decomposition", "decompositions"),
    ("finders", "hamilton_cycle_decomposition", "decompositions"),
]

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    [
        ("oracle.self_s", "s", "lower"),
        ("oracle.colourings", "count", "lower"),
        ("oracle.hypothesis_met", "count", "lower"),
    ]
    + [
        metric
        for k in FINDER_KINDS
        for metric in (
            (f"finders.{k}.calls", "count", "lower"),
            (f"finders.{k}.found", "count", "higher"),
            (f"finders.{k}.interpolated", "count", "lower"),
            (f"finders.{k}.self_s", "s", "lower"),
        )
    ]
    + [
        ("finders.extract_forest_s", "s", "lower"),
        ("graphs.census.calls", "count", "lower"),
        ("graphs.census.s", "s", "lower"),
        ("graphs.weight.calls", "count", "lower"),
        ("graphs.weight.s", "s", "lower"),
        ("graphs.validate_s", "s", "lower"),
        ("graphs.read_edge_list_s", "s", "lower"),
        ("graphs.host_class_check_s", "s", "lower"),
        ("families.interpolate.calls", "count", "lower"),
        ("families.interpolate.self_s", "s", "lower"),
        ("families.replacements", "count", "lower"),
        ("families.replacements_per_s", "1/s", "higher"),
        ("decompositions.calls", "count", "lower"),
        ("decompositions.s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def _observe_oracle(counts, report):
    counts["oracle.colourings"] += report.colourings
    counts["oracle.hypothesis_met"] += report.hypothesis_met


def _observe_finder(kind):
    def observe(counts, report):
        counts[f"finders.{kind}.found"] += report.found
        counts[f"finders.{kind}.interpolated"] += report.chain_replacements > 0

    return observe


def _observe_interpolate(counts, result):
    counts["families.replacements"] += result[1]


OBSERVERS = {
    "oracle": _observe_oracle,
    "families.interpolate": _observe_interpolate,
    **{f"finders.{k}": _observe_finder(k) for k in FINDER_KINDS},
}


class Tracer:
    """Records spans while installed; install() and uninstall() bracket a
    traced round."""

    def __init__(self, zerosum):
        self.zerosum = zerosum
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self._saved: list = []
        self.clear()

    def clear(self):
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts.clear()
        self._stack = [-1]

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.name_ids.append(nid)
            tracer.parents.append(stack[-1])
            tracer.ends.append(0)
            stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counts, result)
            return result

        return traced

    def install(self):
        self.clear()
        for module_name, attr, name in PATCHES:
            module = getattr(self.zerosum, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, total seconds and self seconds."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls, total, self_time = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.name_ids[i]]
            calls[name] += 1
            total[name] += dur[i] / 1e9
            self_time[name] += (dur[i] - child[i]) / 1e9
        return calls, total, self_time

    def layer_metrics(self, overhead: float) -> dict[str, float]:
        calls, total, self_time = self.totals()
        c = self.counts
        out = {
            "oracle.self_s": self_time["oracle"],
            "oracle.colourings": c["oracle.colourings"],
            "oracle.hypothesis_met": c["oracle.hypothesis_met"],
        }
        for k in FINDER_KINDS:
            out[f"finders.{k}.calls"] = calls[f"finders.{k}"]
            out[f"finders.{k}.found"] = c[f"finders.{k}.found"]
            out[f"finders.{k}.interpolated"] = c[f"finders.{k}.interpolated"]
            out[f"finders.{k}.self_s"] = self_time[f"finders.{k}"]
        interp_s = total["families.interpolate"]
        out.update(
            {
                "finders.extract_forest_s": total["finders.extract_forest"],
                "graphs.census.calls": calls["graphs.census"],
                "graphs.census.s": total["graphs.census"],
                "graphs.weight.calls": calls["graphs.weight"],
                "graphs.weight.s": total["graphs.weight"],
                "graphs.validate_s": total["graphs.validate"],
                "graphs.read_edge_list_s": total["graphs.read_edge_list"],
                "graphs.host_class_check_s": total["graphs.host_class_check"],
                "families.interpolate.calls": calls["families.interpolate"],
                "families.interpolate.self_s": self_time["families.interpolate"],
                "families.replacements": c["families.replacements"],
                "families.replacements_per_s": (
                    c["families.replacements"] / interp_s if interp_s else 0.0
                ),
                "decompositions.calls": calls["decompositions"],
                "decompositions.s": total["decompositions"],
                "trace.overhead": overhead,
            }
        )
        return out

    def write(self, path):
        """Write the recorded spans as tab-separated lines, one per span in
        the order they started: parent line (-1 for none, 0 for the first
        span), name, start and end in ns since the first span started."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("parent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{self.parents[i]}\t{self.names[self.name_ids[i]]}\t"
                    f"{self.starts[i] - t0}\t{self.ends[i] - t0}\n"
                )
