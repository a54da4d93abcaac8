"""Spans and call counts around the program's public functions.

``Tracer.install`` replaces each traced function with a wrapper everywhere a
module of the package holds it, because ``online`` and ``bench`` import their
helpers by name; methods are replaced on their class. ``uninstall`` puts the
originals back. Spans (name, start, end, parent) stay in memory until
``write`` saves them; per-name totals, self time and call counts are kept as
the spans close. Self time is a span's duration minus the time its child
spans cover; spans nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("onmapf", "onmapf.world", "onmapf.core", "onmapf.search",
           "onmapf.online", "onmapf.adversary", "onmapf.bench")

# (span name, module, class or None, attribute)
TARGETS = (
    ("world.dist_from", "onmapf.world", "Graph", "dist_from"),
    ("core.detect_conflicts", "onmapf.core", None, "detect_conflicts"),
    ("core.evaluate", "onmapf.core", None, "evaluate"),
    ("core.rationality_bounds", "onmapf.core", None, "rationality_bounds"),
    ("core.is_rational_at", "onmapf.core", None, "is_rational_at"),
    ("search.plan_min_arrival", "onmapf.search", None, "plan_min_arrival"),
    ("search.build_obstacles", "onmapf.search", None, "build_obstacles"),
    ("search.add_path", "onmapf.search", "DynamicObstacleSet", "add_path"),
    ("search.joint_plan", "onmapf.search", None, "joint_plan"),
    ("search.offline_optimal", "onmapf.search", None, "offline_optimal"),
    ("online.run", "onmapf.online", None, "run"),
    ("adversary.gen", "onmapf.adversary", None, "gen_line"),
    ("adversary.gen", "onmapf.adversary", None, "gen_2x2_adversary"),
    ("adversary.gen", "onmapf.adversary", None, "gen_random"),
    ("adversary.reduce_sat", "onmapf.adversary", None, "reduce_sat"),
    ("bench.main", "onmapf.bench", None, "main"),
)


class Tracer:
    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child_time: list[float] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._graphs = {}  # id -> graph, kept alive so ids stay unique
        self._seen_sources = set()
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _span(self, name, fn, after=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span_id = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self._open.append(span_id)
            self._child_time.append(0.0)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.span_end[span_id] = end
                self._open.pop()
                duration = end - start
                self.total[name] += duration
                self.self_time[name] += duration - self._child_time.pop()
                self.calls[name] += 1
                if self._child_time:
                    self._child_time[-1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def _dist_from_called(self, args, _result):
        graph, source = args
        self._graphs[id(graph)] = graph
        key = (id(graph), source)
        if key not in self._seen_sources:
            self._seen_sources.add(key)
            self.counts["world.dist_from.misses"] += 1

    def _run_returned(self, _args, trace):
        self.counts["online.events"] += len(trace.snapshots)
        self.counts["online.fallbacks"] += sum(snap.fallback for snap in trace.snapshots)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [sys.modules[name] for name in MODULES]
        after = {"world.dist_from": self._dist_from_called, "online.run": self._run_returned}
        for name, module_name, class_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if class_name is not None:
                cls = getattr(owner, class_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._span(name, original, after.get(name)))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._span(name, original, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._graphs.clear()
        self._seen_sources.clear()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Save every span as ``id parent name start_ns end_ns`` lines."""
        names = list(self._name_ids)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            origin = self.span_start[0] if self.span_start else 0.0
            for i, (name_id, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                out.write(
                    f"{i}\t{parent}\t{names[name_id]}\t"
                    f"{round((start - origin) * 1e9)}\t{round((end - origin) * 1e9)}\n"
                )
