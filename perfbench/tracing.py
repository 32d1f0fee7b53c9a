"""Spans around gtsp's layer functions, recorded from outside the program.

`Tracer.installed()` replaces each traced function with a wrapper in every
`gtsp` module that binds it under its name, which is where the program's own
callers look it up (`gtsp.aco.choose_next`, `gtsp.bench.parse_tsplib`, ...).
A span is (name, start, end, parent span index, run id), kept in memory and
written out once at the end. A function the program no longer has, or no
longer calls, simply records no spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (span name, home module, attribute) for every layer function that is traced.
TRACED = (
    ("bench.load_instance_file", "gtsp.bench", "load_instance_file"),
    ("instance.parse_tsplib", "gtsp.instance", "parse_tsplib"),
    ("instance.euc2d_costs", "gtsp.instance", "euc2d_costs"),
    ("instance.cluster_instance", "gtsp.instance", "cluster_instance"),
    ("construct.nn_reference_cost", "gtsp.construct", "nn_reference_cost"),
    ("construct.make_tour", "gtsp.construct", "make_tour"),
    ("aco.run", "gtsp.aco", "run"),
    ("aco.choose_next", "gtsp.aco", "choose_next"),
    ("aco.local_update", "gtsp.aco", "local_update"),
    ("aco.global_update", "gtsp.aco", "global_update"),
    ("aco.evaporation_reinit", "gtsp.aco", "evaporation_reinit"),
    ("exact.exact_solve", "gtsp.exact", "exact_solve"),
    ("exact.best_tour_for_sequence", "gtsp.exact", "best_tour_for_sequence"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        patched: list[tuple[object, str, object]] = []
        try:
            for name, home, attr in TRACED:
                original = getattr(sys.modules.get(home), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "gtsp" and getattr(mod, attr, None) is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def summary(self) -> dict[str, dict[str, list]]:
        """Per span name: durations, self times and run ids, in call order.

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent on one thread, so this is
        the part of the interval no child covers.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, list]] = {}
        for (name, start, end, _, run), covered in zip(self.spans, child_time):
            rec = out.setdefault(name, {"dur": [], "self": [], "run": []})
            rec["dur"].append(end - start)
            rec["self"].append(end - start - covered)
            rec["run"].append(run)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
