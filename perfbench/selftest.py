#!/usr/bin/env python3
"""Fast self-test of the benchmark, with tiny budgets.

Checks that every workload prints, in both modes, exactly the metrics that
BENCHMARK.json names, each with its unit, with no failure on the real
program; and that a deliberately corrupted tour, from the colony and from the
exact solver, is counted in `failed` (so in `fail_frac`) instead of passing.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

TINY = {
    "colony-eil51": {"iterations": 2, "min_calls": 4, "traced": [0, 1], "setup_repeats": 2},
    "colony-large": {
        "instances": [120], "iterations": 1, "min_calls": 2, "traced": [0], "setup_repeats": 1,
    },
    "exact-p11": {
        "instances": [20, 24], "ref": "nn", "schedule": [0, 1, 0], "min_calls": 3,
        "traced": [0, 1], "setup_repeats": 1,
    },
}


def measure(g, name: str, trace: bool) -> tuple[dict, dict]:
    """(report, result) of one tiny run of `name`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_workload(g, name, {**run.WORKLOADS[name], **TINY[name]}, 0, 0.01, trace)
    return json.loads(out.getvalue()), result


def check_metrics(name: str, trace: bool, report: dict, result: dict, spec: dict) -> None:
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted, f"{name} trace={trace}: metrics {got} != BENCHMARK.json {wanted}"
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
    assert set(report["metrics"]) == set(wanted), f"{name}: report lacks metrics"
    assert result["correct"] and result["failed"] == 0, f"{name}: {report['failures']}"
    assert report["fail_frac"] == 0.0


@contextlib.contextmanager
def corrupted(g):
    """On every other call, make the colony return a tour that visits one
    cluster twice, and the exact solver report a cost one too low."""
    run_colony, exact_solve = g.aco.run, g.exact.exact_solve
    calls = [0]

    def bad_run(instance, params, *args, **kwargs):
        result = run_colony(instance, params, *args, **kwargs)
        calls[0] += 1
        if calls[0] % 2:
            return result
        nodes = list(result.best.nodes)
        nodes[1] = nodes[0]
        return dataclasses.replace(result, best=dataclasses.replace(result.best, nodes=tuple(nodes)))

    def bad_exact(instance, *args, **kwargs):
        tour = exact_solve(instance, *args, **kwargs)
        calls[0] += 1
        return tour if calls[0] % 2 else dataclasses.replace(tour, cost=tour.cost - 1)

    g.aco.run, g.exact.exact_solve = bad_run, bad_exact
    try:
        yield
    finally:
        g.aco.run, g.exact.exact_solve = run_colony, exact_solve


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    g = run.load_gtsp()
    for name in run.WORKLOADS:
        for trace in (False, True):
            report, result = measure(g, name, trace)
            check_metrics(name, trace, report, result, spec)
        with corrupted(g):
            report, result = measure(g, name, False)
        assert not result["correct"], f"{name}: corrupted tours passed as correct"
        assert result["failed"] > 0 and report["fail_frac"] > 0, f"{name}: no failure counted"
        print(f"ok {name}: metrics and units match; corrupted tours failed {result['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
