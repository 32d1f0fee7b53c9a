"""In-process timings of `exact_solve` and of every blocked loop, in two trees
of this repository, summarised as a `BENCH_*.json` record.

    python3 scripts/exact_shapes.py --parent DIR --change DIR --out FILE \\
        [--budgets 17,18,19,20] [--seconds S]

Both trees' `gtsp` packages are loaded side by side into this one process.
The change's one block budget, `gtsp.instance.BLOCK_BYTES`, is set to each
candidate 2^k of `--budgets` before each of its calls; the parent runs as it
is. Each loop (`exact_solve` on every shape in SHAPES, `euc2d_costs`,
`_is_symmetric` and the seeding of the colony's weights) is called once per
side per round, the side that goes first rotating from round to round,
after one warm-up call per side; the round count is chosen from the warm-up
so that each side takes about S seconds (at least 5 rounds, at most 201). Both sides read the same inputs, built once by the change's package.
Every call's output must equal the parent's: the exact tours compared as
JSON, the arrays element by element; the script exits 1 if one differs.

The record in FILE keeps, per loop, each side's quartiles in milliseconds
(linear-interpolated percentiles) and its median over the parent's, the
change's committed budget, and the exact shapes at that budget. If FILE
exists, these keys are replaced and every other key is kept.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Name -> (nodes, clusters, seed) of a generated instance, or None for
# data/eil51.tsp in its default 11 clusters.
SHAPES = {
    "11EIL51": None,
    "p=10 (n=50)": (50, 10, 1),
    "p=11 (n=55)": (55, 11, 1),
    "p=12 (n=60)": (60, 12, 1),
    "n=80/p=16": (80, 16, 0),
    "n=200/p=8": (200, 8, 1),
    "n=300/p=3": (300, 3, 1),
    "n=450/p=3": (450, 3, 1),
}
LOOP_NODES = 2000  # n of the euc2d_costs, symmetry and seeding inputs


def load_package(root: Path, name: str):
    """The `gtsp` package of the tree at `root`, imported as `name`."""
    init = root / "src" / "gtsp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)  # binds its submodules aco, exact and instance
    return module


def inputs(g, eil51_text: str) -> tuple[dict, object, object]:
    """The loops' inputs, built with package `g`: each shape's instance, and
    the coordinates and instance of the n = LOOP_NODES input."""
    shapes = {}
    for name, shape in SHAPES.items():
        if shape is None:
            costs = g.euc2d_costs(g.parse_tsplib(eil51_text))
            shapes[name] = g.cluster_instance(costs, name="eil51")
        else:
            shapes[name] = g.generate_instance(*shape[:2], seed=shape[2])[1]
    return shapes, *g.generate_instance(LOOP_NODES, LOOP_NODES // 5, seed=1)


def loops(g, shapes: dict, coords, big) -> dict:
    """Each timed loop of package `g` on the given inputs, as a call without
    arguments that returns something comparable across trees."""
    out = {f"exact_solve {name}": lambda inst=inst: g.exact_solve(inst).to_json()
           for name, inst in shapes.items()}
    cost = big.costs.cost
    out[f"euc2d_costs n={LOOP_NODES}"] = lambda: g.euc2d_costs(coords).cost
    out[f"_is_symmetric n={LOOP_NODES}"] = lambda: g.instance._is_symmetric(cost)
    seeded = g.aco._visibility_lookup(cost, 5.0, big.max_cost, 1e-6)[1]
    out[f"weight seeding n={LOOP_NODES}"] = lambda: seeded(...)
    return out


def with_budget(instance_module, budget: int, call):
    """`call` run with `instance_module.BLOCK_BYTES` set to `budget`."""
    def timed():
        instance_module.BLOCK_BYTES = budget
        return call()
    return timed


def alternate(calls: dict, seconds: float) -> tuple[dict, bool]:
    """Per side of `calls`, its call times in seconds over the rounds, and
    whether every output equalled the first side's."""
    sides = list(calls)
    first = {side: calls[side]() for side in sides}  # warm-up, and the outputs
    same = all(np.array_equal(first[side], first[sides[0]]) for side in sides)
    started = time.perf_counter()
    calls[sides[0]]()
    rounds = max(5, min(201, int(seconds / max(time.perf_counter() - started, 1e-9))))
    times = {side: [] for side in sides}
    for r in range(rounds):
        for side in sides[r % len(sides):] + sides[:r % len(sides)]:
            started = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - started)
    return times, same


def summarize(times: dict[str, list[float]]) -> dict:
    """Per side, the quartiles of its times in ms and its median over the
    parent's median."""
    base = statistics.median(times["parent"])
    return {side: {"q1_median_q3_ms": [round(float(q) * 1e3, 4)
                                       for q in np.percentile(t, [25, 50, 75])],
                   "over_parent": round(statistics.median(t) / base, 4)}
            for side, t in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--budgets", default="17,18,19,20", metavar="K,K,...",
                        help="candidate budgets, as powers of two")
    parser.add_argument("--seconds", type=float, default=1.0, help="time per side and loop")
    args = parser.parse_args(argv)

    parent = load_package(args.parent, "parent_gtsp")
    change = load_package(args.change, "change_gtsp")
    chosen = change.instance.BLOCK_BYTES
    # both sides read the same arrays, so their memory placement is the same
    shared = inputs(change, (ROOT / "data" / "eil51.tsp").read_text())
    parent_loops, change_loops = loops(parent, *shared), loops(change, *shared)
    budgets = [1 << int(k) for k in args.budgets.split(",")]
    record_loops, identical = {}, {}
    for name, call in parent_loops.items():
        calls = {"parent": call}
        for budget in budgets:
            calls[f"2^{budget.bit_length() - 1}"] = with_budget(change.instance, budget,
                                                                change_loops[name])
        times, identical[name] = alternate(calls, args.seconds)
        record_loops[name] = summarize(times)
        print(f"{name}: " + ", ".join(f"{side} {s['q1_median_q3_ms'][1]:.3f} ms"
                                      for side, s in record_loops[name].items()), file=sys.stderr)
    change.instance.BLOCK_BYTES = chosen

    key = f"2^{chosen.bit_length() - 1}"
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["exact_shapes_command"] = ("python3 scripts/exact_shapes.py --parent DIR --change DIR"
                                      f" --out FILE --budgets {args.budgets}"
                                      f" --seconds {args.seconds:g}")
    record["exact_shapes_machine"] = {"python": platform.python_version(),
                                      "numpy": np.__version__, "platform": platform.platform()}
    record["block_bytes"] = chosen
    record["outputs_identical"] = identical
    record["loops"] = record_loops
    record["exact_shapes"] = {
        name: {"parent_ms": s["parent"]["q1_median_q3_ms"], "change_ms": s[key]["q1_median_q3_ms"],
               "change_over_parent": s[key]["over_parent"]}
        for name, s in record_loops.items() if name.startswith("exact_solve") and key in s
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(identical.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
