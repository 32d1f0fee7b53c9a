"""Parent-versus-change records of two trees of this repository, merged into a
`BENCH_*.json`.

    python3 scripts/two_trees.py perfbench --parent DIR --change DIR --workload W \\
        --seeds A-B --out FILE
    python3 scripts/two_trees.py loops --parent DIR --change DIR --out FILE [--seconds S]
    python3 scripts/two_trees.py quality --other DIR --seeds A-B --out FILE

`perfbench` runs `python3 perfbench/run.py --workload W --seed N --seconds 30
--trace 0` once from each tree (its own perfbench and package) for each seed N
from A to B, one process at a time. It keeps every run's last-line result with
the report's call count, and per end-to-end metric of BENCHMARK.json a summary,
then the median call counts and the failed calls. A run that exits non-zero is
printed with its stderr, and the script exits 1.

`loops` loads both trees' packages into this one process and times
`exact_solve` on each shape of SHAPES, `euc2d_costs`, `_is_symmetric`,
`cluster_instance` (the n=2000 input's costs into n / 5 clusters, given as
JSON), the seeding of the colony's weights, the uncached nearest-neighbor
reference (`gtsp.construct._nn_reference`) and `make_tour` (one node per
cluster, the lowest, built once) on the n=2000 instance, each giving its
tour's JSON, two small-p colony loops: 11EIL51
with ACS and with RACS at 20 iterations x 10 ants, and the first 10 instances
of the criterion 3 corpus with RACS at 100 x 10, and two large-n colony loops,
RACS at 3 x 10 on generated n=1000/p=200 and n=2000/p=400, one on each side of
the colony's roulette width rule (`gtsp.aco._FILTER_NODES`); each run gives its
`run` JSON without elapsed time. Four load loops time `load_instance_file` on
data/eil51.tsp and on the n=2000/p=400 instance written to a temporary
directory three ways: a raw TSPLIB file, a clustered file (`format_clustered`)
and the raw file with the clustered one as its `cluster_file`; each gives a
JSON string of the instance's name, clusters and SHA-256 of its cost bytes.
Each loop is called once per side per round after one warm-up call per side,
with as many rounds (5 to 201) as make each side take about S seconds (default
3). The change's output must equal the parent's: the exact tours, colony runs
and loads compared as JSON, the arrays element by element; the script exits 1
if one differs. To time another block budget, pass as
--change a copy of the tree with `gtsp.instance.BLOCK_BYTES` edited.

`quality` runs this tree's colony (the change) and that of the tree at `--other`
(the parent, say the parent commit unpacked with `git archive`) on the same
instances, seeds and ant-step budgets. A run's gap is 100 * (cost - optimum) /
optimum, with the optimum from this tree's `exact_solve`; a seed's gap is the
mean over the instances of its set. Per set the record keeps both sides'
per-seed gaps and the mean and standard error of the per-seed change (this tree
minus the other); the change holds when its mean is at most its standard error,
so at least 2 seeds are needed. Sets: 11EIL51 at 20 iterations x 10 ants, with
ACS and with RACS; the 50 instances of acceptance criterion 3 (n = 8..20, p =
3..6) at 500 x 10 with RACS; generated instances with p = 8..16 at 100 x 10 with
RACS. Default colony parameters otherwise; 20 seeds take a few minutes. Seeds
are required, so that each record names a range no earlier record spent.

What the three share:
- A tree's package is loaded from its `src/gtsp` under its own module name,
  `parent_gtsp` or `change_gtsp`, never as `gtsp` (`load`).
- Two sides, the parent and the change, and the side that goes first
  alternates: the parent goes first in pair or round 0 (`in_turn`).
- A metric is summarised as the change against the parent (`summarize`):
  each side's quartiles (linear-interpolated percentiles), the change's median
  over the parent's, and the pairs or rounds the change won, strictly better
  in the direction BENCHMARK.json gives (loop times: lower).
- FILE gets one key per subcommand, holding its command, `machine` block,
  `method` ("processes", or "in-process, shared inputs" when both sides read
  the same arrays in this process) and results; `perfbench` results are keyed
  by workload, so one record can gather several. If FILE exists, every other
  key is kept (`write_record`).

The criterion 3 corpus comes from tests/oracles.py, which imports `gtsp`: run
the script with this tree's package installed (`pip install -e .`) or on
`PYTHONPATH=src`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PROCESSES, IN_PROCESS = "processes", "in-process, shared inputs"
USAGE = {
    "perfbench": "--parent DIR --change DIR --workload W --seeds A-B --out FILE",
    "loops": "--parent DIR --change DIR --out FILE [--seconds S]",
    "quality": "--other DIR --seeds A-B --out FILE",
}

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
# n of the euc2d_costs, symmetry, clustering, seeding, NN and make_tour inputs,
# and of a colony loop
LOOP_NODES = 2000
WIDE_LOOP_NODES = (1000, LOOP_NODES)  # n of the large-n colony loops, p = n / 5
CRITERION_3_LOOP = 10  # instances of the criterion 3 corpus in its colony loop


def load(path: Path, name: str):
    """The module at `path`, a `.py` file or a package directory, imported as `name`."""
    package = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None,
    )
    module = importlib.util.module_from_spec(spec)
    for stale in [key for key in sys.modules if key.startswith(f"{name}.")]:
        del sys.modules[stale]  # else a second load under `name` reuses them
    sys.modules[name] = module
    spec.loader.exec_module(module)  # a package binds its submodules as name.aco, ...
    return module


oracles = load(ROOT / "tests" / "oracles.py", "two_trees_oracles")


def packages(parent: Path, change: Path) -> tuple:
    """The `gtsp` packages of the trees at `parent` and `change`, side by side."""
    return (load(parent / "src" / "gtsp", "parent_gtsp"),
            load(change / "src" / "gtsp", "change_gtsp"))


def rebuild(package, instance):
    """`instance` as an instance of `package`, on the same arrays."""
    return package.GtspInstance(name=instance.name, clusters=instance.clusters,
                                costs=package.CostMatrix(instance.costs.cost))


def criterion_3_corpus(package) -> list:
    """The 50 instances of acceptance criterion 3 (`oracles.criterion_3_corpus`),
    as instances of `package`."""
    return [rebuild(package, inst) for inst in oracles.criterion_3_corpus()]


def seed_range(text: str, least: int = 1) -> list[int]:
    """The seeds A to B of "A-B", or the one seed of "A"; a range that is
    empty, reversed or shorter than `least` is a usage error."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} is not a seed range A-B with A <= B")
    if len(seeds) < least:
        raise argparse.ArgumentTypeError(f"{text!r} gives {len(seeds)} seed; at least "
                                         f"{least} are needed")
    return seeds


def in_turn(sides: list, k: int) -> list:
    """`sides` in the order of pair or round k: side k mod len(sides) first."""
    k %= len(sides)
    return sides[k:] + sides[:k]


def summarize(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """Paired values of one metric, `parent[k]` against `change[k]`."""
    wins = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    return {
        "parent_q1_median_q3": [float(q) for q in np.percentile(parent, [25, 50, 75])],
        "change_q1_median_q3": [float(q) for q in np.percentile(change, [25, 50, 75])],
        "change_over_parent_median": statistics.median(change) / statistics.median(parent),
        "change_wins": f"{wins}/{len(parent)}",
    }


def machine() -> dict:
    """The machine block of an in-process record."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def write_record(path: Path, name: str, entries: dict, method: str, block: dict) -> None:
    """Merge `entries` into key `name` of the record at `path`, with the
    command, machine block and method; every other key is kept."""
    record = json.loads(path.read_text()) if path.exists() else {}
    record.setdefault(name, {}).update(
        command=f"python3 scripts/two_trees.py {name} {USAGE[name]}",
        machine=block, method=method, **entries,
    )
    path.write_text(json.dumps(record, indent=1) + "\n")


# perfbench

def metric_directions() -> dict[str, str]:
    """Each end-to-end metric of BENCHMARK.json with its "lower" or "higher"."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in declared["end_to_end"]}


def perfbench(tree: Path, workload: str, seed: int, side: str) -> tuple[dict, dict]:
    """One perfbench run from `tree`: its last-line result and its report. A
    failed run is printed with its stderr and ends the script with exit 1."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "30", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        print(f"{workload} seed {seed} {side}: perfbench exited {done.returncode}\n"
              f"{done.stderr}", file=sys.stderr)
        raise SystemExit(1)
    report, _, last = done.stdout.rstrip("\n").rpartition("\n")
    return json.loads(last), json.loads(report)


def summarize_runs(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """The summary of paired perfbench runs: `parent[k]` and `change[k]` are the
    results of pair k, each a last-line result with its `calls`."""
    out = {name: summarize([r["metrics"][name]["value"] for r in parent],
                           [r["metrics"][name]["value"] for r in change], direction)
           for name, direction in better.items()}
    runs = {"parent": parent, "change": change}
    out["calls_median"] = {side: statistics.median(r["calls"] for r in rs)
                           for side, rs in runs.items()}
    out["failed"] = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    return out


def run_perfbench(args) -> int:
    trees = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    order, block = [], None
    for k, seed in enumerate(args.seeds):
        sides = in_turn(list(trees), k)
        order.append(f"{sides[0]} first")
        for side in sides:
            result, report = perfbench(trees[side], args.workload, seed, side)
            runs[side].append({**result, "calls": report["calls"], "seed": seed})
            block = report["machine"]
            print(f"{args.workload} seed {seed} {side}: solve_s "
                  f"{result['metrics']['solve_s']['value']:.6g}", file=sys.stderr)
    summary = summarize_runs(runs["parent"], runs["change"], metric_directions())
    write_record(args.out, "perfbench", {args.workload: {
        "seeds": args.seeds, "order": order, **runs, "summary": summary,
    }}, PROCESSES, block)
    return 0


# loops

def inputs(g, directory: Path) -> tuple[dict, object, object, object, list, list, dict]:
    """The loops' inputs, built with package `g`: each shape's instance, the
    coordinates and instance of the n = LOOP_NODES input with a node
    sequence of that instance (its clusters' lowest nodes), the first
    CRITERION_3_LOOP instances of the criterion 3 corpus, the generated
    instances of WIDE_LOOP_NODES (the n = LOOP_NODES one is that input's),
    and the `load_instance_file` arguments of each load loop, whose n =
    LOOP_NODES files are written to `directory`."""
    shapes = {}
    for name, shape in SHAPES.items():
        if shape is None:
            costs = g.euc2d_costs(g.parse_tsplib((ROOT / "data" / "eil51.tsp").read_text()))
            shapes[name] = g.cluster_instance(costs, name="eil51")
        else:
            shapes[name] = g.generate_instance(*shape[:2], seed=shape[2])[1]
    coords, big = g.generate_instance(LOOP_NODES, LOOP_NODES // 5, seed=1)
    wide = [big if n == LOOP_NODES else g.generate_instance(n, n // 5, seed=1)[1]
            for n in WIDE_LOOP_NODES]
    raw, clustered = directory / "loop.tsp", directory / "loop.gtsp"
    raw.write_text("\n".join([  # generated points lie on the integer grid
        f"NAME : {big.name}", "TYPE : TSP", f"DIMENSION : {LOOP_NODES}",
        "EDGE_WEIGHT_TYPE : EUC_2D", "NODE_COORD_SECTION",
        *(f"{i} {x:.0f} {y:.0f}" for i, (x, y) in enumerate(coords.points, start=1)),
        "EOF\n"]))
    clustered.write_text(g.format_clustered(big.name, coords, big.clusters))
    loads = {"eil51": (ROOT / "data" / "eil51.tsp",), f"raw n={LOOP_NODES}": (raw,),
             f"clustered n={LOOP_NODES}": (clustered,),
             f"raw n={LOOP_NODES} + cluster_file": (raw, None, clustered)}
    sequence = np.array([members[0] for members in big.clusters])
    return shapes, coords, big, sequence, criterion_3_corpus(g)[:CRITERION_3_LOOP], wide, loads


def colony_runs(g, instances: list, variants: tuple, iterations: int):
    """A call that runs package `g`'s colony with each variant on each
    instance at `iterations` x 10 ants, seed 0, and returns the run JSONs
    without elapsed time."""
    def runs():
        return [g.run(inst, g.AcoParams(variant=variant, num_ants=10, max_iterations=iterations,
                                        seed=0)).to_json(include_elapsed=False)
                for inst in instances for variant in variants]
    return runs


def loaded(g, *args):
    """A call that loads `load_instance_file(*args)` with package `g` and
    returns the instance's name, clusters and cost hash as a JSON string."""
    def load():
        inst = g.load_instance_file(*args)
        return json.dumps({"name": inst.name, "clusters": inst.clusters,
                           "cost_sha256": hashlib.sha256(inst.costs.cost.tobytes()).hexdigest()})
    return load


def loops(g, shapes: dict, coords, big, sequence, corpus: list, wide: list,
          loads: dict) -> dict:
    """Each timed loop of package `g` on the given inputs, as a call without
    arguments that returns something comparable across trees."""
    out = {f"exact_solve {name}": lambda inst=inst: g.exact_solve(inst).to_json()
           for name, inst in shapes.items()}
    cost = big.costs.cost
    out[f"euc2d_costs n={LOOP_NODES}"] = lambda: g.euc2d_costs(coords).cost
    out[f"_is_symmetric n={LOOP_NODES}"] = lambda: g.instance._is_symmetric(cost)
    out[f"cluster_instance n={LOOP_NODES}"] = lambda: json.dumps(
        g.cluster_instance(big.costs).clusters)
    seeded = g.aco._visibility_lookup(cost, 5.0, big.max_cost, 1e-6)[1]
    out[f"weight seeding n={LOOP_NODES}"] = lambda: seeded(...)
    out[f"_nn_reference n={LOOP_NODES}"] = lambda: g.construct._nn_reference(big)[1].to_json()
    out[f"make_tour n={LOOP_NODES}"] = lambda: g.make_tour(big, sequence).to_json()
    out["colony 11EIL51 acs+racs 20x10"] = colony_runs(g, [shapes["11EIL51"]], ("acs", "racs"), 20)
    out[f"colony criterion-3 first {len(corpus)} racs 100x10"] = colony_runs(
        g, corpus, ("racs",), 100)
    for inst in wide:
        out[f"colony n={inst.n}/p={inst.p} racs 3x10"] = colony_runs(g, [inst], ("racs",), 3)
    for name, args in loads.items():
        out[f"load_instance_file {name}"] = loaded(g, *args)
    return out


def side_loops(parent, change, directory: Path) -> tuple[dict, dict]:
    """Both sides' loops on inputs built once by the change's package: both
    read the same arrays and the same files, which are written to
    `directory`, so their memory placement is the same."""
    shared = inputs(change, directory)
    return loops(parent, *shared), loops(change, *shared)


def alternate(parent, change, seconds: float) -> tuple[dict, bool]:
    """The call times in seconds of `parent` and `change` over the rounds,
    and whether their outputs are equal."""
    calls = {"parent": parent, "change": change}
    same = np.array_equal(parent(), change())  # warm-up, and the outputs
    started = time.perf_counter()
    parent()
    rounds = max(5, min(201, int(seconds / max(time.perf_counter() - started, 1e-9))))
    times = {side: [] for side in calls}
    for r in range(rounds):
        for side in in_turn(list(calls), r):
            started = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - started)
    return times, same


def summarize_times(times: dict[str, list[float]]) -> dict:
    """The change's call times summarised against the parent's, in ms."""
    return summarize([t * 1e3 for t in times["parent"]], [t * 1e3 for t in times["change"]])


def run_loops(args) -> int:
    summary, identical = {}, {}
    with tempfile.TemporaryDirectory() as directory:
        parent_loops, change_loops = side_loops(*packages(args.parent, args.change),
                                                Path(directory))
        for name, call in parent_loops.items():
            times, identical[name] = alternate(call, change_loops[name], args.seconds)
            summary[name] = summarize_times(times)
            print(f"{name}: change over parent "
                  f"{summary[name]['change_over_parent_median']:.3f}", file=sys.stderr)
    write_record(args.out, "loops", {
        "seconds": args.seconds, "unit": "ms", "outputs_identical": identical, "summary": summary,
    }, IN_PROCESS, machine())
    return 0 if all(identical.values()) else 1


# quality

def sets(change) -> dict[str, dict]:
    """Each set's instances with their optima, colony variant and budget."""
    eil51 = change.load_instance_file(ROOT / "data" / "eil51.tsp")
    corpus = criterion_3_corpus(change)
    generated = [change.generate_instance(nodes, clusters, seed=0)[1]
                 for nodes, clusters in ((40, 8), (50, 10), (60, 12), (70, 14), (80, 16))]
    return {name: dict(instances=[(inst, change.exact_solve(inst).cost) for inst in instances],
                       variant=variant, iterations=iterations)
            for name, instances, variant, iterations in (
                ("11EIL51 acs 20x10", [eil51], "acs", 20),
                ("11EIL51 racs 20x10", [eil51], "racs", 20),
                ("criterion-3 corpus racs 500x10", corpus, "racs", 500),
                ("generated p<=16 racs 100x10", generated, "racs", 100),
            )}


def gap(package, instance, optimum: int, variant: str, iterations: int, seed: int) -> float:
    params = package.AcoParams(variant=variant, num_ants=10, max_iterations=iterations, seed=seed)
    cost = package.run(rebuild(package, instance), params).best.cost
    return 100.0 * (cost - optimum) / optimum


def paired_change(this: list[float], other: list[float]) -> dict:
    """The mean and standard error of the per-seed change `this - other`, and
    whether the change holds: its mean at most its standard error."""
    change = [a - b for a, b in zip(this, other)]
    mean = statistics.fmean(change)
    se = statistics.stdev(change) / len(change) ** 0.5
    return {"mean_change_pct": mean, "se_change_pct": se, "holds": mean <= se}


def run_quality(args) -> int:
    other, this = packages(args.other, ROOT)
    report = {}
    for name, spec in sets(this).items():
        per_seed = {"other": [], "this": []}
        for k, seed in enumerate(args.seeds):
            for side in in_turn(list(per_seed), k):
                per_seed[side].append(statistics.fmean(
                    gap(this if side == "this" else other, inst, opt, spec["variant"],
                        spec["iterations"], seed) for inst, opt in spec["instances"]))
        instances = spec["instances"]
        report[name] = dict(
            instances=[f"{inst.name} (optimum {opt})" for inst, opt in instances]
            if len(instances) <= 5 else f"{len(instances)} instances",
            budget=f"{spec['iterations']} iterations x 10 ants", seeds=args.seeds,
            this_gap_pct=per_seed["this"], other_gap_pct=per_seed["other"],
            this_mean_gap_pct=statistics.fmean(per_seed["this"]),
            other_mean_gap_pct=statistics.fmean(per_seed["other"]),
            **paired_change(per_seed["this"], per_seed["other"]),
        )
        r = report[name]
        print(f"{name}: gap {r['other_mean_gap_pct']:.3f}% -> {r['this_mean_gap_pct']:.3f}%, "
              f"change {r['mean_change_pct']:+.3f} (se {r['se_change_pct']:.3f}) "
              f"{'holds' if r['holds'] else 'FAILS'}", file=sys.stderr)
    write_record(args.out, "quality", report, IN_PROCESS, machine())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    parsers = {name: commands.add_parser(name, usage=f"%(prog)s {usage}")
               for name, usage in USAGE.items()}
    for name in ("perfbench", "loops"):
        parsers[name].add_argument("--parent", type=Path, required=True,
                                   help="root of the parent tree")
        parsers[name].add_argument("--change", type=Path, required=True,
                                   help="root of the changed tree")
    parsers["perfbench"].add_argument("--workload", required=True)
    parsers["perfbench"].add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    parsers["loops"].add_argument("--seconds", type=float, default=3.0,
                                  help="time per side and loop")
    parsers["quality"].add_argument("--other", type=Path, required=True, metavar="DIR",
                                    help="root of the parent tree")
    parsers["quality"].add_argument("--seeds", type=lambda text: seed_range(text, least=2),
                                    required=True, metavar="A-B")
    for name, run in (("perfbench", run_perfbench), ("loops", run_loops),
                      ("quality", run_quality)):
        parsers[name].add_argument("--out", type=Path, required=True, metavar="FILE")
        parsers[name].set_defaults(run=run)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
