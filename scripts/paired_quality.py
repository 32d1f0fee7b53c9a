"""Paired colony quality at equal ant-step budgets: this checkout's `run`
against the `run` of another checkout, seed by seed.

    python scripts/paired_quality.py --other PATH [--seeds 20] [--out FILE]

PATH is the root of another checkout of this repository, for example the
parent commit unpacked with `git archive`; its `src/gtsp` is imported as a
second package. Both sides solve the same instances with the same parameters,
iteration budgets and seeds. A run's gap is 100 * (cost - optimum) / optimum
with the optimum from this checkout's `exact_solve`; a seed's gap is the mean
over the instances of its set. Per set the report gives both sides' per-seed
gaps and the mean and standard error of the per-seed change (this checkout
minus the other); the change holds when its mean is at most its standard
error.

Sets: 11EIL51 at 20 iterations x 10 ants, once with ACS and once with RACS;
the 50 instances of acceptance criterion 3 (n = 8..20, p = 3..6) at 500 x 10
with RACS; generated instances with p = 8..16 at 100 x 10 with RACS. Default
colony parameters otherwise. The whole report takes a few minutes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import gtsp  # noqa: E402
from oracles import random_matrix_instance  # noqa: E402


def import_other(root: Path):
    """The `gtsp` package of the checkout at `root`, as module `gtsp_other`."""
    package = root / "src" / "gtsp"
    spec = importlib.util.spec_from_file_location(
        "gtsp_other", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["gtsp_other"] = module
    spec.loader.exec_module(module)
    return module


def sets() -> dict[str, dict]:
    """Each set's instances with their optima, colony variant and budget."""
    eil51 = gtsp.load_instance_file(ROOT / "data" / "eil51.tsp")
    rng = np.random.default_rng(20240603)  # the criterion 3 corpus
    corpus = [random_matrix_instance(int(rng.integers(8, 21)), int(rng.integers(3, 7)), rng)
              for _ in range(50)]
    generated = [gtsp.generate_instance(nodes, clusters, seed=0)[1]
                 for nodes, clusters in ((40, 8), (50, 10), (60, 12), (70, 14), (80, 16))]
    out = {}
    for name, instances, variant, iterations in (
        ("11EIL51 acs 20x10", [eil51], "acs", 20),
        ("11EIL51 racs 20x10", [eil51], "racs", 20),
        ("criterion-3 corpus racs 500x10", corpus, "racs", 500),
        ("generated p<=16 racs 100x10", generated, "racs", 100),
    ):
        out[name] = dict(
            instances=[(inst, gtsp.exact_solve(inst).cost) for inst in instances],
            variant=variant, iterations=iterations,
        )
    return out


def gap(package, instance: gtsp.GtspInstance, optimum: int, variant: str, iterations: int,
        seed: int) -> float:
    copy = package.GtspInstance(name=instance.name, clusters=instance.clusters,
                                costs=package.CostMatrix(instance.costs.cost.copy()))
    params = package.AcoParams(variant=variant, num_ants=10, max_iterations=iterations, seed=seed)
    cost = package.run(copy, params).best.cost
    return 100.0 * (cost - optimum) / optimum


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--other", type=Path, required=True, metavar="PATH")
    parser.add_argument("--seeds", type=int, default=20, metavar="K")
    parser.add_argument("--out", type=Path, default=None, metavar="FILE")
    args = parser.parse_args()
    other = import_other(args.other)
    report = {}
    for name, spec in sets().items():
        per_seed = {"this": [], "other": []}
        for seed in range(args.seeds):
            for side, package in (("this", gtsp), ("other", other)):
                gaps = [gap(package, inst, opt, spec["variant"], spec["iterations"], seed)
                        for inst, opt in spec["instances"]]
                per_seed[side].append(statistics.fmean(gaps))
        change = [a - b for a, b in zip(per_seed["this"], per_seed["other"])]
        mean = statistics.fmean(change)
        se = statistics.stdev(change) / len(change) ** 0.5
        report[name] = dict(
            instances=[f"{inst.name} (optimum {opt})" for inst, opt in spec["instances"]]
            if len(spec["instances"]) <= 5 else f"{len(spec['instances'])} instances",
            budget=f"{spec['iterations']} iterations x 10 ants", seeds=list(range(args.seeds)),
            this_gap_pct=per_seed["this"], other_gap_pct=per_seed["other"],
            this_mean_gap_pct=statistics.fmean(per_seed["this"]),
            other_mean_gap_pct=statistics.fmean(per_seed["other"]),
            mean_change_pct=mean, se_change_pct=se, holds=mean <= se,
        )
        print(f"{name}: gap {report[name]['other_mean_gap_pct']:.3f}% -> "
              f"{report[name]['this_mean_gap_pct']:.3f}%, change {mean:+.3f} "
              f"(se {se:.3f}) {'holds' if mean <= se else 'FAILS'}", file=sys.stderr)
    text = json.dumps(report, indent=1)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
