#!/usr/bin/env python3
"""Run the comparison protocol on eil51 plus a spread of generated instances.

Each ant colony cell is the best and mean of five seeded runs. By default the
runs are capped by iterations so the script finishes in a few minutes; pass
--time-max 600 to reproduce the ten-minute wall-clock budget instead (slow!).
"""

import argparse
from pathlib import Path

from gtsp.bench import ExperimentConfig, emit_table, run_experiment

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--max-iters", type=int, default=500)
    parser.add_argument("--time-max", type=float, default=None,
                        help="wall-clock budget per run in seconds; replaces --max-iters")
    parser.add_argument("--seed", type=int, default=0, help="base seed for the repetitions")
    parser.add_argument("--out", default=str(ROOT / "results" / "benchmark"),
                        help="basename for the .csv/.json result files")
    args = parser.parse_args()

    config = ExperimentConfig(
        instances=[
            str(ROOT / "data" / "eil51.tsp"),
            {"nodes": 30, "clusters": 6, "seed": 11},
            {"nodes": 40, "clusters": 8, "seed": 12},
            {"nodes": 50, "clusters": 10, "seed": 13},
        ],
        repetitions=args.repetitions,
        time_max=args.time_max,
        max_iterations=None if args.time_max is not None else args.max_iters,
        base_seed=args.seed,
        output=args.out,
    )
    reports = run_experiment(config)
    print(emit_table(reports, out_base=config.output))
    print(f"tables written to {config.output}.csv / .json")


if __name__ == "__main__":
    main()
