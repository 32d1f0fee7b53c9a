"""Write the pinned seeded outputs, `tests/data/pinned_outputs.json`.

    PYTHONPATH=src python3 scripts/pin_outputs.py [--out FILE]

The record holds what a fixed seed and iteration budget must reproduce byte
for byte (the determinism contract), computed by the `gtsp` package that
`import gtsp` finds:
- per input of `INPUTS`, the `gtsp.bench.solve` record without elapsed time
  (`to_dict(include_elapsed=False)`) of exact and NN, and of ACS and RACS at
  20 iterations x 10 ants for seeds 0-2; an exact refusal is kept as its
  message;
- ACS and RACS at 8 x 10 and q0=0.5, seeds 0-1, on generated n=1100/p=220,
  whose rows are wide enough for the colony's filtered roulette
  (`gtsp.aco._FILTER_NODES`), with about half the picks roulette picks:
  the solve record, every ant's tour cost per iteration and the sha256 of
  the final trails' bytes (`tau` of the last `gtsp.aco.Iteration`, an
  (n, n) float64 matrix), since the record alone would not see the ants'
  picks or their trail writes. An ant beats the NN incumbent in iteration 5
  or 6, and the two variants' runs part only after that, so with 8
  iterations each seed's ACS and RACS entries differ;
- the text table, CSV and JSON of one `gtsp bench` run (`emit_table` with
  `include_elapsed=False`) of `BENCH_CONFIG`;
- the Python and numpy versions that wrote it.

`tests/test_pinned_outputs.py` recomputes every entry with the package under
test and compares the bytes. A change that moves any of them regenerates the
record in the same commit and says so; to pin a change against its parent,
run this script with `PYTHONPATH` set to the parent's `src`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

import gtsp  # noqa: E402
from gtsp import AcoParams, CellCapExceeded, ExperimentConfig  # noqa: E402
from gtsp.aco import iterate  # noqa: E402
from oracles import random_cost_instance, random_matrix_instance, trap_instance  # noqa: E402

OUT = ROOT / "tests" / "data" / "pinned_outputs.json"
EIL51 = ROOT / "data" / "eil51.tsp"

# name -> a call that builds the input
INPUTS = {
    "11EIL51": lambda: gtsp.load_instance_file(EIL51),
    "generated n=300/p=60 seed 1": lambda: gtsp.generate_instance(300, 60, seed=1)[1],
    "asymmetric random matrix n=30/p=6": lambda: random_matrix_instance(
        30, 6, np.random.default_rng(34), symmetric=False),
    "trap": lambda: trap_instance(True),
    "costs up to 2^41 n=12/p=4": lambda: random_cost_instance(12, 4, 2**41, seed=6),
}
WIDE = ("generated n=1100/p=220 seed 1", lambda: gtsp.generate_instance(1100, 220, seed=1)[1])
BENCH_CONFIG = {"instances": [str(EIL51), {"nodes": 40, "clusters": 8, "seed": 3}],
                "max_iterations": 20, "repetitions": 2}


def solve_record(instance, algo: str, params: AcoParams) -> dict:
    """`gtsp.bench.solve`'s record without elapsed time, or the refusal."""
    try:
        return gtsp.solve(instance, algo, params).to_dict(include_elapsed=False)
    except CellCapExceeded as exc:
        return {"error": str(exc)}


def solve_records() -> dict[str, dict]:
    """Every solve record, keyed "input algorithm" or "input algorithm seed S"."""
    out = {}
    for name, build in INPUTS.items():
        instance = build()
        for algo in ("exact", "nn"):
            out[f"{name} {algo}"] = solve_record(instance, algo, AcoParams(max_iterations=20))
        for algo in ("acs", "racs"):
            for seed in range(3):
                params = AcoParams(num_ants=10, max_iterations=20, seed=seed)
                out[f"{name} {algo} seed {seed}"] = solve_record(instance, algo, params)
    name, build = WIDE
    instance = build()
    for algo in ("acs", "racs"):
        for seed in range(2):
            params = AcoParams(num_ants=10, max_iterations=8, seed=seed, variant=algo)
            colony = list(itertools.islice(iterate(instance, params), params.max_iterations))
            out[f"{name} {algo} seed {seed}"] = {
                **solve_record(instance, algo, params),
                "ant_costs": [it.lengths.tolist() for it in colony],
                "tau_sha256": hashlib.sha256(colony[-1].tau.tobytes()).hexdigest(),
            }
    return out


def bench_record() -> dict[str, str]:
    """The text table, CSV and JSON of one `gtsp bench` run of BENCH_CONFIG."""
    reports = gtsp.run_experiment(ExperimentConfig.from_dict(BENCH_CONFIG))
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "bench"
        table = gtsp.emit_table(reports, base, include_elapsed=False)
        csv_path, json_path = gtsp.bench.output_paths(base)
        return {"table": table, "csv": csv_path.read_text(), "json": json_path.read_text()}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def record() -> dict:
    """The whole record, versions included."""
    return {"versions": versions(), "solve": solve_records(), "bench": bench_record()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=OUT, metavar="FILE")
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out} with gtsp from {Path(gtsp.__file__).parent}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
