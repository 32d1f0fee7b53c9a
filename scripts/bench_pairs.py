"""Paired perfbench runs of two trees of this repository, summarised as a
`BENCH_*.json` record.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \\
        --seeds A-B --out FILE

For each seed N from A to B, it runs

    python3 perfbench/run.py --workload W --seed N --seconds 30 --trace 0

once from each tree (each tree's own perfbench and package), one process at a
time; the side that goes first alternates, the parent first on the first seed.
The record in FILE keeps, per workload, the seeds, the order, every run's
last-line result with the report's call count, and a summary: per end-to-end
metric (its direction read from BENCHMARK.json) the parent's and the change's
quartiles (linear-interpolated percentiles), the change's median over the
parent's, and the pairs the change won (strictly better); then the median
call counts and the failed calls. If FILE exists, the workload is added to
it, or replaced, and every other key is kept, so one record can gather
several workloads and hand-written notes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds 30 --trace 0"


def metric_directions() -> dict[str, str]:
    """Each end-to-end metric of BENCHMARK.json with its "lower" or "higher"."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in declared["end_to_end"]}


def perfbench(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One perfbench run from `tree`: its last-line result and its report."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "30", "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout.rstrip("\n")
    report, _, last = out.rpartition("\n")
    return json.loads(last), json.loads(report)


def quartiles(values: list[float]) -> list[float]:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """The summary of paired runs: `parent[k]` and `change[k]` are the results
    of pair k, each a last-line result with its `calls`."""
    out = {}
    for name, direction in better.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum(b < a if direction == "lower" else b > a for a, b in zip(p, c))
        out[name] = {
            "parent_q1_median_q3": quartiles(p),
            "change_q1_median_q3": quartiles(c),
            "change_over_parent_median": statistics.median(c) / statistics.median(p),
            "change_wins": f"{wins}/{len(p)}",
        }
    out["calls_median"] = {side: statistics.median(r["calls"] for r in runs)
                           for side, runs in (("parent", parent), ("change", change))}
    out["failed"] = {side: sum(r["failed"] for r in runs)
                     for side, runs in (("parent", parent), ("change", change))}
    return out


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    order, machine = [], None
    for k, seed in enumerate(args.seeds):
        sides = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        order.append(f"{sides[0]} first")
        for side in sides:
            result, report = perfbench(trees[side], args.workload, seed)
            runs[side].append({**result, "calls": report["calls"], "seed": seed})
            machine = report["machine"]
            print(f"{args.workload} seed {seed} {side}: solve_s "
                  f"{result['metrics']['solve_s']['value']:.6g}", file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["command"] = COMMAND
    record["machine"] = machine
    record.setdefault("workloads", {})[args.workload] = {
        "seeds": args.seeds, "order": order, **runs,
    }
    record.setdefault("summary", {})[args.workload] = summarize(
        runs["parent"], runs["change"], metric_directions()
    )
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
