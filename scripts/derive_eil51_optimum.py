#!/usr/bin/env python3
"""Derive the exact optimum of the 11-cluster eil51 instance and persist it.

Clusters data/eil51.tsp with the default center-based procedure (11 sets),
runs the exact solver (the subset DP over clusters, whose tie rule fixes
which optimal tour is written), and writes the certified optimum to
data/derived/11eil51_optimum.json. The acceptance suite checks the
heuristics against this fixture.
"""

import json
import time
from pathlib import Path

from gtsp import cluster_instance, euc2d_costs, exact_solve, parse_tsplib

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    text = (ROOT / "data" / "eil51.tsp").read_text()
    coords = parse_tsplib(text)
    instance = cluster_instance(euc2d_costs(coords), name="eil51")
    print(f"instance {instance.name}: {instance.n} nodes, {instance.p} clusters")
    print("cluster sizes:", [len(c) for c in instance.clusters])

    started = time.perf_counter()
    tour = exact_solve(instance)
    elapsed = time.perf_counter() - started
    print(f"optimum {tour.cost} in {elapsed:.1f}s, tour {tour.nodes}")

    out = ROOT / "data" / "derived" / "11eil51_optimum.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "problem": instance.name,
        "cost": tour.cost,
        "nodes": list(tour.nodes),
        "clusters": [list(c) for c in instance.clusters],
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
