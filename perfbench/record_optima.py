#!/usr/bin/env python3
"""Record the optima of exact-p11's generated instances in data/exact_optima.json.

The optima come from a Held-Karp dynamic program over clusters written here,
independent of gtsp's exact solver, so the benchmark can check that solver
against them. Only the clustering is gtsp's: each instance is loaded with
`gtsp.bench.load_instance_file`, exactly as the benchmark loads it.

    python3 perfbench/record_optima.py --seeds 100
"""

from __future__ import annotations

import argparse
import json

import run


def cluster_dp_optimum(numpy, cost, clusters) -> int:
    """Cheapest cycle through one node per cluster.

    The tour starts in the smallest cluster; dp[mask, v] is the cheapest path
    from the start node through the clusters in `mask`, ending at node v.
    """
    first = min(range(len(clusters)), key=lambda k: len(clusters[k]))
    others = [list(c) for k, c in enumerate(clusters) if k != first]
    m, n = len(others), cost.shape[0]
    best = numpy.inf
    for start in clusters[first]:
        dp = numpy.full((1 << m, n), numpy.inf)
        for j, members in enumerate(others):
            dp[1 << j, members] = cost[start, members]
        for mask in range(1, 1 << m):
            row = dp[mask]
            ends = numpy.flatnonzero(numpy.isfinite(row))
            for j, members in enumerate(others):
                if mask >> j & 1:
                    continue
                step = (row[ends, None] + cost[numpy.ix_(ends, members)]).min(axis=0)
                nxt = dp[mask | 1 << j]
                nxt[members] = numpy.minimum(nxt[members], step)
        best = min(best, float((dp[(1 << m) - 1] + cost[:, start]).min()))
    return int(best)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=100, help="record seeds 0..N-1")
    args = parser.parse_args()
    g = run.load_gtsp()
    sizes = [spec for spec in run.WORKLOADS["exact-p11"]["instances"] if spec != "eil51"]
    optima: dict[str, dict[str, int]] = {str(n): {} for n in sizes}
    for seed in range(args.seeds):
        for n in sizes:
            (src,) = run.make_sources([n], seed)
            inst = g.bench.load_instance_file(src.path)
            value = cluster_dp_optimum(g.numpy, inst.costs.cost, inst.clusters)
            optima[str(n)][str(seed)] = value
    run.RECORDED_OPTIMA.write_text(json.dumps(optima, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
