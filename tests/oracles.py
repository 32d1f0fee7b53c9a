"""Brute-force oracles and instance generators shared across the test suite.

The enumerators below recompute tour costs inline from the cost matrix so
they stay independent of the library's own cost and search code.
`lockstep_run` is the colony in plain loops over steps and ants, which the
library's (ants, n) construction kernel must reproduce byte for byte;
`reference_euc2d_costs` and `reference_clusters` are the original instance
load path, for the lean one in `gtsp.instance`; `reference_partition` is an
independent partition check (a numpy node -> cluster array, clusters sorted
up front), whose results and messages the one scan of `GtspInstance` must
reproduce; `reference_exact_solve` is the original mask-by-mask subset DP,
for the batched one in `gtsp.exact`; `best_tour_for_sequence` is the
layered-DAG shortest path for a fixed cluster order, the subproblem of the
paper's exact method, which checks `exact_solve` and criterion 2;
`parse_clustered` reads a clustered instance from text with the loader's own
scan, parse and assembler (`_scan_records`, `_parse_coords`, `_clustered`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import gtsp.instance
from gtsp import (
    AcoParams,
    CostMatrix,
    GtspInstance,
    RunResult,
    Tour,
    make_tour,
    nn_reference_cost,
)


def random_matrix_instance(
    n: int, p: int, rng: np.random.Generator, symmetric: bool = True, high: int = 100
) -> GtspInstance:
    """Random integer cost matrix with a random partition into p clusters."""
    cost = rng.integers(1, high, size=(n, n))
    if symmetric:
        upper = np.triu(cost, 1)
        cost = upper + upper.T
    np.fill_diagonal(cost, 0)
    nodes = rng.permutation(n)
    clusters = [[int(nodes[k])] for k in range(p)]
    for v in nodes[p:]:
        clusters[int(rng.integers(p))].append(int(v))
    return GtspInstance(
        name=f"{p}RND{n}",
        costs=CostMatrix(cost),
        clusters=tuple(tuple(c) for c in clusters),
    )


def trap_instance(symmetric: bool) -> GtspInstance:
    """Four singleton clusters. The NN tour 0-1-2-3 pays the closing edge 100
    (L_nn = 103) while 0-1-3-2 costs 6, so once an ant finds it the global
    update pushes its trails above tau_max = 2 / L_nn and reinit resets them."""
    cost = np.array(
        [[0, 1, 2, 100],
         [1, 0, 1, 2],
         [2, 1, 0, 1],
         [100, 2, 1, 0]]
    )
    if not symmetric:
        cost[2, 0] = 3
    return GtspInstance(
        name="trap", costs=CostMatrix(cost), clusters=((0,), (1,), (2,), (3,))
    )


def random_cost_instance(n: int, p: int, top: int, seed: int) -> GtspInstance:
    """Symmetric costs drawn from [1, top] with `top` on edge (0, 1)."""
    rng = np.random.default_rng(seed)
    cost = np.triu(rng.integers(1, top, size=(n, n), endpoint=True), 1)
    cost[0, 1] = top
    cost = cost + cost.T
    clusters = [list(range(k, n, p)) for k in range(p)]
    return GtspInstance(name="big", costs=CostMatrix(cost), clusters=tuple(map(tuple, clusters)))


def reference_euc2d_costs(points: np.ndarray) -> np.ndarray:
    """The original integer Euclidean kernel: one (n, n, 2) difference array
    reduced over its last axis, then sqrt, + 0.5 and floor."""
    diff = points[:, None, :] - points[None, :, :]
    cost = np.floor(np.sqrt((diff * diff).sum(axis=-1)) + 0.5).astype(np.int64)
    np.fill_diagonal(cost, 0)
    return cost


def reference_clusters(cost: np.ndarray, m: int) -> tuple[tuple[int, ...], ...]:
    """The original center-based clustering: the first center from a copy
    with a -1 diagonal, each next one by column reads, nearest center by an
    argmin over the (n, m) column gather."""
    off_diag = cost.astype(np.int64).copy()
    np.fill_diagonal(off_diag, -1)
    top = off_diag.max()
    endpoints = np.flatnonzero((off_diag == top).any(axis=1) | (off_diag == top).any(axis=0))
    centers = [int(endpoints[0])]
    min_to_centers = cost[:, centers[0]].astype(np.int64).copy()
    min_to_centers[centers[0]] = -1
    for _ in range(m - 1):
        nxt = int(np.argmax(min_to_centers))
        centers.append(nxt)
        np.minimum(min_to_centers, cost[:, nxt], out=min_to_centers)
        min_to_centers[nxt] = -1
    assign = np.argmin(cost[:, centers], axis=1)
    for k, c in enumerate(centers):
        assign[c] = k
    return tuple(tuple(int(v) for v in np.flatnonzero(assign == k)) for k in range(m))


def reference_partition(clusters, n: int) -> np.ndarray:
    """The partition check `GtspInstance` must match: node -> cluster index,
    or the ValueError of the first failure met member by member, clusters in
    order and members ascending."""
    clusters = tuple(tuple(sorted(int(v) for v in c)) for c in clusters)
    if len(clusters) < 2:
        raise ValueError(f"need at least 2 clusters, got {len(clusters)}")
    cluster_of = np.full(n, -1, dtype=np.int64)
    for k, members in enumerate(clusters):
        if not members:
            raise ValueError(f"empty cluster {k}")
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"node {v} out of range 0..{n - 1}")
            if cluster_of[v] >= 0:
                raise ValueError(
                    f"not a partition: node {v} is in clusters {cluster_of[v]} and {k}"
                )
            cluster_of[v] = k
    unassigned = np.flatnonzero(cluster_of < 0)
    if unassigned.size:
        raise ValueError(f"not a partition: node {int(unassigned[0])} is in no cluster")
    return cluster_of


def cycle_cost(cost: np.ndarray, pick: tuple[int, ...]) -> int:
    total = 0
    for a, b in zip(pick, pick[1:] + (pick[0],)):
        total += int(cost[a, b])
    return total


def brute_force_best_for_order(instance: GtspInstance, order) -> int:
    """Exhaustive minimum over every node selection for one cluster order."""
    cost = instance.costs.cost
    layers = [instance.clusters[k] for k in order]
    return min(cycle_cost(cost, pick) for pick in itertools.product(*layers))


def brute_force_optimum(instance: GtspInstance) -> int:
    """Exhaustive minimum over every cluster order and node selection."""
    others = range(1, instance.p)
    return min(
        brute_force_best_for_order(instance, (0,) + rest)
        for rest in itertools.permutations(others)
    )


def parse_clustered(text: str) -> GtspInstance:
    """A clustered instance file's text as its instance, read by the one scan
    and the assembler that `gtsp.instance.load_instance_file` reads a
    clustered file with: the text gives both the coordinates and the sets.
    The instance takes the text's NAME record, or an empty name when it has
    none."""
    headers, coord_records, set_records = gtsp.instance._scan_records(text)
    coords = gtsp.instance._parse_coords(headers, coord_records)
    return gtsp.instance._clustered(coords, headers, set_records, Path())


# --- Fixed-order exact solver -----------------------------------------------
#
# For a fixed cluster visiting order, the optimal tour is a shortest path in a
# layered DAG: one layer per cluster in order, closed by a final layer that
# duplicates the first cluster. The paper's exact method enumerates orders
# and solves this subproblem; the package keeps only the subset DP.


def _check_sequence(instance: GtspInstance, order) -> list[int]:
    seq = [int(k) for k in order]
    if sorted(seq) != list(range(instance.p)):
        raise ValueError(f"sequence {seq} is not a permutation of 0..{instance.p - 1}")
    return seq


def best_tour_for_sequence(instance: GtspInstance, order) -> Tour:
    """Cheapest tour visiting the clusters in the given order.

    Forward dynamic programming over the layers, one start per node of the
    first cluster, O(sum_l |V_l|*|V_{l+1}|) per start, in start-row chunks
    whose step temporary stays within `gtsp.instance.BLOCK_BYTES`. Sums are
    int64 whatever the cost type, and exact: `GtspInstance` refuses, when it
    is built, an instance whose tour sums may overflow int64. Ties resolve to
    the lowest start node, then the lowest member index per layer.
    """
    seq = _check_sequence(instance, order)
    cost = instance.costs.cost
    members = instance.cluster_arrays
    layers = [members[k] for k in seq]
    starts = layers[0]
    s = len(starts)

    # dist[a, j]: start a, then node j of layer 1; int64, so no sum with a
    # cost wraps in the narrower cost type
    dist = cost[np.ix_(starts, layers[1])].astype(np.int64)
    parents: list[np.ndarray] = []
    for l in range(1, len(layers) - 1):
        block = cost[np.ix_(layers[l], layers[l + 1])]
        parent = np.empty((s, block.shape[1]), dtype=np.intp)
        reached = np.empty((s, block.shape[1]), dtype=np.int64)
        # start-row chunks keep the (chunk, |V_l|, |V_l+1|) int64 temporary within a block
        chunk = gtsp.instance.per_block(block.size * dist.itemsize)
        for r in range(0, s, chunk):
            stacked = dist[r : r + chunk, :, None] + block
            stacked.argmin(axis=1, out=parent[r : r + chunk])
            stacked.min(axis=1, out=reached[r : r + chunk])
        parents.append(parent)
        dist = reached

    closing = cost[np.ix_(layers[-1], starts)]  # back to the duplicated first layer
    totals = dist + closing.T
    s_idx, j_idx = divmod(int(totals.argmin()), totals.shape[1])

    choice = [j_idx]  # member index per layer, last layer first
    for parent in reversed(parents):
        choice.append(int(parent[s_idx, choice[-1]]))
    choice.append(s_idx)
    tour = make_tour(instance, [int(layer[c]) for layer, c in zip(layers, reversed(choice))])
    assert tour.cost == int(totals[s_idx, j_idx])
    return tour


# --- Reference exact solver -------------------------------------------------
#
# The original subset DP over clusters: a ragged table, one (s, nodes in mask)
# block per mask, filled by one min-plus step per mask in increasing mask
# order. `gtsp.exact.exact_solve` fills a dense table popcount by popcount and
# must return the same Tour, tie rule included.

_REF_STEP_CELLS = 2**16


def reference_exact_solve(instance: GtspInstance) -> Tour:
    """Optimal tour by the original mask-by-mask subset DP (no cell cap), in
    int64 whatever type the instance stores its costs in."""
    cost = instance.costs.cost.astype(np.int64)
    if int(cost.max()) * instance.p > np.iinfo(np.int64).max:
        raise ValueError("costs too large for exact int64 tour sums")

    members = instance.cluster_arrays
    sizes = [len(c) for c in instance.clusters]
    first = sizes.index(min(sizes))
    starts = members[first]
    rest = [members[k] for k in range(instance.p) if k != first]
    rest_sizes = [len(c) for c in rest]
    m = len(rest)
    full = (1 << m) - 1
    order = np.concatenate(rest)
    owner = np.repeat(np.arange(m), rest_sizes)
    bounds = np.concatenate(([0], np.cumsum(rest_sizes)))
    inner = cost[np.ix_(order, order)]

    def columns(mask: int) -> np.ndarray:
        return np.flatnonzero((mask >> owner) & 1)

    s = len(starts)
    dp: list[np.ndarray | None] = [None] * (1 << m)
    opening = cost[np.ix_(starts, order)]
    for i in range(m):
        dp[1 << i] = opening[:, bounds[i] : bounds[i + 1]]
    unset = np.iinfo(np.int64).max
    step = np.empty((s, len(order)), dtype=np.int64)
    for mask in range(1, full):
        block = dp[mask]
        cols = columns(mask)
        rows = inner[cols]
        chunk = max(1, _REF_STEP_CELLS // rows.size)
        for r in range(0, s, chunk):
            np.minimum.reduce(
                block[r : r + chunk, :, None] + rows, axis=1, out=step[r : r + chunk]
            )
        offsets = np.searchsorted(cols, bounds[:-1])
        for i in range(m):
            if mask >> i & 1:
                continue
            lo, hi = bounds[i], bounds[i + 1]
            target = dp[mask | 1 << i]
            if target is None:
                target = np.full((s, len(cols) + hi - lo), unset)
                dp[mask | 1 << i] = target
            view = target[:, offsets[i] : offsets[i] + hi - lo]
            np.minimum(view, step[:, lo:hi], out=view)

    totals = dp[full] + cost[np.ix_(order, starts)].T
    best = totals.min()
    a = int(np.flatnonzero(totals.min(axis=1) == best)[0])
    ends = np.flatnonzero(totals[a] == best)
    g = int(ends[np.argmin(order[ends])])

    path = [int(order[g])]
    mask, value = full, dp[full][a, g]
    while mask != 1 << int(owner[g]):
        prev = mask ^ 1 << int(owner[g])
        cols = columns(prev)
        cands = cols[dp[prev][a] + inner[cols, g] == value]
        g = int(cands[np.argmin(order[cands])])
        mask, value = prev, dp[prev][a, np.searchsorted(cols, g)]
        path.append(int(order[g]))
    tour = make_tour(instance, [int(starts[a])] + path[::-1])
    assert tour.cost == int(best)
    return tour


# --- Lockstep reference colony ----------------------------------------------
#
# The colony's semantics in plain loops. Each iteration draws one (p, ants, 2)
# block of uniforms: row 0 gives every ant its start (a cluster, then a
# member, each index floor(u * k)), row s its q and r at step s. At each step
# every ant picks from the same trails, one ant after another over its
# compressed candidate list in Python floats, and then the step's trail
# writes run in ant order. `gtsp.aco.iterate` moves all ants as one
# (ants, n) block and must reproduce this byte for byte: same draws, same
# ant tours and the same final trails. Only the visibility powers come from
# numpy, as in the library: numpy's vectorised pow and the C library's pow
# can differ in the last bit. The data containers (AcoParams, RunResult,
# Tour) and the NN incumbent come from the library; tour costs are
# recomputed inline.


def _lockstep_pick(cost, tau, eta, cur, cand, q, r, q0, beta) -> int:
    """One ant's node choice among `cand` (ascending) from node `cur`."""
    w = [tau[cur][v] * eta[cur][v] for v in cand]
    sums = list(itertools.accumulate(w))
    if sums[-1] == 0.0:  # every weight underflowed: relative visibility
        c = np.maximum(cost[cur, cand], 1)
        ratio = ((c.min() / c) ** beta).tolist()
        w = [tau[cur][v] * x for v, x in zip(cand, ratio)]
        sums = list(itertools.accumulate(w))
    if q <= q0:
        return cand[w.index(max(w))]
    total = sums[-1]
    bar = min(r * total, math.nextafter(total, 0.0))
    return next(v for v, s in zip(cand, sums) if s > bar)


def lockstep_run(instance: GtspInstance, params: AcoParams):
    """Iteration-budgeted colony run by plain loops over steps and ants.

    Returns the RunResult (elapsed 0), the final trail matrix, for each
    reinitialization how many trail entries it reset, and per iteration the
    ant tours (node tuples). A reinitialization runs only in an iteration
    where some write went above tau_max.
    """
    rng = np.random.default_rng(params.seed)
    l_nn, incumbent = nn_reference_cost(instance)
    n, p, ants, rho = instance.n, instance.p, params.num_ants, params.rho
    scale = max(l_nn, 1)
    tau0 = 1.0 / (n * scale)
    tau_max = 1.0 / ((1.0 - rho) * scale)
    tau = [[tau0] * n for _ in range(n)]
    cost = instance.costs.cost
    eta = ((1.0 / np.maximum(cost, 1)) ** params.beta).tolist()
    symmetric = instance.costs.symmetric
    clusters = [list(c) for c in instance.clusters]
    cluster_of = instance.cluster_of.tolist()

    def relax(i: int, j: int, deposit: float) -> bool:
        """Write trail (i, j); True if it went above tau_max."""
        tau[i][j] = (1.0 - rho) * tau[i][j] + rho * deposit
        if symmetric:
            tau[j][i] = tau[i][j]
        return tau[i][j] > tau_max

    trace = []
    resets = []
    tours = []
    for _ in range(params.max_iterations):
        deposit = 1.0 / (n * max(incumbent.cost, 1)) if params.variant == "racs" else tau0
        starts, *draws = rng.random((p, ants, 2)).tolist()
        above = False
        paths, visited = [], []
        for u, v in starts:
            k = int(u * p)
            paths.append([clusters[k][int(v * len(clusters[k]))]])
            visited.append({k})
        for step in draws:
            picks = []
            for path, seen, (q, r) in zip(paths, visited, step):
                cand = [v for v in range(n) if cluster_of[v] not in seen]
                picks.append(_lockstep_pick(cost, tau, eta, path[-1], cand, q, r,
                                            params.q0, params.beta))
            for path, seen, v in zip(paths, visited, picks):
                above |= relax(path[-1], v, deposit)
                path.append(v)
                seen.add(cluster_of[v])
        for path in paths:
            above |= relax(path[-1], path[0], deposit)
        ant_tours = [Tour(tuple(path), cycle_cost(cost, tuple(path))) for path in paths]

        iteration_best = min(ant_tours, key=lambda t: t.cost)
        if iteration_best.cost < incumbent.cost:
            incumbent = iteration_best
        nodes = incumbent.nodes
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            above |= relax(a, b, 1.0 / max(incumbent.cost, 1))
        if above:
            resets.append(0)
            for row in tau:
                for j, t in enumerate(row):
                    if t > tau_max:
                        row[j] = tau0
                        resets[-1] += 1
        trace.append(incumbent.cost)
        tours.append([t.nodes for t in ant_tours])

    result = RunResult(
        best=incumbent, iterations=params.max_iterations, elapsed=0.0,
        params=replace(params), trace=trace,
    )
    return result, np.array(tau), resets, tours
