"""Brute-force oracles and instance generators shared across the test suite.

The enumerators below recompute tour costs inline from the cost matrix so
they stay independent of the library's own cost and search code.
`reference_run` is the original colony loop, kept to check that the
library's construction kernel reproduces it byte for byte; likewise
`reference_euc2d_costs` and `reference_clusters` are the original instance
load path, for the lean one in `gtsp.instance`; `reference_partition` is the
original per-node partition check of `GtspInstance`, and
`reference_exact_solve` the original mask-by-mask subset DP, for the batched
one in `gtsp.exact`.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

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
    """The original partition check of `GtspInstance`: node -> cluster index,
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


# --- Reference exact solver -------------------------------------------------
#
# The original subset DP over clusters: a ragged table, one (s, nodes in mask)
# block per mask, filled by one min-plus step per mask in increasing mask
# order. `gtsp.exact.exact_solve` fills a dense table popcount by popcount and
# must return the same Tour, tie rule included.

_REF_STEP_CELLS = 2**16


def reference_exact_solve(instance: GtspInstance) -> Tour:
    """Optimal tour by the original mask-by-mask subset DP (no cell cap)."""
    cost = instance.costs.cost
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


# --- Reference colony -------------------------------------------------------
#
# A self-contained copy of the original per-object colony loop: one state
# object per ant with a tabu set over clusters, and its own pick and trail
# updates. `gtsp.aco.run` builds tours with a flat kernel that must reproduce
# this loop byte for byte: same draws, same float expressions, same ant tours
# and the same final trails. Only the data containers (AcoParams, RunResult,
# Tour) and the NN incumbent come from the library; tour costs are recomputed
# inline.


class _RefAntState:
    def __init__(self, instance: GtspInstance, start: int, rng: np.random.Generator):
        k = int(instance.cluster_of[start])
        self.current = start
        self.visited_clusters = {k}
        self.path = [start]
        self.rng_stream = rng
        self.node_mask = np.ones(instance.n, dtype=bool)
        self.node_mask[instance.cluster_arrays[k]] = False

    def advance(self, instance: GtspInstance, node: int) -> None:
        k = int(instance.cluster_of[node])
        self.visited_clusters.add(k)
        self.node_mask[instance.cluster_arrays[k]] = False
        self.path.append(node)
        self.current = node


def _ref_choose_next(state, tau, eta_beta, q0) -> int:
    cand = np.flatnonzero(state.node_mask)
    if cand.size == 0:
        raise RuntimeError("no candidates: every cluster already visited")
    w = tau[state.current, cand] * eta_beta[state.current, cand]
    q = state.rng_stream.random()
    if q <= q0:
        return int(cand[int(np.argmax(w))])
    probs = w / w.sum()
    r = state.rng_stream.random()
    idx = int(np.searchsorted(np.cumsum(probs), r, side="left"))
    return int(cand[min(idx, cand.size - 1)])


def _ref_local_update(tau, edge, rho, l_plus, n, variant, symmetric, tau0) -> None:
    deposit = 1.0 / (n * l_plus) if variant == "racs" else tau0
    i, j = edge
    tau[i, j] = (1.0 - rho) * tau[i, j] + rho * deposit
    if symmetric:
        tau[j, i] = tau[i, j]


def _ref_global_update(tau, best, rho, symmetric) -> None:
    deposit = 1.0 / best.cost
    nodes = best.nodes
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        tau[a, b] = (1.0 - rho) * tau[a, b] + rho * deposit
        if symmetric:
            tau[b, a] = tau[a, b]


def _ref_tour(instance: GtspInstance, path) -> Tour:
    nodes = tuple(int(v) for v in path)
    assert sorted(int(instance.cluster_of[v]) for v in nodes) == list(range(instance.p))
    return Tour(nodes, cycle_cost(instance.costs.cost, nodes))


def reference_run(instance: GtspInstance, params: AcoParams, iteration_observer=None):
    """Iteration-budgeted colony run by the original loop.

    Returns the RunResult (elapsed 0), the final trail matrix and how many
    trail entries the reinitializations reset in all.
    """
    rng = np.random.default_rng(params.seed)
    l_nn, incumbent = nn_reference_cost(instance)
    n, p = instance.n, instance.p
    tau0 = 1.0 / (n * l_nn)
    tau_max = 1.0 / ((1.0 - params.rho) * l_nn)
    tau = np.full((n, n), tau0)
    eta_beta = (1.0 / np.maximum(instance.costs.cost, 1)) ** params.beta
    symmetric = instance.costs.symmetric
    members = instance.cluster_arrays

    trace = []
    resets = 0
    for _ in range(params.max_iterations):
        l_plus = incumbent.cost
        ant_tours = []
        for _ in range(params.num_ants):
            cluster = int(rng.integers(p))
            start = int(members[cluster][rng.integers(len(members[cluster]))])
            state = _RefAntState(instance, start, rng)
            for _ in range(p - 1):
                nxt = _ref_choose_next(state, tau, eta_beta, params.q0)
                _ref_local_update(
                    tau, (state.current, nxt), params.rho, l_plus, n,
                    params.variant, symmetric, tau0,
                )
                state.advance(instance, nxt)
            _ref_local_update(
                tau, (state.current, state.path[0]), params.rho, l_plus, n,
                params.variant, symmetric, tau0,
            )
            ant_tours.append(_ref_tour(instance, state.path))

        iteration_best = min(ant_tours, key=lambda t: t.cost)
        if iteration_best.cost < incumbent.cost:
            incumbent = iteration_best
        _ref_global_update(tau, incumbent, params.rho, symmetric)
        reset = tau > tau_max
        resets += int(reset.sum())
        tau[reset] = tau0
        trace.append(incumbent.cost)
        if iteration_observer is not None:
            iteration_observer(ant_tours)

    result = RunResult(
        best=incumbent, iterations=params.max_iterations, elapsed=0.0,
        params=replace(params), trace=trace,
    )
    return result, tau, resets
