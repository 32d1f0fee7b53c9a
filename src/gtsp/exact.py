"""Exact GTSP search.

The global optimum comes from the classical subset dynamic program over
clusters (Held-Karp applied to clusters, as in Henry-Labordere 1969 and
Srivastava et al. 1969), O(2^p * n^2) time. For a fixed cluster visiting
order, the optimal tour is also a shortest path in a layered DAG: one layer
per cluster in order, closed by a final layer that duplicates the first
cluster; `best_tour_for_sequence` solves that subproblem.
"""

from __future__ import annotations

import numpy as np

from .construct import Tour, make_tour
from .instance import GtspInstance

# int64 cells of the subset DP table, 128 MiB: admits n=80/p=16, refuses n=100/p=20.
DEFAULT_CELL_CAP = 2**24
_STEP_CELLS = 2**16  # int64 cells of one min-plus temporary, where the sizes allow


class CellCapExceeded(RuntimeError):
    """The subset DP table would hold more cells than the configured cap."""

    def __init__(self, cell_count: int, cap: int):
        self.cell_count = cell_count
        self.cap = cap
        super().__init__(
            f"refusing to allocate {cell_count} DP cells (cap {cap}); "
            "use a heuristic solver instead"
        )


def dp_cell_count(instance: GtspInstance) -> int:
    """Cells of `exact_solve`'s table: s * (n - s) * 2^(p-2), s the smallest cluster size.

    Each non-empty subset of the p-1 other clusters holds one (s, nodes of
    those clusters) block, and each node lies in half of those subsets.
    """
    s = min(len(c) for c in instance.clusters)
    return s * (instance.n - s) << (instance.p - 2)


def _check_sequence(instance: GtspInstance, order) -> list[int]:
    seq = [int(k) for k in order]
    if sorted(seq) != list(range(instance.p)):
        raise ValueError(f"sequence {seq} is not a permutation of 0..{instance.p - 1}")
    return seq


def best_tour_for_sequence(instance: GtspInstance, order) -> Tour:
    """Cheapest tour visiting the clusters in the given order.

    Forward dynamic programming over the layers, one start per node of the
    first cluster, O(sum_l |V_l|*|V_{l+1}|) per start, in start-row chunks
    that bound each step's temporary as in `exact_solve`. Ties resolve to the
    lowest start node, then the lowest member index per layer.
    """
    seq = _check_sequence(instance, order)
    cost = instance.costs.cost
    members = instance.cluster_arrays
    layers = [members[k] for k in seq]
    starts = layers[0]
    s = len(starts)

    dist = np.full((s, s), np.inf)
    np.fill_diagonal(dist, 0.0)
    parents: list[np.ndarray] = []
    for l in range(len(layers) - 1):
        block = cost[np.ix_(layers[l], layers[l + 1])]
        parent = np.empty((s, block.shape[1]), dtype=np.intp)
        reached = np.empty((s, block.shape[1]))
        # start-row chunks keep the (chunk, |V_l|, |V_l+1|) temporary near _STEP_CELLS
        chunk = max(1, _STEP_CELLS // block.size)
        for r in range(0, s, chunk):
            stacked = dist[r : r + chunk, :, None] + block
            stacked.argmin(axis=1, out=parent[r : r + chunk])
            stacked.min(axis=1, out=reached[r : r + chunk])
        parents.append(parent)
        dist = reached

    closing = cost[np.ix_(layers[-1], starts)]  # back to the duplicated first layer
    totals = dist + closing.T
    flat = int(totals.argmin())
    best = totals.flat[flat]
    s_idx, j_idx = divmod(flat, totals.shape[1])

    choice = [0] * len(layers)
    choice[-1] = j_idx
    for l in range(len(layers) - 2, -1, -1):
        choice[l] = int(parents[l][s_idx, choice[l + 1]])
    nodes = [int(layers[l][choice[l]]) for l in range(len(layers))]
    assert nodes[0] == int(starts[s_idx])
    tour = make_tour(instance, nodes)
    assert tour.cost == int(best)
    return tour


def exact_solve(instance: GtspInstance, cell_cap: int = DEFAULT_CELL_CAP) -> Tour:
    """Global optimum by a subset DP over clusters, O(2^p * n^2) time.

    The first cluster is fixed to one of minimum cardinality s (ties to the
    lowest index). `dp[mask][a, j]` is the cheapest path that leaves start
    node a of the first cluster, visits exactly the clusters in `mask` (a set
    of the other p-1 clusters) and ends at the j-th node of those clusters.
    Masks run in increasing order. Each mask takes one min-plus step to every
    node outside it, and each cluster outside it takes its slice of that step
    into the block of the larger mask. The table is ragged, one
    (s, nodes in mask) int64 block per mask, `dp_cell_count` cells in all;
    an instance above `cell_cap` cells is refused before anything is
    allocated. The tour is rebuilt by walking back through the table in
    exact integer arithmetic.

    Ties resolve to the lowest start node, then the lowest closing node, then,
    walking back, the lowest node id among the optimal predecessors.
    """
    cells = dp_cell_count(instance)
    if cells > cell_cap:
        raise CellCapExceeded(cells, cell_cap)
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
    # DP columns: the nodes of the other clusters, cluster i at bounds[i]:bounds[i+1].
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
        # one min-plus from mask into every column, in start-row chunks that
        # keep the (chunk, len(cols), len(order)) temporary near _STEP_CELLS
        chunk = max(1, _STEP_CELLS // rows.size)
        for r in range(0, s, chunk):
            np.minimum.reduce(
                block[r : r + chunk, :, None] + rows, axis=1, out=step[r : r + chunk]
            )
        # offset of cluster i's columns in the block of mask | 1 << i
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
    a = int(np.flatnonzero(totals.min(axis=1) == best)[0])  # starts ascend by id
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
