"""Exact GTSP search.

The global optimum comes from the classical subset dynamic program over
clusters (Held-Karp applied to clusters, as in Henry-Labordere 1969 and
Srivastava et al. 1969), O(2^p * n^2) time. `exact_solve` keeps it in one
dense integer table and fills it popcount by popcount, one batched min-plus
per (popcount, target cluster). For a fixed cluster visiting order, the optimal
tour is also a shortest path in a layered DAG: one layer per cluster in
order, closed by a final layer that duplicates the first cluster;
`best_tour_for_sequence` solves that subproblem.
"""

from __future__ import annotations

import numpy as np

from .construct import Tour, make_tour
from .instance import GtspInstance, cost_dtype

# Cells of the subset DP table, 64/128/256 MiB at int16/int32/int64: admits
# n=80/p=16, refuses n=100/p=20.
DEFAULT_CELL_CAP = 2**25
# Bytes of one min-plus temporary, where the sizes allow: 2^16 int16, 2^15 int32
# or 2^14 int64 cells. exact_solve allocates its temporary per call; at 128 KiB
# it adds little resident memory.
_STEP_BYTES = 2**17


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
    """Cells of `exact_solve`'s table: s * (n - s) * 2^(p-1), s the smallest cluster size.

    Each subset of the p-1 other clusters holds one (s, n - s) block: a start
    node of the smallest cluster by any node of the other clusters.
    """
    s = min(len(c) for c in instance.clusters)
    return s * (instance.n - s) << (instance.p - 1)


def _check_sequence(instance: GtspInstance, order) -> list[int]:
    seq = [int(k) for k in order]
    if sorted(seq) != list(range(instance.p)):
        raise ValueError(f"sequence {seq} is not a permutation of 0..{instance.p - 1}")
    return seq


def best_tour_for_sequence(instance: GtspInstance, order) -> Tour:
    """Cheapest tour visiting the clusters in the given order.

    Forward dynamic programming over the layers, one start per node of the
    first cluster, O(sum_l |V_l|*|V_{l+1}|) per start, in start-row chunks
    that bound each step's temporary in bytes as in `exact_solve`. Sums are
    int64 whatever the cost type, and exact (`check_tour_sums` admits the
    instance first). Ties resolve to the lowest start node, then the lowest
    member index per layer.
    """
    seq = _check_sequence(instance, order)
    instance.check_tour_sums()
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
        # start-row chunks keep the (chunk, |V_l|, |V_l+1|) int64 temporary near _STEP_BYTES
        chunk = max(1, _STEP_BYTES // (block.size * dist.itemsize))
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


def exact_solve(instance: GtspInstance, cell_cap: int = DEFAULT_CELL_CAP) -> Tour:
    """Global optimum by a subset DP over clusters, O(2^p * n^2) time.

    The first cluster is fixed to one of minimum cardinality s (ties to the
    lowest index). `dp[mask, a, j]` is the cheapest path that leaves start
    node a of the first cluster, visits exactly the clusters in `mask` (a set
    of the other m = p-1 clusters) and ends at node j of those clusters. The
    table is dense, (2^m, s, n - s), `dp_cell_count` cells, stored in the
    narrowest of int16/int32/int64 that holds every tour cost, and the
    min-plus sums are taken in that same type. Nodes outside a mask hold a
    sentinel no path cost reaches, so a min over all nodes equals the min
    over the mask's own. The sentinel is `iinfo(cell).max - max_cost`, and no
    stored value exceeds it, so no sum of a stored value and a cost wraps. An
    instance above `cell_cap` cells is refused before anything is allocated.

    Masks are filled by popcount. For popcount k and a target cluster i, the
    sources are the masks of popcount k without i; `mask -> mask | 1 << i` is
    one-to-one, so one chunked min-plus over their (mask, start) rows writes
    cluster i's columns of every target, and nothing else writes them. That
    is O(p^2) rounds of numpy calls instead of a Python step per mask. The
    tour is rebuilt by walking back through the table.

    Ties resolve to the lowest start node, then the lowest closing node, then,
    walking back, the lowest node id among the optimal predecessors.
    """
    cells = dp_cell_count(instance)
    if cells > cell_cap:
        raise CellCapExceeded(cells, cell_cap)
    instance.check_tour_sums()
    cost = instance.costs.cost

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

    def columns(mask: int) -> np.ndarray:
        return np.flatnonzero((mask >> owner) & 1)

    s, width = len(starts), len(order)
    bound = instance.max_cost * instance.p
    cell = cost_dtype(bound)
    # No sum wraps. Costs lie in [0, max_cost] (CostMatrix refuses negatives)
    # and `cell` holds max_cost * p. A real value is a path of at most p-1
    # edges, so at most max_cost * (p-1) <= iinfo(cell).max - max_cost =
    # sentinel, and a stored min is at most the real sum through a column of
    # its source's own clusters. Every stored value is then <= max(sentinel,
    # max_cost * (p-1)) = sentinel, and any stored value plus any cost is
    # <= iinfo(cell).max.
    sentinel = np.iinfo(cell).max - instance.max_cost
    # arrive[c, j]: cost from column j into column c; the rows of one cluster
    # are the contiguous block the min-plus below reads along j
    arrive = cost.T[np.ix_(order, order)].astype(cell)
    dp = np.full((1 << m, s, width), sentinel, dtype=cell)
    opening = cost[np.ix_(starts, order)]
    for i in range(m):
        lo, hi = bounds[i], bounds[i + 1]
        dp[1 << i, :, lo:hi] = opening[:, lo:hi]

    rows = dp.reshape(-1, width)  # row mask * s + a
    masks = np.arange(1 << m)
    popcount = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        popcount += (masks >> i) & 1
    buffer = np.empty(max(_STEP_BYTES // arrive.itemsize, max(rest_sizes) * width), dtype=cell)
    for k in range(1, m):
        level = masks[popcount == k]
        for i in range(m):
            lo, hi = bounds[i], bounds[i + 1]
            into = arrive[lo:hi]
            src = level[level & (1 << i) == 0]
            src_rows = (src[:, None] * s + np.arange(s)).ravel()
            tgt_rows = src_rows + (s << i)
            # (chunk, |V_i|, width) temporaries near _STEP_BYTES, in the cell type
            chunk = max(1, _STEP_BYTES // into.nbytes)
            for r in range(0, len(src_rows), chunk):
                gathered = rows[src_rows[r : r + chunk]]
                step = buffer[: len(gathered) * into.size].reshape(len(gathered), *into.shape)
                np.add(gathered[:, None, :], into, out=step)
                rows[tgt_rows[r : r + chunk], lo:hi] = step.min(axis=2)

    totals = dp[full].astype(np.int64) + cost[np.ix_(order, starts)].T
    best = totals.min()
    a = int(np.flatnonzero(totals.min(axis=1) == best)[0])  # starts ascend by id
    ends = np.flatnonzero(totals[a] == best)
    g = int(ends[np.argmin(order[ends])])

    path = [int(order[g])]
    mask, value = full, dp[full, a, g]
    while mask != 1 << int(owner[g]):
        prev = mask ^ 1 << int(owner[g])
        cols = columns(prev)
        cands = cols[dp[prev, a, cols] + arrive[g, cols] == value]
        g = int(cands[np.argmin(order[cands])])
        mask, value = prev, dp[prev, a, g]
        path.append(int(order[g]))
    tour = make_tour(instance, [int(starts[a])] + path[::-1])
    assert tour.cost == int(best)
    return tour
