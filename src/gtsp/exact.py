"""Exact GTSP search.

The global optimum comes from the classical subset dynamic program over
clusters (Held-Karp applied to clusters, as in Henry-Labordere 1969 and
Srivastava et al. 1969), O(2^p * n^2) time. `exact_solve` keeps it in one
dense integer table and fills it popcount by popcount, one batched min-plus
per (popcount, target cluster). It is the package's one exact algorithm.
The optimal tour for a fixed cluster order, a shortest path in a layered
DAG, is kept in `tests/oracles.py` as a reference that checks this one.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .construct import Tour, make_tour
from .instance import GtspInstance, cost_dtype, per_block

# Cells of the subset DP table, 64/128/256 MiB at int16/int32/int64: admits
# n=80/p=16, refuses n=100/p=20.
DEFAULT_CELL_CAP = 2**25
# Source rows per min-plus chunk when a cluster's columns do not all fit one
# block (`per_block`): the temporary's innermost axis, so each add and min
# runs this long.
_CHUNK_ROWS = 128


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
    is O(p^2) rounds of numpy calls instead of a Python step per mask. Each
    popcount level builds its plan once, in a few vectorised calls: for every
    cluster i its C(m-1, k) sources in ascending order, and their targets.
    A round slices its row of the plan and gathers and scatters whole masks
    of the table, with no row indices. The tour is rebuilt by walking back
    through the table.

    The min-plus reduces over the width axis as its outermost axis. Each
    chunk's gathered source rows are transposed once to (width, rows), the
    temporary is (width, target columns, rows), and its min over axis 0 is
    an elementwise minimum of width contiguous slabs, written back
    transposed. A round whose whole temporary, width * (cluster i's columns)
    * (its count * s rows) cells, fits `gtsp.instance.BLOCK_BYTES` runs as
    one chunk, without the chunk loops; at the default budget that is every
    round of 11EIL51. Otherwise a chunk takes all of cluster i's columns
    when that leaves at least _CHUNK_ROWS rows within the budget, or else
    _CHUNK_ROWS rows (fewer if one column of them would exceed the budget)
    and splits the columns. The rows of a chunk are whole masks, as many as
    that row count holds; when it is below s, a chunk is a slice of one
    mask's start rows, the last slice holding what is left.

    Ties resolve to the lowest start node, then the lowest closing node, then,
    walking back, the lowest node id among the optimal predecessors. The
    tour's cost is checked against the table's optimum, and a mismatch
    raises RuntimeError (a check that `python -O` keeps).
    """
    cells = dp_cell_count(instance)
    if cells > cell_cap:
        raise CellCapExceeded(cells, cell_cap)
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
    bounds = [0, *accumulate(rest_sizes)]

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
    # leave[j, c]: cost from column j into column c
    leave = cost[np.ix_(order, order)].astype(cell)
    dp = np.full((1 << m, s, width), sentinel, dtype=cell)
    dp[1 << owner, :, np.arange(width)] = cost[np.ix_(starts, order)].T

    # popcounts of the sets of the first m-1 clusters, by doubling: the sets
    # holding cluster i are those below 2^i plus 2^i
    popcount = np.zeros(1, dtype=np.int64)
    for _ in range(m - 1):
        popcount = np.concatenate((popcount, popcount + 1))
    bits = 1 << np.arange(m)[:, None]
    budget = per_block(leave.itemsize)  # cells of one temporary
    buffer = np.empty(max(budget, width), dtype=cell)
    for k in range(1, m):
        # The level's plan: row i holds the C(m-1, k) masks of popcount k
        # without cluster i, ascending, and their targets mask | 1 << i. Each
        # is a set of k of the first m-1 clusters with a zero bit inserted at
        # i: adding its bits from i up shifts them one place left.
        level = np.flatnonzero(popcount == k)
        sources = level & -bits
        sources += level
        targets = sources | bits
        count = sources.shape[1]
        for i in range(m):
            lo, hi = bounds[i], bounds[i + 1]
            if width * (hi - lo) * count * s <= budget:
                # the whole round in one chunk: every source mask, all columns
                gathered = dp.take(sources[i], axis=0).reshape(-1, width).T.copy()
                step = buffer[: gathered.size * (hi - lo)].reshape(width, hi - lo, -1)
                np.add(gathered[:, None, :], leave[:, lo:hi, None], out=step)
                dp[targets[i], :, lo:hi] = step.min(axis=0).T.reshape(count, s, hi - lo)
                continue
            # (width, block, rows) temporaries within the budget, or one
            # width when a single cell per row exceeds it
            whole = budget // (width * (hi - lo))
            chunk = max(1, min(count * s, budget // width, max(_CHUNK_ROWS, whole)))
            # whole masks per chunk, or a slice of one mask's start rows
            per, span = max(1, chunk // s), min(chunk, s)
            block = max(1, min(hi - lo, budget // (width * per * span)))
            for a in range(0, s, span):
                part = dp[:, a : a + span]  # the last slice may hold fewer rows
                rows = part.shape[1]
                for r in range(0, count, per):
                    src, tgt = sources[i, r : r + per], targets[i, r : r + per]
                    # (width, rows): the min over width runs along contiguous slabs
                    gathered = part.take(src, axis=0).reshape(-1, width).T.copy()
                    for c in range(lo, hi, block):
                        d = min(c + block, hi)
                        step = buffer[: gathered.size * (d - c)].reshape(width, d - c, -1)
                        np.add(gathered[:, None, :], leave[:, c:d, None], out=step)
                        part[tgt, :, c:d] = step.min(axis=0).T.reshape(len(tgt), rows, d - c)

    totals = dp[full].astype(np.int64) + cost[np.ix_(order, starts)].T
    best = int(totals.min())
    a = int(np.flatnonzero(totals.min(axis=1) == best)[0])  # starts ascend by id
    ends = np.flatnonzero(totals[a] == best)
    g = int(ends[np.argmin(order[ends])])

    # Walking back, the predecessors of column g in mask are the columns j of
    # prev = mask without g's cluster with dp[prev, a, j] + leave[j, g] equal
    # to dp[mask, a, g]. The row's other columns hold the sentinel, which
    # plus a zero cost can equal a value at the sentinel, so their owners
    # keep them out.
    ids, owners = order.tolist(), owner.tolist()
    path = [ids[g]]
    mask, value = full, dp[full, a, g]
    while mask != 1 << owners[g]:
        prev = mask ^ 1 << owners[g]
        hits = np.flatnonzero(dp[prev, a] + leave[:, g] == value).tolist()
        g = min((j for j in hits if prev >> owners[j] & 1), key=ids.__getitem__)
        mask, value = prev, dp[prev, a, g]
        path.append(ids[g])
    tour = make_tour(instance, [int(starts[a])] + path[::-1])
    if tour.cost != best:
        raise RuntimeError(f"walk-back tour costs {tour.cost}, the table's optimum {best}")
    return tour
