"""Ant colony engines for the GTSP: the classic ant colony system (ACS) and a
reinforcing variant (RACS).

Both engines share the same tour construction, with the ants moving in
lockstep as in the original ACS: each ant starts on a random node of a random
cluster; then at every step each ant picks a node from an unvisited cluster
(greedy argmax when its draw q <= q0, otherwise a roulette draw proportional
to trail times visibility^beta), all ants reading the same trails, and the
step's trail corrections follow in ant order; after p - 1 steps each ant
closes its cycle. A mask over the nodes of still unvisited clusters keeps
tours feasible. The engines differ in the per-transition trail correction:
ACS relaxes toward the initial trail tau0, RACS toward 1/(n * L+), where L+
is the best cost seen so far. Once per iteration the best-so-far tour's edges
are reinforced with deposit 1/L+, and any trail that climbed above tau_max is
re-initialized to tau0.

Every trail write is (1 - rho) * t + rho * d, a convex combination of the old
trail and a target d of tau0, 1/(n * L+) or 1/L+, each at most max(tau0,
1/L+); L+ only falls, and a reinit writes tau0. So every trail stays at most
max(tau0, 1/L+), up to rounding, and since tau_max = 1/((1 - rho) * L_nn) a
reinit can happen only once L+ < (1 - rho) * L_nn: a colony must beat the NN
tour by that factor first (`tests/test_aco.py::TestTrailBound`).

`iterate` is the one construction loop, a generator that yields each
iteration's ant paths, trails and incumbent; `run` drives it under the
stopping rule and keeps the incumbents. Each iteration consumes a (p, ants, 2)
array of uniforms: row 0 gives each ant its start cluster and then its member
of that cluster (a uniform u picks index floor(u * k) of k), row s its q and
its r at step s; r is drawn whether or not the pick uses it. `iterate` draws
these arrays for a block of iterations at once, one (chunk, p, ants, 2) call
within `gtsp.instance.BLOCK_BYTES` (one iteration's draws if those alone
exceed it) and at most `max_iterations` iterations when that is set. The
generator yields its doubles in order, so the block holds exactly the draws
of `chunk` successive iterations and its size changes no trajectory. From the
block `iterate` derives, in a few vectorised calls, every start and, per
iteration and step, the ants that explore (q > q0) and their r; an iteration
only slices them. An (ants, n) mask holds 1.0 on the nodes of each ant's
unvisited clusters: it is refilled once per iteration, and each step zeroes
only the members of the cluster each ant entered last, through a (p, largest
cluster) table of cluster members. A step gathers the ants' rows of the
weight matrix as one (ants, n) block, multiplies it by the mask, and
`_pick_rows` picks every row at once: it takes the argmax of every row, and
only for the exploring rows the running sums, to pick the first node whose
running sum exceeds r times the row total (`_inverse_cdf`, the definition).
Rows at least `_FILTER_NODES` wide find that node without summing every
node (`_filtered_inverse_cdf`): 64-node block sums locate the bar's block,
one block's running sums its node, and a proven error bound accepts the node
only where it must be the exact rule's; a row the bound cannot decide, which
on the colony's rows almost never happens, takes the full running sums. So
the width rule changes no pick. A row whose weights all underflowed to 0 is
first rescued with `_relative_weights`. Then `_relax`
writes the step's trails one by one, in ant order, as the rule reads: an edge
two ants took is relaxed twice. A step's picks become a Python list once,
for its writes and as the next step's edge sources; the incumbent cycle is
kept as a list, rebuilt only when the incumbent changes.
`tests/oracles.py::lockstep_run` is the same colony in plain per-ant loops,
and `iterate` reproduces it byte for byte. The masks make each tour
feasible, so only a tour that becomes the new incumbent goes through
`make_tour` (validated and re-costed). Pheromone scales use max(L, 1), so
zero-cost tours do not divide by zero.

`iterate` keeps the trails in one flat float64 store. On a symmetric
instance, the complete undirected graph of the paper, an edge has one trail,
so the store holds the n * (n - 1) / 2 pairs a < b once, pair (a, b) at
off[a] + b with off[a] = a * n - a * (a + 1) / 2 - a - 1, built once per run
(`_pair_offsets`): 4 bytes per node pair, counting, here and below, the n^2
ordered pairs (a, b). An asymmetric instance keeps all n^2 edges, (a, b) at
a * n + b: 8 bytes per node pair. Next to the trails
`iterate` keeps a dense n x n float64 weight matrix, trail times
visibility^beta, and rewrites its entries at every trail write, so a step
gathers each ant's weights from one row: 8 bytes per node pair. With int16
costs the colony's arrays take 14 bytes per node pair on a symmetric
instance, 18 on an asymmetric one. Visibility^beta comes from a table indexed
by integer cost value, and the weights start as that table times tau0,
gathered in row blocks with no n x n temporary; only instances whose two
tables (the plain one and the one times tau0) would outgrow an n x n matrix
keep an n x n visibility matrix instead. Every trail write, local, closing or
global, goes through one relaxation (`_relax`), which returns the largest
value it wrote. It takes a call's edges as two lists of nodes, a and b, and
in one Python loop finds each edge's store entry, its flat weight index a * n
+ b, its mirror b * n + a (on symmetric instances, whose weight it writes
too) and its visibility^beta, read from the table through memoryviews of the
table and of the flattened costs (or from the n x n matrix), so a write
builds no numpy temporary. Trails change only through these writes, so
`iterate` calls `evaporation_reinit(tau, tau0, tau_max)` on the store only in
an iteration where the largest trail its writes returned is above tau_max,
turns its mask over the store into the (n, n) mask of the trails it reset,
both orientations of a pair alike, refreshes their weights and yields that
mask. The rare rescue of an underflowed row reads its trail row assembled
from the store in O(n) (`_store_rows`), and an `Iteration` builds the (n, n)
trails from the store only when its `tau` is read, which `run` never does.

A single run is sequential and deterministic given its seed. Independent runs
share instances read-only and may execute in parallel.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from bisect import bisect_right
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, replace
from types import UnionType
from typing import Iterator, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .construct import Tour, make_tour, nn_reference_cost
from .instance import GtspInstance, per_block

VARIANTS = ("acs", "racs")
# Roulette rows at least this wide take `_filtered_inverse_cdf`, narrower ones
# `_inverse_cdf`: both give the same nodes, and `_pick_rows` costs about the
# same either way at 900-1000 nodes (2-vCPU guest), the filter 2.5 times more
# at 51 and a third less at 2000
_FILTER_NODES = 1024
_FILTER_BLOCK = 64  # nodes per block sum of the filter


def param(default=MISSING, bound=None, flag=None, metavar=None, key=None):
    """A dataclass field declared once: its default, the `bound` that `check`
    applies, and, for a colony parameter, its `gtsp solve` flag with metavar
    and its config key (the field name unless `key` says otherwise)."""
    return field(default=default, metadata=dict(bound=bound, flag=flag, metavar=metavar, key=key))


def declared(cls) -> list[tuple[Field, type]]:
    """Each init field of dataclass `cls`, in order, with its resolved type."""
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls) if f.init]


def base_type(hint):
    """`hint` without its `| None`."""
    return get_args(hint)[0] if isinstance(hint, UnionType) else hint


def check(name: str, value, hint, bound=None):
    """Return `value` if it has the declared type `hint` and lies within
    `bound` (a choice lowercased, a list copied), as a plain value of its
    declared type: a number, numpy scalars included, as an int or a float, so
    that no numpy scalar reaches the colony's arithmetic or a JSON record.
    Otherwise raise a ValueError that names `name`.

    `hint` is int, float or str, a list of one of them or of anything
    (`list`), and may end in `| None`. A bool is not a number. The bound of an
    int is its minimum, of a float a (text, test) pair, of a str its choices
    (None: any string), and of a list that of its items.
    """
    if value is None and isinstance(hint, UnionType):
        return value
    kind = base_type(hint)
    if kind is list or get_origin(kind) is list:
        (item,) = get_args(kind) or (None,)
        if not isinstance(value, (list, tuple)):
            of = f" of {_TYPES[item][1].split()[1]}s" if item else ""
            raise ValueError(f"{name} must be a list{of}, got {value!r}")
        return [v if item is None else check(f"{name}[{i}]", v, item, bound)
                for i, v in enumerate(value)]
    types, noun = _TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types) or (kind is int and value < bound):
        raise ValueError(f"{name} must be {noun.format(bound)}, got {value!r}")
    if kind is str and bound is not None and (value := value.lower()) not in bound:
        raise ValueError(f"{name} must be one of {bound}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf if value > 0 else -math.inf
        if not bound[1](value):
            raise ValueError(f"{name} must {bound[0]}, got {value}")
    return kind(value)


# the instance types each declared type takes, and its name in a message
_TYPES = {int: (numbers.Integral, "an integer >= {}"), float: (numbers.Real, "a number"),
          str: (str, "a string")}


@dataclass
class AcoParams:
    """Colony parameters, each declared once with its default, bound, `gtsp
    solve` flag and config key: the CLI flags and the colony keys of
    `gtsp.bench.ExperimentConfig` are made from these fields, and `check`
    applies their types and bounds. Defaults follow the benchmark setup:
    beta=5, rho=0.5, q0=0.5, ten ants.

    `time_max` (seconds) is checked only between iterations: a run stops at
    the first iteration boundary at or after it, so it overruns by up to one
    iteration. A zero budget is allowed and returns the NN incumbent.
    """

    beta: float = param(5.0, ("be finite and >= 0", lambda v: 0 <= v < np.inf), "--beta", "B")
    rho: float = param(0.5, ("lie in (0, 1)", lambda v: 0 < v < 1), "--rho", "R")
    q0: float = param(0.5, ("lie in [0, 1]", lambda v: 0 <= v <= 1), "--q0", "Q")
    num_ants: int = param(10, 1, "--ants", "M")
    time_max: float | None = param(None, ("be >= 0 seconds", lambda v: v >= 0), "--time-max", "S")
    max_iterations: int | None = param(None, 0, "--max-iters", "K")
    seed: int = param(0, 0, "--seed", "N", key="base_seed")
    variant: str = param("racs", VARIANTS)

    def __post_init__(self) -> None:
        for f, hint in PARAMS:
            setattr(self, f.name, check(f.name, getattr(self, f.name), hint, f.metadata["bound"]))

    def to_dict(self) -> dict:
        return asdict(self)


PARAMS = declared(AcoParams)


def _trail_bounds(n: int, l_nn: int, rho: float) -> tuple[float, float]:
    """The initial trail tau0 = 1/(n * L) and the bound tau_max = 1/((1 - rho)
    * L), with L the NN cost; a zero-cost NN tour keeps a finite scale."""
    scale = max(l_nn, 1)
    return 1.0 / (n * scale), 1.0 / ((1.0 - rho) * scale)


def _visibility_pow(cost: np.ndarray, beta: float) -> np.ndarray:
    """Visibility^beta, (1/c)^beta, of the given edge costs; zero-cost edges
    clamp to 1."""
    return (1.0 / np.maximum(cost, 1)) ** beta


def _visibility_lookup(cost: np.ndarray, beta: float, max_cost: int, scale: float = 1.0):
    """Visibility^beta of the edges of `cost`, whose largest entry is
    `max_cost`, as `((vis, idx), where)`. `vis` and `idx` are Python-indexable
    views: the edge at flat index e (i * n + j) has visibility
    `vis[idx[e]]`, a Python float equal to the entry of
    `_visibility_pow(cost, beta)`. `where(mask)` gives `scale` times those of
    the edges a bool mask, a pair of node arrays (a, b) or `...` selects, each
    the float64 product of the two.

    The values come from a table over the integer cost values 0..max cost
    (and one pre-multiplied by `scale`), so no n x n matrix is built: `vis`
    views the table and `idx` the flattened costs, with no copy of either,
    and `where(...)` gathers its result row block by row block, each
    block's temporary within `gtsp.instance.BLOCK_BYTES`. Two tables longer
    than n^2 together would outgrow the matrix (and could exhaust memory at
    costs like 2^40); only in that case the n x n matrix is computed
    directly, `vis` views it flattened and `idx` is `range(n * n)`.
    """
    n = cost.shape[0]
    if 2 * (max_cost + 1) <= n * n:
        table = _visibility_pow(np.arange(max_cost + 1), beta)
        scaled = table * scale

        def where(mask):
            if mask is not ...:
                return scaled[cost[mask]]
            out = np.empty((n, n))
            rows = per_block(8 * n)  # the gather's intp copy of a cost block
            for lo in range(0, n, rows):
                # every cost lies in 0..max_cost, so "clip" moves no index;
                # unlike "raise" it writes into `out` without a buffer
                np.take(scaled, cost[lo:lo + rows], out=out[lo:lo + rows], mode="clip")
            return out

        return (memoryview(table), memoryview(cost.ravel())), where
    eta = _visibility_pow(cost, beta)
    return (memoryview(eta.ravel()), range(n * n)), (lambda mask: eta[mask] * scale)


def _relative_weights(
    cost_rows: np.ndarray, tau_rows: np.ndarray, mask: np.ndarray, beta: float
) -> np.ndarray:
    """Per row, trail times (c_min/c)^beta over the nodes `mask` keeps and 0
    elsewhere, c_min the row's cheapest kept edge. That edge has visibility 1,
    so unlike (1/c)^beta these weights cannot all underflow to 0 at large
    beta. Masked edges count as the dearest, so their ratio stays <= 1."""
    c = np.maximum(cost_rows, 1)
    c = np.where(mask, c, c.max())
    return tau_rows * (c.min(axis=1, keepdims=True) / c) ** beta * mask


def _argmax_rows(w: np.ndarray, relative) -> np.ndarray:
    """The argmax of every row of the weight block `w` (rows, n), ties to
    the lowest node id. A row whose weights all underflowed to 0 is first
    replaced in `w` by `relative(rows)`, the `_relative_weights` of the rows
    a bool array selects.

    The weights are non-negative, so a row's running sum is 0 exactly when
    its maximum is. The argmax is the first maximum, so a row whose argmax is
    not node 0 weighs more there than at node 0, hence more than 0: a row is
    all zero exactly when its argmax is node 0 and its weight there is 0."""
    picks = w.argmax(axis=1)
    if 0 in picks.tolist():
        zero = (picks == 0) & (w[:, 0] == 0.0)
        if zero.any():
            w[zero] = relative(zero)
            picks[zero] = w[zero].argmax(axis=1)
    return picks


def _inverse_cdf(rows: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The roulette rule, and its definition: per row of `rows`, with its draw
    r in [0, 1) at the same position of `r`, the first node whose running sum
    exceeds r times the row total, the sums taken one node after another
    (`np.add.accumulate`). The bar is kept below the total, which it reaches
    only when a subnormal total rounds r times itself up."""
    c = np.add.accumulate(rows, axis=1)
    total = c[:, -1]
    bar = np.minimum(r * total, np.nextafter(total, 0.0))
    return (c > bar[:, None]).argmax(axis=1)


def _filtered_inverse_cdf(rows: np.ndarray, r: np.ndarray) -> list[int]:
    """`_inverse_cdf(rows, r)`, found from blocked sums where an error bound
    certifies them and from `_inverse_cdf` itself on the other rows.

    Per row of n nodes: the sums of its `_FILTER_BLOCK`-node blocks (one
    `np.add.reduceat` for all rows) and their running sums; the first block
    whose running sum exceeds the bar fl(r * A), A the last running sum; then
    one `_FILTER_BLOCK`-wide `np.add.accumulate` of that block, added to the
    running sum before it, gives approximate running sums P and the first
    node j whose P exceeds the bar. With E = 16 * (n + 2) * 2^-53 * A, node j
    is accepted when P before j (0 at node 0) is below fl(r * A) - 2E, P at j
    above fl(r * A) + 2E, 2^-900 < A < 2^1000 and r < 1 - 2^-20; every other
    row takes `_inverse_cdf`.

    Why an accepted j is the exact rule's pick. Let u = 2^-53, m = n + 2,
    S_j the exact sum of the row's first j + 1 weights and S the exact
    total. The exact running sums c_j and their total T add non-negative
    terms one by one; the block sums, their running sums, A and each P add
    non-negative terms in trees of depth at most m. An addition rounds with
    relative error at most u, and is exact below the normal range, so each
    such sum is within gamma = m * u / (1 - m * u) of its exact value times
    it: |c_j - S_j| and |P_j - S_j| are at most gamma * S_j, |T - S| and
    |A - S| at most gamma * S (Higham 2002, section 4.2). A < 2^1000 keeps
    every sum finite. With A > 2^-900, T is normal and, as r < 1 - 2^-20,
    fl(r * T) <= (1 - 2^-20)(1 + u) * T < nextafter(T, 0): the clamp of
    `_inverse_cdf` cannot bind, and its bar is b = fl(r * T). The products
    r * T and r * A round with relative error at most u plus 2^-1075
    (subnormal rounding), which is below u * A by far. So b is within
    r * |T - A| + u * (T + A) + 2^-1074 <= (2 * gamma + 3 * u) * S of
    fl(r * A), and c_j, c_{j-1} are within 2 * gamma * S of P_j, P_{j-1}.
    Their sum, about 4 * m * u * S, plus the roundings of the test itself
    (a few u * A), stays below 2E = 32 * m * u * A, A being at least
    (1 - gamma) * S. Hence c_{j-1} <= b < c_j, and the exact running sums
    do not decrease, so j is the first node whose running sum exceeds b.
    A row falls back only when its bar lies within about 2E of the running
    sum before or at its node, a band of 64 * (n + 2) * 2^-53 of the total,
    1.4e-11 at n = 2000, or when its total is outside the range above.
    """
    n = rows.shape[1]
    block = _FILTER_BLOCK
    runs = np.add.accumulate(np.add.reduceat(rows, np.arange(0, n, block), axis=1),
                             axis=1).tolist()
    slack = 32 * (n + 2) * 2.0**-53  # 2E / A
    picks, rest = [], []
    for k, (row, run, x) in enumerate(zip(rows, runs, r.tolist())):
        total = run[-1]
        bar = x * total
        b = bisect_right(run, bar)  # the block where the sums cross the bar
        if b < len(run) and 2.0**-900 < total < 2.0**1000 and x < 1.0 - 2.0**-20:
            before = run[b - 1] if b else 0.0
            sums = np.add.accumulate(row[b * block:(b + 1) * block]).tolist()
            j = bisect_right(sums, bar - before)
            margin = slack * total
            if (j < len(sums) and (before + sums[j - 1] if j else before) < bar - margin
                    and before + sums[j] > bar + margin):
                picks.append(b * block + j)
                continue
        picks.append(0)
        rest.append(k)
    if rest:
        for k, pick in zip(rest, _inverse_cdf(rows[rest], r[rest]).tolist()):
            picks[k] = pick
    return picks


def _pick_rows(w: np.ndarray, roulette: np.ndarray, r: np.ndarray, relative) -> np.ndarray:
    """The node choice rule for every row of the weight block `w` (rows, n),
    whose masked (visited) entries are 0.0; all-zero rows are rescued first
    (`_argmax_rows`).

    Each row listed in `roulette` (an ant whose q > q0), with its draw r in
    [0, 1) at the same position of `r`, takes the roulette by inverse CDF
    over the unvisited nodes in id order, `_inverse_cdf`: the first node
    whose running sum exceeds r times the row total. Only these rows are
    summed. Every other row takes its argmax. A masked 0.0 adds exactly, so
    that is the node a running sum over the unvisited nodes alone gives, and
    both rules pick a node of positive weight: never a masked one and never
    an index past the row.

    Rows at least `_FILTER_NODES` wide take the same nodes through
    `_filtered_inverse_cdf`, which sums 64-node blocks and one block's nodes
    instead of every node, proves its pick with an error bound and falls
    back to `_inverse_cdf` on a row the bound cannot decide. Narrower rows
    take `_inverse_cdf` directly: there the filter's per-row Python work
    costs more than the full running sums.
    """
    picks = _argmax_rows(w, relative)
    if len(roulette):
        rows = w.take(roulette, axis=0)
        wide = w.shape[1] >= _FILTER_NODES
        picks[roulette] = (_filtered_inverse_cdf if wide else _inverse_cdf)(rows, r)
    return picks


def _local_deposit(variant: str, n: int, l_plus: int, tau0: float) -> float:
    """What a local update relaxes toward: 1/(n * L+) for RACS, tau0 for ACS."""
    return 1.0 / (n * max(l_plus, 1)) if variant == "racs" else tau0


def _global_deposit(best_cost: int) -> float:
    """What the global update relaxes the best tour's edges toward: 1/L+."""
    return 1.0 / max(best_cost, 1)


def _pair_offsets(n: int) -> np.ndarray:
    """off[a] = a * n - a * (a + 1) // 2 - a - 1 for every node a: the trail
    store of a symmetric instance keeps the pair a < b at off[a] + b, the
    pairs in row-major order of the upper triangle, so (0, 1) at 0 and
    (n - 2, n - 1) at n * (n - 1) / 2 - 1."""
    a = np.arange(n)
    return a * n - a * (a + 1) // 2 - a - 1


def _store_rows(store: np.ndarray, nodes, n: int, diagonal) -> np.ndarray:
    """Rows `nodes` of the (n, n) matrix that the flat `store` holds, as a
    new array. A store of n^2 entries holds (a, b) at a * n + b; one of n *
    (n - 1) / 2 entries holds each pair a < b once, at off[a] + b
    (`_pair_offsets`), for both (a, b) and (b, a), and the row takes
    `diagonal` at (a, a). A row costs one slice and one n-wide gather."""
    if store.size == n * n:
        return store.reshape(n, n)[np.asarray(nodes, dtype=np.intp)]
    off = _pair_offsets(n)
    out = np.empty((len(nodes), n), store.dtype)
    for row, a in zip(out, nodes):
        row[:a] = store[off[:a] + a]
        row[a] = diagonal
        row[a + 1:] = store[off[a] + a + 1:off[a] + n]
    return out


def _relax(
    tau: memoryview, weight: memoryview, rows: list[int], cols: list[int], n: int,
    off: list[int] | None, visibility, keep: float, add: float,
) -> float:
    """The trail writes t <- keep * t + add on the trail store, one by one
    in the order of the edges (rows[k], cols[k]), with keep = 1 - rho and
    add = rho * deposit. With `off` None the store holds edge (a, b) at a * n
    + b; else, on a symmetric instance, it holds the pair once, at off[a] + b
    for a < b (`_pair_offsets`), so that (a, b) and (b, a) read and write
    one entry; an edge joins two nodes, a != b. The new t times vis[idx[e]],
    with e = a * n + b and `visibility` the `(vis, idx)` views of
    `_visibility_lookup`, goes to the flattened weight matrix at e, and on a
    symmetric instance at b * n + a too, since a step gathers whole weight
    rows. `tau` and `weight` are memoryviews of the store and of the
    flattened weights: they read and write item by item faster than numpy,
    and the values pass as Python floats, whose arithmetic is numpy's float64
    arithmetic. Returns the largest value written."""
    vis, idx = visibility
    top = 0.0
    if off is None:
        for a, b in zip(rows, cols):
            e = a * n + b
            t = keep * tau[e] + add
            tau[e] = t
            weight[e] = t * vis[idx[e]]
            if t > top:
                top = t
        return top
    for a, b in zip(rows, cols):
        e = a * n + b
        k = off[a] + b if a < b else off[b] + a
        t = keep * tau[k] + add
        tau[k] = t
        weight[e] = weight[b * n + a] = t * vis[idx[e]]
        if t > top:
            top = t
    return top


def evaporation_reinit(tau: np.ndarray, tau0: float, tau_max: float) -> np.ndarray:
    """Reset trails that climbed strictly above tau_max back to tau0; other
    entries keep their value. Runs right after the global update, on the
    colony's trail store (any array of trails will do). Returns the bool mask
    of the entries it reset."""
    reset = tau > tau_max
    tau[reset] = tau0
    return reset


@dataclass
class RunResult:
    """What every solver returns: `run` here, and `gtsp.bench.solve` for all
    four algorithms. The best tour and the wall time, plus the iterations,
    best-so-far cost per iteration and parameters of a colony run (None for
    exact and NN). `to_dict` is the record `gtsp solve` prints."""

    best: Tour
    elapsed: float
    iterations: int | None = None
    trace: list[int] | None = None
    params: AcoParams | None = None

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {"cost": self.best.cost, "nodes": list(self.best.nodes)}
        if self.params is not None:
            out.update(iterations=self.iterations, params=self.params.to_dict(),
                       seed=self.params.seed, trace=list(self.trace))
        if include_elapsed:
            out["elapsed_seconds"] = self.elapsed
        return out

    def to_json(self, include_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(include_elapsed), sort_keys=True)


class Iteration(NamedTuple):
    """One colony iteration as `iterate` yields it. `paths` and `trails`
    belong to the colony and are rewritten in place in the next iteration, so
    copy what must outlive it.

    `tau` gives the trails as an (n, n) matrix, both orientations of a
    symmetric pair alike: each read builds a new array from the store as it
    stands (n slices and n gathers), so `run`, which never reads it, never
    pays for it."""

    paths: np.ndarray  # (p, ants): paths[s] holds every ant's node s
    lengths: np.ndarray  # (ants,): the cost of each ant's tour
    # the flat trail store after the global write and any reinit: n * (n - 1) / 2
    # pairs on a symmetric instance (`_pair_offsets`), else n^2 edges at a * n + b
    trails: np.ndarray
    tau0: float
    tau_max: float
    # (n, n) bool: the trails the reinit reset, both orientations of a
    # symmetric pair alike; None if it did not run
    reset: np.ndarray | None
    incumbent: Tour  # the best tour so far, the NN tour until an ant beats it
    n: int

    @property
    def tau(self) -> np.ndarray:
        """The (n, n) float64 trails, tau0 on the diagonal, which no write reaches."""
        return _store_rows(self.trails, range(self.n), self.n, self.tau0)


def run(instance: GtspInstance, params: AcoParams) -> RunResult:
    """Run a full colony on `instance` until time_max or max_iterations.

    The incumbent starts as the nearest-neighbor reference tour, so the
    returned cost never exceeds it and the per-iteration trace is
    non-increasing; a zero budget returns it without building the colony.
    Deterministic given the seed when max_iterations is the stopping rule.
    """
    if params.time_max is None and params.max_iterations is None:
        raise ValueError("need a stopping rule: set time_max and/or max_iterations")
    started = time.perf_counter()
    _, incumbent = nn_reference_cost(instance)
    colony = iterate(instance, params)
    trace: list[int] = []
    while (params.max_iterations is None or len(trace) < params.max_iterations) and (
        params.time_max is None or time.perf_counter() - started < params.time_max
    ):
        incumbent = next(colony).incumbent
        trace.append(incumbent.cost)
    return RunResult(
        best=incumbent,
        iterations=len(trace),
        elapsed=time.perf_counter() - started,
        params=replace(params),
        trace=trace,
    )


def iterate(instance: GtspInstance, params: AcoParams) -> Iterator[Iteration]:
    """The colony on `instance`, one `Iteration` per step of the generator,
    without end: the caller applies any stopping rule (`run` does). The set-up
    (trails, weights) runs at the first `next`. The arrays of each `Iteration`
    belong to the colony and change in the next iteration. Deterministic given
    the seed.

    The trails live in the flat store of the module docstring, one entry per
    node pair on a symmetric instance, one per ordered pair otherwise; the
    `Iteration` yields it as `trails` and builds the (n, n) `tau` from it
    only when that is read.

    The uniforms come in blocks of `chunk` iterations, one (chunk, p, ants,
    2) draw within `gtsp.instance.BLOCK_BYTES` (a single iteration's if that
    alone exceeds it) and of at most `max_iterations` iterations when that is
    set; `BLOCK_BYTES` is read at the first `next`. A block holds exactly what
    `chunk` successive (p, ants, 2) draws would, so its size changes no
    trajectory.
    """
    rng = np.random.default_rng(params.seed)
    l_nn, incumbent = nn_reference_cost(instance)
    n, p, ants = instance.n, instance.p, params.num_ants
    beta, q0, rho, variant = params.beta, params.q0, params.rho, params.variant
    tau0, tau_max = _trail_bounds(n, l_nn, rho)
    # the trail store: each pair a < b once, at off[a] + b, on a symmetric
    # instance; each edge (a, b) at a * n + b on an asymmetric one
    off = _pair_offsets(n).tolist() if instance.costs.symmetric else None
    tau = np.full(n * n if off is None else n * (n - 1) // 2, tau0)
    cost = instance.costs.cost
    visibility, seeded = _visibility_lookup(cost, beta, instance.max_cost, tau0)
    # weight[a, b] == trail (a, b) * visibility^beta after every write below
    weight = seeded(...)
    cluster_of = instance.cluster_of
    sizes = np.array([len(c) for c in instance.clusters])
    grouped = np.concatenate(instance.cluster_arrays)  # node ids cluster by cluster
    offsets = np.cumsum(sizes) - sizes
    # members[c]: the nodes of cluster c, padded to the largest cluster's
    # size by repeating its first node
    col = np.arange(sizes.max())
    members = grouped[offsets[:, None] + np.where(col < sizes[:, None], col, 0)]
    tau_flat, weight_flat = memoryview(tau), memoryview(weight.ravel())
    mask = np.empty((ants, n))  # 1.0 on the nodes of each ant's unvisited clusters, else 0.0
    mask_flat = mask.ravel()
    ant_rows = np.arange(ants)[:, None] * n  # flat index of each ant's row of `mask`
    path = np.empty((p, ants), dtype=np.int64)  # path[s] holds every ant's node s
    successor = np.roll(np.arange(p), -1)
    keep = 1.0 - rho
    chunk = per_block(p * ants * 16)  # iterations per draw block
    if params.max_iterations is not None:
        chunk = max(1, min(chunk, params.max_iterations))
    step_rows = np.arange(chunk * (p - 1) + 1)

    def write(a: list[int], b: list[int], add: float) -> float:
        """Relax the trails of the edges (a[k], b[k]) and their weights one
        by one, in order. Returns the largest trail written."""
        return _relax(tau_flat, weight_flat, a, b, n, off, visibility, keep, add)

    def rescue(rows: np.ndarray) -> np.ndarray:
        """`_relative_weights` of the selected rows at the current step."""
        nodes = cur[rows]
        return _relative_weights(cost[nodes], _store_rows(tau, nodes, n, tau0), mask[rows],
                                 beta)

    cycle = list(incumbent.nodes)  # the incumbent's nodes, in tour order
    cycle_next = cycle[1:] + cycle[:1]  # each one's successor, closing edge too
    while True:
        # draws[k, 0] gives each ant's start cluster and member in the block's
        # iteration k, draws[k, s] its q and r at step s; u * k < k for a
        # uniform u < 1 and an integer k
        draws = rng.random((chunk, p, ants, 2))
        start_cluster = (draws[:, 0, :, 0] * p).astype(np.int64)
        starts = grouped[offsets[start_cluster]
                         + (draws[:, 0, :, 1] * sizes[start_cluster]).astype(np.int64)]
        # row k * (p - 1) + s - 1 of `explore` marks the ants that explore
        # (q > q0) at step s of iteration k; they are
        # roulette[bounds[row]:bounds[row + 1]], with their r at the same
        # positions of r_all
        explore = draws[:, 1:, :, 0] > q0
        r_all = draws[:, 1:, :, 1][explore]
        del draws  # freed before the index arrays are made
        row_of, roulette = explore.reshape(-1, ants).nonzero()
        bounds = np.searchsorted(row_of, step_rows).tolist()
        del row_of
        start_lists = starts.tolist()
        for k in range(chunk):
            local_add = rho * _local_deposit(variant, n, incumbent.cost, tau0)
            mask.fill(1.0)
            path[0] = cur = starts[k]
            a = first = start_lists[k]
            top = 0.0  # the largest trail this iteration writes
            step_bounds = bounds[k * (p - 1):(k + 1) * (p - 1) + 1]
            for s, lo, hi in zip(range(1, p), step_bounds, step_bounds[1:]):
                # mask the cluster each ant is in: its start, then the one it entered last
                mask_flat[ant_rows + members.take(cluster_of.take(cur), axis=0)] = 0.0
                w = weight.take(cur, axis=0)
                w *= mask
                nxt = _pick_rows(w, roulette[lo:hi], r_all[lo:hi], rescue)
                b = nxt.tolist()
                top = max(top, write(a, b, local_add))
                path[s] = cur = nxt
                a = b
            top = max(top, write(a, first, local_add))
            lengths = cost[path, path[successor]].sum(axis=0)

            best = int(lengths.argmin())  # ties keep the first ant
            if lengths[best] < incumbent.cost:
                incumbent = make_tour(instance, path[:, best])
                cycle = list(incumbent.nodes)
                cycle_next = cycle[1:] + cycle[:1]
            top = max(top, write(cycle, cycle_next, rho * _global_deposit(incumbent.cost)))
            # tau0 < tau_max, so every trail is <= tau_max after a reinit and only
            # a write above tau_max can give the next one something to reset
            reset = None
            if top > tau_max:
                # the (n, n) mask of the reset trails, both orientations of a
                # pair alike, whose weights are reseeded
                reset = _store_rows(evaporation_reinit(tau, tau0, tau_max), range(n), n, False)
                weight[reset] = seeded(reset)
            yield Iteration(path, lengths, tau, tau0, tau_max, reset, incumbent, n)
