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

`run` is the one construction loop. Each iteration draws one (p, ants, 2)
block of uniforms: row 0 gives each ant its start cluster and then its member
of that cluster (a uniform u picks index floor(u * k) of k), row s its q and
its r at step s; r is drawn whether or not the pick uses it. From the block
`run` lists once per iteration, step by step, the ants that explore (q > q0)
and their r. An (ants, n) mask holds 1.0 on the nodes of each ant's unvisited
clusters: it is refilled once per iteration, and each step zeroes only the
members of the cluster each ant entered last, through a (p, largest cluster)
table of cluster members. A step gathers the ants' rows of the weight matrix
as one (ants, n) block, multiplies it by the mask, and `_pick_rows` picks
every row at once: it takes the argmax of every row, and only for the
exploring rows the running sums, to pick the first node whose running sum
exceeds r times the row total. A row whose weights all underflowed to 0 is
first rescued with `_relative_weights`. Then `_relax` writes the step's trails
at once; an edge k ants wrote in the step (an unordered edge, on symmetric
instances) is relaxed k times in a row, as writes in ant order would.
`tests/oracles.py::lockstep_run` is the same colony in plain per-ant loops,
and `run` reproduces it byte for byte. The masks make each tour feasible, so
only a tour that becomes the new incumbent goes through `make_tour`
(validated and re-costed). Pheromone scales use max(L, 1), so zero-cost tours
do not divide by zero.

`run` keeps a weight matrix, trail times visibility^beta, next to the trails
and rewrites an entry at every trail write, so a step gathers each ant's
weights from one row. Visibility^beta comes from a table indexed by integer
cost value, and the weights start as that table times tau0, gathered in row
blocks with no n x n temporary; only instances whose largest cost reaches
n^2 keep an n x n visibility matrix instead. Every trail write, local or
global, goes through one relaxation (`_relax`). Trails change only through these writes, so `run`
calls `evaporation_reinit` only in an iteration where some write went above
tau_max, and refreshes the weights of the entries it reset.

A single run is sequential and deterministic given its seed. Independent runs
share instances read-only and may execute in parallel.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import MISSING, Field, asdict, dataclass, field, fields, replace
from types import UnionType
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

from .construct import Tour, make_tour, nn_reference_cost
from .instance import GtspInstance

VARIANTS = ("acs", "racs")


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
    `bound` (a choice lowercased, a list copied); otherwise raise a ValueError
    that names `name`.

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
    if kind is float and not bound[1](value):
        raise ValueError(f"{name} must {bound[0]}, got {value}")
    return value


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


@dataclass
class PheromoneMatrix:
    """Per-edge trail intensities with their initial value and upper bound."""

    tau: np.ndarray  # shape (n, n), float64
    tau0: float
    tau_max: float

    @classmethod
    def for_instance(cls, instance: GtspInstance, l_nn: int, rho: float) -> "PheromoneMatrix":
        n = instance.n
        scale = max(l_nn, 1)  # a zero-cost NN tour keeps a finite scale
        tau0 = 1.0 / (n * scale)
        tau_max = 1.0 / ((1.0 - rho) * scale)
        return cls(tau=np.full((n, n), tau0), tau0=tau0, tau_max=tau_max)


@dataclass
class ColonyState:
    """Snapshot passed to iteration observers."""

    pheromone: PheromoneMatrix
    best_tour: Tour
    iteration: int
    elapsed: float


def _visibility_pow(cost: np.ndarray, beta: float) -> np.ndarray:
    """Visibility^beta, (1/c)^beta, of the given edge costs; zero-cost edges
    clamp to 1."""
    return (1.0 / np.maximum(cost, 1)) ** beta


# Cells per row block of the gather that seeds `run`'s weights: its index and
# output buffers stay near 512 KiB each whatever n is.
_GATHER_CELLS = 1 << 16


def _visibility_lookup(cost: np.ndarray, beta: float, max_cost: int, scale: float = 1.0):
    """Visibility^beta of the edges of `cost`, whose largest entry is
    `max_cost`, as `(at, where)`: `at(e)` gives the values of the edges at
    flat indices `e` (i * n + j), equal to the entries of
    `_visibility_pow(cost, beta)`; `where(mask)` gives `scale` times those of
    the edges a bool mask (or `...`) selects, each the float64 product of the
    two.

    The values come from a table over the integer cost values 0..max cost
    (and one pre-multiplied by `scale`), so no n x n matrix is built:
    `where(...)` gathers its result row block by row block, with
    block-sized temporaries only. A table longer than n^2 would outgrow the
    matrix (and could exhaust memory at costs like 2^40); only in that case
    the n x n matrix is computed directly.
    """
    n = cost.shape[0]
    if max_cost + 1 <= n * n:
        table = _visibility_pow(np.arange(max_cost + 1), beta)
        scaled = table * scale
        flat = cost.ravel()

        def where(mask):
            if mask is not ...:
                return scaled[cost[mask]]
            out = np.empty((n, n))
            rows = max(1, _GATHER_CELLS // n)
            for lo in range(0, n, rows):
                # every cost lies in 0..max_cost, so "clip" moves no index;
                # unlike "raise" it writes into `out` without a buffer
                np.take(scaled, cost[lo:lo + rows], out=out[lo:lo + rows], mode="clip")
            return out

        # numpy indexes with a narrower index array more slowly than it casts
        # the few costs of a write to intp
        return (lambda e: table[flat[e].astype(np.intp, copy=False)]), where
    eta = _visibility_pow(cost, beta)
    return eta.ravel().__getitem__, (lambda mask: eta[mask] * scale)


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


def _pick_rows(w: np.ndarray, roulette: np.ndarray, r: np.ndarray, relative) -> np.ndarray:
    """The node choice rule for every row of the weight block `w` (rows, n),
    whose masked (visited) entries are 0.0; all-zero rows are rescued first
    (`_argmax_rows`).

    Each row listed in `roulette` (an ant whose q > q0), with its draw r in
    [0, 1) at the same position of `r`, takes the first node whose running
    sum exceeds r times the row total: the roulette by inverse CDF over the
    unvisited nodes in id order. Only these rows are summed. Every other row
    takes its argmax. A masked 0.0 adds exactly, so that is the node a running
    sum over the unvisited nodes alone gives. The bar is kept below the total,
    which it reaches only when a subnormal total rounds r times itself up, so
    both rules pick a node of positive weight: never a masked one and never an
    index past the row.
    """
    picks = _argmax_rows(w, relative)
    if len(roulette):
        c = w.take(roulette, axis=0).cumsum(axis=1)
        total = c[:, -1]
        bar = np.minimum(r * total, np.nextafter(total, 0.0))
        picks[roulette] = (c > bar[:, None]).argmax(axis=1)
    return picks


def _local_deposit(variant: str, n: int, l_plus: int, tau0: float) -> float:
    """What a local update relaxes toward: 1/(n * L+) for RACS, tau0 for ACS."""
    return 1.0 / (n * max(l_plus, 1)) if variant == "racs" else tau0


def _global_deposit(best_cost: int) -> float:
    """What the global update relaxes the best tour's edges toward: 1/L+."""
    return 1.0 / max(best_cost, 1)


def _repeats(keys: np.ndarray) -> tuple[list[int], list[int]] | None:
    """For each distinct value of `keys`, the position of its first
    occurrence and how often it occurs; None when no value repeats."""
    seen = keys.tolist()
    first, times = {}, {}
    for k, key in enumerate(seen):
        if key in times:
            times[key] += 1
        else:
            first[key] = k
            times[key] = 1
    if len(times) == len(seen):
        return None
    return list(first.values()), list(times.values())


def _relax(
    tau: np.ndarray, edges: np.ndarray, mirrors: np.ndarray | None, keep: float, add: float,
    times: list[int] | None = None,
) -> np.ndarray:
    """The trail writes tau[e] <- keep * tau[e] + add on the flattened trail
    matrix, for the flat edge indices `edges`, the k-th of them `times[k]`
    times in a row (once each when `times` is None), with keep = 1 - rho and
    add = rho * deposit. On symmetric instances each new value is mirrored to
    the flat index in `mirrors`. No edge may occur twice in `edges` (no
    unordered edge on symmetric instances), so the edges are independent.
    Returns the new values. The repeats run on Python floats, whose arithmetic
    is numpy's float64 arithmetic, so they equal writes made one by one."""
    t = keep * tau[edges] + add
    if times is not None:
        for k, count in enumerate(times):
            if count > 1:
                value = float(t[k])
                for _ in range(count - 1):
                    value = keep * value + add
                t[k] = value
    tau[edges] = t
    if mirrors is not None:
        tau[mirrors] = t
    return t


def evaporation_reinit(pheromone: PheromoneMatrix) -> np.ndarray:
    """Reset trails that climbed strictly above tau_max back to tau0; other
    entries keep their value. Runs right after the global update. Returns the
    bool mask of the entries it reset."""
    reset = pheromone.tau > pheromone.tau_max
    pheromone.tau[reset] = pheromone.tau0
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


IterationObserver = Callable[[ColonyState, list[Tour]], None]


def run(
    instance: GtspInstance,
    params: AcoParams,
    iteration_observer: IterationObserver | None = None,
) -> RunResult:
    """Run a full colony on `instance` until time_max or max_iterations.

    The incumbent starts as the nearest-neighbor reference tour, so the
    returned cost never exceeds it and the per-iteration trace is
    non-increasing. Deterministic given the seed when max_iterations is the
    stopping rule.
    """
    if params.time_max is None and params.max_iterations is None:
        raise ValueError("need a stopping rule: set time_max and/or max_iterations")
    instance.check_tour_sums()

    started = time.perf_counter()
    rng = np.random.default_rng(params.seed)
    l_nn, incumbent = nn_reference_cost(instance)
    pheromone = PheromoneMatrix.for_instance(instance, l_nn, params.rho)
    tau, tau0, tau_max = pheromone.tau, pheromone.tau0, pheromone.tau_max
    cost = instance.costs.cost
    beta, q0, rho, variant = params.beta, params.q0, params.rho, params.variant
    eta_at, seeded = _visibility_lookup(cost, beta, instance.max_cost, tau0)
    # weight == tau * visibility^beta, entry by entry, after every write below
    weight = seeded(...)
    symmetric = instance.costs.symmetric
    cluster_of = instance.cluster_of
    sizes = np.array([len(c) for c in instance.clusters])
    grouped = np.concatenate(instance.cluster_arrays)  # node ids cluster by cluster
    offsets = np.cumsum(sizes) - sizes
    # members[c]: the nodes of cluster c, padded to the largest cluster's
    # size by repeating its first node
    col = np.arange(sizes.max())
    members = grouped[offsets[:, None] + np.where(col < sizes[:, None], col, 0)]
    n, p, ants = instance.n, instance.p, params.num_ants
    tau_flat, weight_flat = tau.ravel(), weight.ravel()
    mask = np.empty((ants, n))  # 1.0 on the nodes of each ant's unvisited clusters, else 0.0
    mask_flat = mask.ravel()
    ant_rows = np.arange(ants)[:, None] * n  # flat index of each ant's row of `mask`
    path = np.empty((p, ants), dtype=np.int64)  # path[s] holds every ant's node s
    steps = np.arange(p)
    successor = np.roll(steps, -1)
    keep = 1.0 - rho
    above_max = False  # some write of this iteration went above tau_max

    def write(e: np.ndarray, m: np.ndarray | None, add: float) -> None:
        """Relax the trails at flat edge indices `e` (mirrors `m`, on
        symmetric instances) and their weights as if one by one in order. An
        edge written k times is relaxed k times in a row; the order of
        distinct edges does not matter."""
        nonlocal above_max
        times = None
        repeats = _repeats(e if m is None else np.minimum(e, m))
        if repeats is not None:
            first, times = repeats
            e, m = e[first], None if m is None else m[first]
        t = _relax(tau_flat, e, m, keep, add, times)
        weight_flat[e] = w = t * eta_at(e)
        if m is not None:
            weight_flat[m] = w
        # Some write went above tau_max iff some value of t did: until the
        # flag is set every trail is at or below tau_max, the k writes of a
        # repeated edge move monotonically (the last is the largest if any
        # rose), and keep * v + add rounds monotonically in v, so no write of
        # a call whose keep * tau_max + add is at most tau_max goes above it.
        if not above_max and keep * tau_max + add > tau_max:
            above_max = bool((t > tau_max).any())

    def rescue(rows: np.ndarray) -> np.ndarray:
        """`_relative_weights` of the selected rows at the current step."""
        return _relative_weights(cost[cur[rows]], tau[cur[rows]], mask[rows], beta)

    def edges(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Flat indices of the edges (i[k], j[k]) and, on symmetric
        instances, of their mirrors."""
        return i * n + j, (j * n + i if symmetric else None)

    nodes = np.array(incumbent.nodes)
    incumbent_edges = edges(nodes, nodes[successor])  # its cycle, closing edge included
    trace: list[int] = []
    iteration = 0
    while True:
        if params.max_iterations is not None and iteration >= params.max_iterations:
            break
        if params.time_max is not None and time.perf_counter() - started >= params.time_max:
            break
        iteration += 1

        local_add = rho * _local_deposit(variant, n, incumbent.cost, tau0)
        # draws[0] gives each ant's start cluster and member, draws[s] its q
        # and r at step s; u * k < k for a uniform u < 1 and an integer k
        draws = rng.random((p, ants, 2))
        start_cluster = (draws[0, :, 0] * p).astype(np.int64)
        start = grouped[offsets[start_cluster]
                        + (draws[0, :, 1] * sizes[start_cluster]).astype(np.int64)]
        # the ants that explore (q > q0) at step s are roulette[bounds[s - 1]:bounds[s]],
        # with their r at the same positions of r_all
        explore = draws[1:, :, 0] > q0
        step_of, roulette = explore.nonzero()
        r_all = draws[1:, :, 1][explore]
        bounds = np.searchsorted(step_of, steps).tolist()
        mask.fill(1.0)
        path[0] = cur = start
        cur_n = cur * n
        above_max = False
        for s, lo, hi in zip(range(1, p), bounds, bounds[1:]):
            # mask the cluster each ant is in: its start, then the one it entered last
            mask_flat[ant_rows + members.take(cluster_of.take(cur), axis=0)] = 0.0
            w = weight.take(cur, axis=0)
            w *= mask
            nxt = _pick_rows(w, roulette[lo:hi], r_all[lo:hi], rescue)
            nxt_n = nxt * n  # edges(cur, nxt), with cur * n kept from the last step
            write(cur_n + nxt, nxt_n + cur if symmetric else None, local_add)
            path[s] = cur = nxt
            cur_n = nxt_n
        write(*edges(cur, start), local_add)
        lengths = cost[path, path[successor]].sum(axis=0)

        best = int(lengths.argmin())  # ties keep the first ant
        if lengths[best] < incumbent.cost:
            incumbent = make_tour(instance, path[:, best])
            incumbent_edges = edges(path[:, best], path[successor, best])
        write(*incumbent_edges, rho * _global_deposit(incumbent.cost))
        # tau0 < tau_max, so every trail is <= tau_max after a reinit and only
        # a write above tau_max can give the next one something to reset
        if above_max:
            reset = evaporation_reinit(pheromone)
            weight[reset] = seeded(reset)
        trace.append(incumbent.cost)

        if iteration_observer is not None:
            state_snapshot = ColonyState(
                pheromone=pheromone,
                best_tour=incumbent,
                iteration=iteration,
                elapsed=time.perf_counter() - started,
            )
            ant_tours = [Tour(tuple(nodes), length)
                         for nodes, length in zip(path.T.tolist(), lengths.tolist())]
            iteration_observer(state_snapshot, ant_tours)

    return RunResult(
        best=incumbent,
        iterations=iteration,
        elapsed=time.perf_counter() - started,
        params=replace(params),
        trace=trace,
    )
