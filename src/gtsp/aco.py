"""Ant colony engines for the GTSP: the classic ant colony system (ACS) and a
reinforcing variant (RACS).

Both engines share the same tour construction: each ant starts on a random
node of a random cluster, repeatedly picks a node from an unvisited cluster
(greedy argmax below the exploitation threshold q0, otherwise a roulette draw
proportional to trail times visibility^beta), and closes the cycle. A boolean
mask over the nodes of still unvisited clusters keeps tours feasible. They
differ in the per-transition trail correction: ACS relaxes toward the initial
trail tau0, RACS toward 1/(n * L+), where L+ is the best cost seen so far.
Once per iteration the best-so-far tour's edges are reinforced with deposit
1/L+, and any trail that climbed above tau_max is re-initialized to tau0.

`run` builds every ant's tour in one flat loop over a node mask; the public
`AntState`/`choose_next`/`transition_distribution` describe single steps and
share the pick rule (`_pick`) with it, so both follow the same draws.
Pheromone scales use max(L, 1), so zero-cost tours do not divide by zero.

`run` keeps a weight matrix, trail times visibility^beta, next to the trails
and rewrites an entry at every trail write, so an ant step gathers its
candidate weights from one row. Visibility^beta comes from a table indexed by
integer cost value; only instances whose largest cost reaches n^2 keep an
n x n visibility matrix instead. Every trail write, in `run` and in the public
`local_update`/`global_update`, goes through one relaxation (`_relax`). Trails
change only through these writes, so `run` calls `evaporation_reinit` only in
an iteration where some write went above tau_max, and refreshes the weights of
the entries it reset.

A single run is sequential and deterministic given its seed. Independent runs
share instances read-only and may execute in parallel.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .construct import Tour, make_tour, nn_reference_cost
from .instance import GtspInstance

VARIANTS = ("acs", "racs")


@dataclass
class AcoParams:
    """Colony parameters, and the one home of their defaults (the CLI flags
    and `gtsp.bench.ExperimentConfig` read them from here). Defaults follow
    the benchmark setup: beta=5, rho=0.5, q0=0.5, ten ants.

    `time_max` (seconds) is checked only between iterations: a run stops at
    the first iteration boundary at or after it, so it overruns by up to one
    iteration. A zero budget is allowed and returns the NN incumbent.
    """

    beta: float = 5.0
    rho: float = 0.5
    q0: float = 0.5
    num_ants: int = 10
    time_max: float | None = None
    max_iterations: int | None = None
    seed: int = 0
    variant: str = "racs"

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ValueError(f"q0 must lie in [0, 1], got {self.q0}")
        if not 0.0 <= self.beta < np.inf:  # NaN fails every comparison
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.num_ants < 1:
            raise ValueError(f"num_ants must be >= 1, got {self.num_ants}")
        if self.time_max is not None and not self.time_max >= 0.0:
            raise ValueError(f"time_max must be >= 0 seconds, got {self.time_max}")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        self.variant = self.variant.lower()
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    def to_dict(self) -> dict:
        return asdict(self)


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
class AntState:
    """One ant's partial tour; `node_mask` marks the nodes of the clusters it
    has not visited yet."""

    current: int
    path: list[int]
    rng_stream: np.random.Generator
    node_mask: np.ndarray

    @classmethod
    def place(cls, instance: GtspInstance, start: int, rng: np.random.Generator) -> "AntState":
        k = int(instance.cluster_of[start])
        mask = np.ones(instance.n, dtype=bool)
        mask[instance.cluster_arrays[k]] = False
        return cls(current=start, path=[start], rng_stream=rng, node_mask=mask)

    def advance(self, instance: GtspInstance, node: int) -> None:
        self.node_mask[instance.cluster_arrays[instance.cluster_of[node]]] = False
        self.path.append(node)
        self.current = node


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


def _visibility_lookup(cost: np.ndarray, beta: float):
    """Visibility^beta of the edges of `cost` as `(at, where)`: `at(i, j)`
    gives one edge's value as a float, `where(mask)` the values of the edges a
    bool mask (or `...`) selects, equal to `_visibility_pow(cost, beta)[mask]`.

    The values come from a table over the integer cost values 0..max cost, so
    no n x n matrix is built. A table longer than n^2 would outgrow the matrix
    (and could exhaust memory at costs like 2^40); only in that case the n x n
    matrix is computed directly.
    """
    n = cost.shape[0]
    max_cost = int(cost.max())
    if max_cost + 1 <= n * n:
        table = _visibility_pow(np.arange(max_cost + 1), beta)
        table_item, cost_item = table.item, cost.item
        return (lambda i, j: table_item(cost_item(i, j))), (lambda mask: table[cost[mask]])
    eta = _visibility_pow(cost, beta)
    return eta.item, eta.__getitem__


def _candidate_weights(
    instance: GtspInstance,
    pheromone: PheromoneMatrix,
    current: int,
    cand: np.ndarray,
    beta: float,
) -> np.ndarray:
    vis = _visibility_pow(instance.costs.cost[current, cand], beta)
    return pheromone.tau[current, cand] * vis


def _relative_weights(
    cost_row: np.ndarray, tau_row: np.ndarray, cand: np.ndarray, beta: float
) -> np.ndarray:
    """Trail times (c_min/c)^beta over the candidates, c_min the cheapest
    candidate edge. That edge has visibility 1, so unlike (1/c)^beta these
    weights cannot all underflow to 0 at large beta."""
    c = np.maximum(cost_row[cand], 1)
    return tau_row[cand] * (c.min() / c) ** beta


def _probabilities(w: np.ndarray, relative) -> np.ndarray:
    """w / w.sum(); when every weight underflowed to 0, the same over the
    weights `relative()` returns (`_relative_weights` of the step)."""
    total = w.sum()
    if total == 0.0:
        w = relative()
        total = w.sum()
    return w / total


def _pick(w: np.ndarray, cand: np.ndarray, q0: float, rand, relative) -> int:
    """The node choice rule over candidates `cand` (ascending) with weights `w`.

    Draws one uniform q from `rand`; if q <= q0 the argmax of `w` wins (ties to
    the lowest node id), otherwise a second uniform samples `_probabilities`
    by inverse CDF. When every weight underflowed to 0, both branches use
    `relative()` instead of `w`; the draws stay the same.
    """
    if rand() <= q0:
        i = w.argmax()
        if w[i] == 0.0:
            i = relative().argmax()
        return int(cand[i])
    probs = _probabilities(w, relative)
    idx = int(probs.cumsum().searchsorted(rand(), side="left"))
    return int(cand[min(idx, cand.size - 1)])


def transition_distribution(
    state: AntState,
    pheromone: PheromoneMatrix,
    instance: GtspInstance,
    beta: float,
) -> dict[int, float]:
    """Selection probabilities over all nodes of all unvisited clusters:
    p(u) proportional to tau(i,u) * (1/c(i,u))^beta, or to
    tau(i,u) * (c_min/c(i,u))^beta when every such weight underflows to 0."""
    cand = state.node_mask.nonzero()[0]
    if cand.size == 0:
        raise RuntimeError("no candidates: every cluster already visited")
    i = state.current
    probs = _probabilities(
        _candidate_weights(instance, pheromone, i, cand, beta),
        lambda: _relative_weights(instance.costs.cost[i], pheromone.tau[i], cand, beta),
    )
    return {int(u): float(pr) for u, pr in zip(cand, probs)}


def choose_next(
    state: AntState,
    pheromone: PheromoneMatrix,
    instance: GtspInstance,
    params: AcoParams,
) -> int:
    """Pick the ant's next node.

    Draws one uniform q; if q <= q0 the argmax of trail times visibility^beta
    wins (ties to the lowest node id), otherwise a second uniform samples the
    transition distribution by inverse CDF over candidates in ascending node
    order. The fixed draw discipline keeps runs replayable; `run` applies the
    same rule through `_pick`.
    """
    cand = state.node_mask.nonzero()[0]
    if cand.size == 0:
        raise RuntimeError("no candidates: every cluster already visited")
    i = state.current
    w = _candidate_weights(instance, pheromone, i, cand, params.beta)
    return _pick(
        w, cand, params.q0, state.rng_stream.random,
        lambda: _relative_weights(instance.costs.cost[i], pheromone.tau[i], cand, params.beta),
    )


def _local_deposit(variant: str, n: int, l_plus: int, tau0: float) -> float:
    """What a local update relaxes toward: 1/(n * L+) for RACS, tau0 for ACS."""
    return 1.0 / (n * max(l_plus, 1)) if variant == "racs" else tau0


def _global_deposit(best_cost: int) -> float:
    """What the global update relaxes the best tour's edges toward: 1/L+."""
    return 1.0 / max(best_cost, 1)


def _relax(tau: np.ndarray, i: int, j: int, keep: float, add: float, symmetric: bool) -> float:
    """The trail write tau[i, j] <- keep * tau[i, j] + add, with keep = 1 - rho
    and add = rho * deposit, mirrored to tau[j, i] on symmetric instances.
    Returns the new value."""
    t = keep * tau.item(i, j) + add
    tau[i, j] = t
    if symmetric:
        tau[j, i] = t
    return t


def local_update(
    pheromone: PheromoneMatrix,
    edge: tuple[int, int],
    rho: float,
    l_plus: int,
    n: int,
    variant: str = "racs",
    symmetric: bool = True,
) -> None:
    """Per-transition trail correction on a traversed edge.

    RACS relaxes toward 1/(n * L+) with L+ the best-so-far cost; the ACS
    baseline relaxes toward tau0. Symmetric instances mirror the update.
    """
    deposit = _local_deposit(variant, n, l_plus, pheromone.tau0)
    i, j = edge
    _relax(pheromone.tau, i, j, 1.0 - rho, rho * deposit, symmetric)


def global_update(
    pheromone: PheromoneMatrix,
    best: Tour,
    rho: float,
    symmetric: bool = True,
) -> None:
    """Once per iteration, reinforce every edge of the best tour (closing edge
    included) with deposit 1/max(cost(best), 1). Other edges are untouched."""
    keep, add = 1.0 - rho, rho * _global_deposit(best.cost)
    nodes = best.nodes
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        _relax(pheromone.tau, a, b, keep, add, symmetric)


def evaporation_reinit(pheromone: PheromoneMatrix) -> np.ndarray:
    """Reset trails that climbed strictly above tau_max back to tau0; other
    entries keep their value. Runs right after the global update. Returns the
    bool mask of the entries it reset."""
    reset = pheromone.tau > pheromone.tau_max
    pheromone.tau[reset] = pheromone.tau0
    return reset


@dataclass
class RunResult:
    """Outcome of one colony run, serializable for the benchmark tables."""

    best: Tour
    iterations: int
    elapsed: float
    params: AcoParams
    trace: list[int] = field(default_factory=list)  # best-so-far cost per iteration

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "tour": self.best.to_dict(),
            "cost": self.best.cost,
            "iterations": self.iterations,
            "params": self.params.to_dict(),
            "seed": self.params.seed,
            "trace": list(self.trace),
        }
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
    eta_at, eta_where = _visibility_lookup(cost, beta)
    # weight[i, j] == tau[i, j] * eta_at(i, j) after every write below
    weight = eta_where(...) * tau0
    symmetric = instance.costs.symmetric
    members = instance.cluster_arrays
    cluster_of = instance.cluster_of.tolist()
    rand = rng.random
    n, p = instance.n, instance.p
    keep = 1.0 - rho

    def write(i: int, j: int, add: float) -> bool:
        """Relax trail (i, j) and its weight; True if it went above tau_max."""
        t = _relax(tau, i, j, keep, add, symmetric)
        weight[i, j] = w = t * eta_at(i, j)
        if symmetric:
            weight[j, i] = w
        return t > tau_max

    trace: list[int] = []
    iteration = 0
    while True:
        if params.max_iterations is not None and iteration >= params.max_iterations:
            break
        if params.time_max is not None and time.perf_counter() - started >= params.time_max:
            break
        iteration += 1

        local_add = rho * _local_deposit(variant, n, incumbent.cost, tau0)
        above_max = False
        ant_tours: list[Tour] = []
        for _ in range(params.num_ants):
            # the same steps and draws as AntState.place, choose_next and
            # AntState.advance, without the per-ant objects
            cluster = int(rng.integers(p))
            start = int(members[cluster][rng.integers(len(members[cluster]))])
            mask = np.ones(n, dtype=bool)
            mask[members[cluster]] = False
            path = [start]
            cur = start
            for _ in range(p - 1):
                cand = mask.nonzero()[0]
                nxt = _pick(
                    weight[cur].take(cand), cand, q0, rand,
                    lambda: _relative_weights(cost[cur], tau[cur], cand, beta),
                )
                above_max |= write(cur, nxt, local_add)
                mask[members[cluster_of[nxt]]] = False
                path.append(nxt)
                cur = nxt
            above_max |= write(cur, start, local_add)
            ant_tours.append(make_tour(instance, path))

        iteration_best = min(ant_tours, key=lambda t: t.cost)
        if iteration_best.cost < incumbent.cost:
            incumbent = iteration_best
        global_add = rho * _global_deposit(incumbent.cost)
        nodes = incumbent.nodes
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            above_max |= write(a, b, global_add)
        # tau0 < tau_max, so every trail is <= tau_max after a reinit and only
        # a write above tau_max can give the next one something to reset
        if above_max:
            reset = evaporation_reinit(pheromone)
            weight[reset] = tau0 * eta_where(reset)
        trace.append(incumbent.cost)

        if iteration_observer is not None:
            state_snapshot = ColonyState(
                pheromone=pheromone,
                best_tour=incumbent,
                iteration=iteration,
                elapsed=time.perf_counter() - started,
            )
            iteration_observer(state_snapshot, ant_tours)

    return RunResult(
        best=incumbent,
        iterations=iteration,
        elapsed=time.perf_counter() - started,
        params=replace(params),
        trace=trace,
    )
