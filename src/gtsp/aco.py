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

`run` builds every ant's tour in one flat loop over one reused node mask, and
it is the one home of the ant step: `_pick` chooses the next node and `_relax`
writes the trail. The mask already makes each tour feasible, so `run` sums an
ant's cost edge by edge as it builds the tour, and only a tour that becomes
the new incumbent goes through `make_tour` (validated and re-costed).
Pheromone scales use max(L, 1), so zero-cost tours do not divide by zero.

`run` keeps a weight matrix, trail times visibility^beta, next to the trails
and rewrites an entry at every trail write, so an ant step gathers its
candidate weights from one row. Visibility^beta comes from a table indexed by
integer cost value; only instances whose largest cost reaches n^2 keep an
n x n visibility matrix instead. Every trail write, local or global, goes
through one relaxation (`_relax`). Trails change only through these writes, so
`run` calls `evaporation_reinit` only in an iteration where some write went
above tau_max, and refreshes the weights of the entries it reset.

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
    cost_item = cost.item
    beta, q0, rho, variant = params.beta, params.q0, params.rho, params.variant
    eta_at, eta_where = _visibility_lookup(cost, beta)
    # weight[i, j] == tau[i, j] * eta_at(i, j) after every write below
    weight = eta_where(...) * tau0
    symmetric = instance.costs.symmetric
    members = instance.cluster_arrays
    cluster_of = instance.cluster_of.tolist()
    rand = rng.random
    n, p = instance.n, instance.p
    mask = np.empty(n, dtype=bool)  # one ant's unvisited-cluster nodes, refilled per ant
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
        best_cost: int | None = None
        for _ in range(params.num_ants):
            cluster = int(rng.integers(p))
            start = int(members[cluster][rng.integers(len(members[cluster]))])
            mask.fill(True)
            mask[members[cluster]] = False
            path = [start]
            cur = start
            length = 0
            for _ in range(p - 1):
                cand = mask.nonzero()[0]
                nxt = _pick(
                    weight[cur].take(cand), cand, q0, rand,
                    lambda: _relative_weights(cost[cur], tau[cur], cand, beta),
                )
                above_max |= write(cur, nxt, local_add)
                length += cost_item(cur, nxt)
                mask[members[cluster_of[nxt]]] = False
                path.append(nxt)
                cur = nxt
            above_max |= write(cur, start, local_add)
            length += cost_item(cur, start)
            if best_cost is None or length < best_cost:  # ties keep the first ant
                best_cost, best_path = length, path
            if iteration_observer is not None:
                ant_tours.append(Tour(tuple(path), length))

        if best_cost < incumbent.cost:
            incumbent = make_tour(instance, best_path)
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
