"""Tours over clustered instances and the generalized nearest-neighbor heuristic.

All functions here are pure over immutable instances and safe to call
concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .instance import GtspInstance


class InvalidTourError(ValueError):
    """A node sequence does not visit every cluster exactly once."""


@dataclass(frozen=True)
class Tour:
    """An ordered one-node-per-cluster cycle and its closed-loop cost."""

    nodes: tuple[int, ...]
    cost: int

    def to_dict(self) -> dict:
        return {"nodes": list(self.nodes), "cost": self.cost}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _checked_sequence(instance: GtspInstance, nodes) -> np.ndarray:
    """`nodes` as an int64 array, after the checks of `validate_tour`."""
    seq = np.asarray(nodes)
    if seq.dtype.kind not in "iu":
        if seq.size:  # an empty list arrives as float64
            raise InvalidTourError(f"node ids must be integers, got {seq.dtype}")
    seq = seq.astype(np.int64, copy=False)
    outside = (seq < 0) | (seq >= instance.n)
    if outside.any():
        raise InvalidTourError(f"node {int(seq[outside.argmax()])} out of range")
    counts = np.bincount(instance.cluster_of[seq], minlength=instance.p)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        k = int(bad[0])
        raise InvalidTourError(f"cluster {k} visited {int(counts[k])} times, expected once")
    return seq


def validate_tour(instance: GtspInstance, nodes) -> None:
    """Raise InvalidTourError naming the first node out of range, else the
    lowest cluster visited more or less than once."""
    _checked_sequence(instance, nodes)


def _closed_cost(instance: GtspInstance, seq: np.ndarray) -> int:
    return int(instance.costs.cost[seq, np.concatenate((seq[1:], seq[:1]))].sum())


def tour_cost(instance: GtspInstance, nodes) -> int:
    """Cost of the closed tour through `nodes`, including the returning edge.

    The sum is taken in int64 and is exact: `GtspInstance` refuses, when it is
    built, an instance whose tour sums may overflow int64.
    """
    return _closed_cost(instance, _checked_sequence(instance, nodes))


def make_tour(instance: GtspInstance, nodes) -> Tour:
    seq = _checked_sequence(instance, nodes)
    return Tour(tuple(seq.tolist()), _closed_cost(instance, seq))


def nn_tour(instance: GtspInstance, start: int) -> Tour:
    """Greedy tour from `start`: repeatedly hop to the cheapest node of any
    unvisited cluster (ties to the lowest node id), then close the cycle."""
    if not 0 <= start < instance.n:
        raise ValueError(f"start node {start} out of range")
    cost = instance.costs.cost
    members = instance.cluster_arrays
    open_nodes = np.ones(instance.n, dtype=bool)
    open_nodes[members[instance.cluster_of[start]]] = False
    path = [start]
    current = start
    for _ in range(instance.p - 1):
        cand = np.flatnonzero(open_nodes)
        nxt = int(cand[np.argmin(cost[current, cand])])
        path.append(nxt)
        open_nodes[members[instance.cluster_of[nxt]]] = False
        current = nxt
    return make_tour(instance, path)


def nn_reference_cost(instance: GtspInstance) -> tuple[int, Tour]:
    """Best nearest-neighbor tour over all starts in the smallest cluster.

    The start cluster is the one of minimum cardinality (ties to the lowest
    cluster index); starts are tried in ascending node id and only strict
    improvements are kept, so the result is deterministic. It depends only on
    the instance, so it is computed once and kept on it, like
    `GtspInstance.cluster_arrays`.
    """
    cached = instance.__dict__.get("_nn_reference")
    if cached is None:
        cached = instance.__dict__["_nn_reference"] = _nn_reference(instance)
    return cached


def _nn_reference(instance: GtspInstance) -> tuple[int, Tour]:
    sizes = [len(c) for c in instance.clusters]
    k = sizes.index(min(sizes))
    best: Tour | None = None
    for start in instance.clusters[k]:
        tour = nn_tour(instance, start)
        if best is None or tour.cost < best.cost:
            best = tour
    assert best is not None
    return best.cost, best
