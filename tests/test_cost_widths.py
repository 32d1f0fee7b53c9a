"""Costs at the limit of each storage width.

`CostMatrix` stores costs in the narrowest of int16, int32 and int64 that
holds the largest one. These tests put the largest cost at and just past
each limit, check that the narrowest type is chosen, and check every solver's
sums against int64 oracles in Python integers. Every cost lies within a
quarter of the largest, so at the limits themselves (2^15 - 1 and 2^31 - 1)
a sum of two costs taken in the storage type would wrap.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from gtsp import (
    AcoParams,
    CostMatrix,
    GtspInstance,
    NodeCoords,
    euc2d_costs,
    exact_solve,
    generate_instance,
    nn_reference_cost,
    run,
    tour_cost,
)
from gtsp.aco import iterate

from oracles import (
    best_tour_for_sequence,
    brute_force_best_for_order,
    brute_force_optimum,
    cycle_cost,
    lockstep_run,
)

# (largest cost, narrowest type that holds it)
LIMITS = [
    (2**15 - 1, np.int16),
    (2**15, np.int32),
    (2**31 - 1, np.int32),
    (2**31, np.int64),
]


def near_limit_instance(top: int, n: int, p: int, seed: int) -> GtspInstance:
    """Symmetric costs in [3/4 top, top] with `top` on edge (0, 1), so any
    two edges sum past `top`; clusters k, k + p, k + 2p, ..."""
    rng = np.random.default_rng(seed)
    cost = np.triu(rng.integers(top - top // 4, top, size=(n, n), endpoint=True), 1)
    cost[0, 1] = top
    cost = cost + cost.T
    clusters = tuple(tuple(range(k, n, p)) for k in range(p))
    return GtspInstance(name="near", costs=CostMatrix(cost), clusters=clusters)


def nn_oracle(instance: GtspInstance) -> tuple[int, tuple[int, ...]]:
    """`nn_reference_cost` in Python integers: from each node of the first
    smallest cluster, in id order, hop to the cheapest node (lowest id on
    ties) of an unvisited cluster; the first cheapest tour wins."""
    cost = instance.costs.cost.tolist()
    owner = instance.cluster_of.tolist()
    sizes = [len(c) for c in instance.clusters]
    best = None
    for start in instance.clusters[sizes.index(min(sizes))]:
        path, seen = [start], {owner[start]}
        while len(path) < instance.p:
            nxt = min((v for v in range(instance.n) if owner[v] not in seen),
                      key=lambda v: (cost[path[-1]][v], v))
            path.append(nxt)
            seen.add(owner[nxt])
        total = sum(cost[a][b] for a, b in zip(path, path[1:] + path[:1]))
        if best is None or total < best[0]:
            best = (total, tuple(path))
    return best


@pytest.mark.parametrize("top, dtype", LIMITS)
class TestAtEachWidthLimit:
    def test_euc2d_picks_the_narrowest_type(self, top, dtype):
        costs = euc2d_costs(NodeCoords(np.array([[0.0, 0.0], [top, 0.0], [0.0, 1.0]])))
        assert costs.cost.dtype == dtype
        assert int(costs.cost[0, 1]) == top

    def test_cost_matrix_picks_the_narrowest_type(self, top, dtype):
        inst = near_limit_instance(top, 9, 3, seed=top % 97)
        assert inst.costs.cost.dtype == dtype
        assert inst.max_cost == top

    def test_cost_matrix_keeps_its_largest_cost(self, top, dtype):
        cost = near_limit_instance(top, 9, 3, seed=top % 79).costs.cost
        for given in (cost, cost.astype(np.int64), cost.astype(np.uint64), cost.astype(float)):
            costs = CostMatrix(given)
            assert costs.cost.dtype == dtype
            assert type(costs.max_cost) is int
            assert costs.max_cost == int(costs.cost.max()) == top

    def test_tour_cost_and_nn_match_the_oracle(self, top, dtype):
        inst = near_limit_instance(top, 12, 4, seed=top % 89)
        cost = inst.costs.cost
        for nodes in itertools.product(*inst.clusters):
            assert tour_cost(inst, nodes) == cycle_cost(cost, nodes)
        l_nn, tour = nn_reference_cost(inst)
        assert (l_nn, tour.nodes) == nn_oracle(inst)

    @pytest.mark.parametrize("p", [2, 3])
    def test_best_tour_for_sequence_matches_the_oracle(self, top, dtype, p):
        inst = near_limit_instance(top, 3 * p, p, seed=top % 83 + p)
        for order in itertools.permutations(range(p)):
            tour = best_tour_for_sequence(inst, order)
            assert tour.cost == brute_force_best_for_order(inst, order)
            assert tour.cost == cycle_cost(inst.costs.cost, tour.nodes)

    def test_exact_solve_matches_the_oracle(self, top, dtype):
        inst = near_limit_instance(top, 10, 4, seed=top % 79)
        tour = exact_solve(inst)
        assert tour.cost == brute_force_optimum(inst)
        assert tour.cost == cycle_cost(inst.costs.cost, tour.nodes)

    # n = 200: below 2^15 the visibility comes from a table over the cost
    # values, above it from an n x n matrix
    @pytest.mark.parametrize("variant", ["acs", "racs"])
    def test_colony_lengths_match_the_oracle(self, top, dtype, variant):
        inst = near_limit_instance(top, 200, 4, seed=top % 73)
        params = AcoParams(variant=variant, num_ants=4, max_iterations=5, seed=top % 71)
        lengths = []
        for it in itertools.islice(iterate(inst, params), 5):
            lengths.extend((length, cycle_cost(inst.costs.cost, tuple(nodes)))
                           for nodes, length in zip(it.paths.T.tolist(), it.lengths.tolist()))
        result = run(inst, params)
        assert len(lengths) == 4 * 5
        assert all(ours == oracle for ours, oracle in lengths)
        reference = lockstep_run(inst, params)[0]
        assert result.to_json(include_elapsed=False) == reference.to_json(include_elapsed=False)


def test_diagonal_past_the_limit_still_stores_the_narrowest_type():
    # the bounding box's diagonal, 42426, needs int32, but no two of these
    # corners of a diamond lie further apart than 30000
    pts = np.array([[15000.0, 0.0], [0.0, 15000.0], [30000.0, 15000.0], [15000.0, 30000.0]])
    costs = euc2d_costs(NodeCoords(pts))
    assert costs.cost.dtype == np.int16
    assert int(costs.cost.max()) == 30000


def test_colony_setup_builds_no_matrix_beyond_trails_and_weights():
    # n = 2000: the weights are 32 MB of float64 and the trails, one float64
    # per node pair of this symmetric instance, 16 MB; the int16 cost matrix
    # is 8 MB, and gathering the weights through it as one index array would
    # add a 32 MB intp temporary
    _, inst = generate_instance(nodes=2000, clusters=400, seed=2)
    assert inst.costs.cost.dtype == np.int16
    nn_reference_cost(inst)  # cached on the instance, so not counted below
    n = inst.n
    tracemalloc.start()
    try:
        next(iterate(inst, AcoParams(seed=1)))  # the set-up, then one iteration
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = 8 * n * n + 8 * (n * (n - 1) // 2)
    assert held <= peak < held + (4 << 20)
