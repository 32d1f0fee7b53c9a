import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gtsp.construct
from gtsp import (
    AcoParams,
    CostMatrix,
    GtspInstance,
    InvalidTourError,
    exact_solve,
    make_tour,
    nn_reference_cost,
    nn_tour,
    run,
    tour_cost,
    validate_tour,
)

from oracles import random_matrix_instance


def square_instance():
    # unit square, one node per cluster, perimeter cost 4
    cost = np.array(
        [[0, 1, 2, 1],
         [1, 0, 1, 2],
         [2, 1, 0, 1],
         [1, 2, 1, 0]]
    )
    return GtspInstance(
        name="square", costs=CostMatrix(cost), clusters=((0,), (1,), (2,), (3,))
    )


class TestTourCost:
    def test_out_and_back(self):
        cost = np.array([[0, 7, 7], [7, 0, 7], [7, 7, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0, 1), (2,)))
        assert tour_cost(inst, [0, 2]) == 14

    def test_square_perimeter(self):
        assert tour_cost(square_instance(), [0, 1, 2, 3]) == 4

    @given(st.integers(0, 2**32 - 1), st.integers(0, 7))
    def test_rotation_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(10, 4, rng)
        tour = nn_tour(inst, 0).nodes
        rotated = tour[shift % len(tour):] + tour[: shift % len(tour)]
        assert tour_cost(inst, rotated) == tour_cost(inst, tour)

    @given(st.integers(0, 2**32 - 1))
    def test_reversal_on_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(9, 3, rng, symmetric=True)
        tour = nn_tour(inst, 0).nodes
        assert tour_cost(inst, tour[::-1]) == tour_cost(inst, tour)

    def test_rejects_missed_cluster(self):
        inst = square_instance()
        with pytest.raises(InvalidTourError, match="cluster 3 visited 0 times"):
            tour_cost(inst, [0, 1, 2])

    def test_rejects_repeated_cluster(self):
        cost = np.zeros((4, 4), dtype=int)
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0, 1), (2,), (3,)))
        with pytest.raises(InvalidTourError, match="cluster 0 visited 2 times"):
            validate_tour(inst, [0, 1, 2])

    def test_out_of_range_reported_before_cluster_counts(self):
        inst = square_instance()
        with pytest.raises(InvalidTourError, match="node 4 out of range"):
            validate_tour(inst, [0, 0, 4, -1])
        with pytest.raises(InvalidTourError, match="node -1 out of range"):
            tour_cost(inst, [0, -1, 2, 3])

    def test_rejects_non_integer_ids(self):
        with pytest.raises(InvalidTourError, match="integers"):
            validate_tour(square_instance(), [0, 1, 2.5, 3])

    def test_empty_sequence_misses_cluster_zero(self):
        with pytest.raises(InvalidTourError, match="cluster 0 visited 0 times"):
            validate_tour(square_instance(), [])

    @given(st.integers(0, 2**32 - 1))
    def test_validation_matches_node_by_node_check(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        inst = random_matrix_instance(n, int(rng.integers(2, n + 1)), rng)
        nodes = [int(v) for v in rng.integers(-2, inst.n + 2, size=int(rng.integers(0, 8)))]
        if rng.random() < 0.5:  # often a valid tour
            nodes = [int(rng.choice(c)) for c in inst.clusters]
            rng.shuffle(nodes)

        expected = None
        counts = [0] * inst.p
        for v in nodes:
            if not 0 <= v < inst.n:
                expected = f"node {v} out of range"
                break
            counts[int(inst.cluster_of[v])] += 1
        else:
            bad = [k for k in range(inst.p) if counts[k] != 1]
            if bad:
                expected = f"cluster {bad[0]} visited {counts[bad[0]]} times, expected once"

        if expected is None:
            validate_tour(inst, nodes)
            total = sum(int(inst.costs.cost[a, b]) for a, b in zip(nodes, nodes[1:] + nodes[:1]))
            assert tour_cost(inst, nodes) == make_tour(inst, nodes).cost == total
            assert make_tour(inst, nodes).nodes == tuple(nodes)
        else:
            for check in (validate_tour, tour_cost, make_tour):
                with pytest.raises(InvalidTourError) as exc:
                    check(inst, nodes)
                assert str(exc.value) == expected

    def test_tour_self_consistency(self):
        inst = square_instance()
        t = make_tour(inst, [0, 1, 2, 3])
        assert t.cost == tour_cost(inst, t.nodes)
        assert t.to_dict() == {"nodes": [0, 1, 2, 3], "cost": 4}


class TestNnTour:
    def test_forced_choices(self):
        # from 0, the only cheapest options are 1 then 2
        cost = np.array([[0, 1, 9], [1, 0, 1], [9, 1, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1,), (2,)))
        assert nn_tour(inst, 0).nodes == (0, 1, 2)

    def test_skips_far_node_of_chosen_cluster(self):
        # cluster 1 = {1, 2}; node 2 is nearer to 0, so node 1 is never visited
        cost = np.array(
            [[0, 9, 2, 5],
             [9, 0, 9, 9],
             [2, 9, 0, 4],
             [5, 9, 4, 0]]
        )
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2), (3,)))
        tour = nn_tour(inst, 0)
        assert 2 in tour.nodes and 1 not in tour.nodes
        # brute force over the two possible picks confirms the greedy one
        assert tour.cost == min(tour_cost(inst, [0, 1, 3]), tour_cost(inst, [0, 2, 3]))

    def test_singleton_clusters_is_classic_nn(self):
        cost = np.array(
            [[0, 2, 5, 9],
             [2, 0, 3, 8],
             [5, 3, 0, 4],
             [9, 8, 4, 0]]
        )
        inst = GtspInstance(
            name="x", costs=CostMatrix(cost), clusters=((0,), (1,), (2,), (3,))
        )
        assert nn_tour(inst, 0).nodes == (0, 1, 2, 3)

    def test_ties_break_to_lowest_node_id(self):
        cost = np.zeros((3, 3), dtype=int)
        cost[0, 1] = cost[1, 0] = 4
        cost[0, 2] = cost[2, 0] = 4
        cost[1, 2] = cost[2, 1] = 1
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))
        assert nn_tour(inst, 0).nodes == (0, 1)


class TestNnReference:
    def test_all_equal_costs(self):
        c = 3
        cost = np.full((6, 6), c)
        np.fill_diagonal(cost, 0)
        inst = GtspInstance(
            name="x", costs=CostMatrix(cost), clusters=((0, 1), (2, 3), (4, 5))
        )
        l_nn, tour = nn_reference_cost(inst)
        assert l_nn == inst.p * c
        assert l_nn == tour.cost

    def test_two_cluster_enumeration(self):
        cost = np.array(
            [[0, 3, 8, 6],
             [3, 0, 4, 9],
             [8, 4, 0, 5],
             [6, 9, 5, 0]]
        )
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0, 1), (2, 3)))
        # starts 0 and 1: greedy picks argmin over the other cluster
        by_hand = min(2 * 6, 2 * 4)  # start 0 -> node 3, start 1 -> node 2
        l_nn, _ = nn_reference_cost(inst)
        assert l_nn == by_hand

    def test_singleton_first_cluster_single_run(self):
        rng = np.random.default_rng(3)
        inst = random_matrix_instance(8, 3, rng)
        # force a singleton minimum-cardinality cluster at index 1
        clusters = list(inst.clusters)
        smallest = min(range(len(clusters)), key=lambda k: len(clusters[k]))
        if len(clusters[smallest]) > 1:
            v = clusters[smallest][0]
            clusters[smallest] = tuple(x for x in clusters[smallest] if x != v)
            clusters.append((v,))
        inst = GtspInstance(name="x", costs=inst.costs, clusters=tuple(clusters))
        sizes = [len(c) for c in inst.clusters]
        k = sizes.index(min(sizes))
        assert sizes[k] == 1
        l_nn, tour = nn_reference_cost(inst)
        assert tour == nn_tour(inst, inst.clusters[k][0])

    def test_computed_once_per_instance(self, monkeypatch):
        rng = np.random.default_rng(5)
        inst = random_matrix_instance(12, 4, rng)
        expected = gtsp.construct._nn_reference(inst)
        calls = []
        original = gtsp.construct._nn_reference

        def counted(instance):
            calls.append(instance)
            return original(instance)

        monkeypatch.setattr(gtsp.construct, "_nn_reference", counted)
        first = nn_reference_cost(inst)
        assert first == expected
        params = AcoParams(num_ants=2, max_iterations=2, seed=1)
        run(inst, params)
        run(inst, params)
        assert nn_reference_cost(inst) is first
        assert calls == [inst]
        # an equal instance built anew computes its own
        twin = GtspInstance(name=inst.name, costs=inst.costs, clusters=inst.clusters)
        assert nn_reference_cost(twin) == first
        assert len(calls) == 2

    @given(st.integers(0, 2**32 - 1))
    def test_never_beats_exact_optimum(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(int(rng.integers(6, 13)), int(rng.integers(3, 5)), rng)
        l_nn, tour = nn_reference_cost(inst)
        assert l_nn == tour.cost
        assert l_nn >= exact_solve(inst).cost


class TestTourSumGuard:
    # Construction refuses an instance whose tour sums may overflow int64
    # (tests/test_instance.py::TestTourSumBound), so no tour reaches a solver
    # unless its cost sums exactly; these cost tours at the bound.
    def test_largest_admitted_sum(self):
        limit = np.iinfo(np.int64).max
        cost = np.array([[0, limit // 2], [limit // 2, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1,)))
        assert tour_cost(inst, [0, 1]) == 2 * (limit // 2)
        assert nn_reference_cost(inst)[0] == exact_solve(inst).cost == 2 * (limit // 2)
        for variant in ("acs", "racs"):
            colony = run(inst, AcoParams(max_iterations=2, variant=variant))
            assert colony.best.cost == 2 * (limit // 2)
