import itertools
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtsp import (
    DEFAULT_CELL_CAP,
    AcoParams,
    CellCapExceeded,
    CostMatrix,
    GtspInstance,
    cluster_instance,
    dp_cell_count,
    euc2d_costs,
    exact_solve,
    generate_instance,
    nn_reference_cost,
    parse_tsplib,
    run,
    tour_cost,
    validate_tour,
)

import gtsp.exact
import gtsp.instance
from gtsp.instance import cost_dtype
from oracles import (
    best_tour_for_sequence,
    brute_force_best_for_order,
    brute_force_optimum,
    random_matrix_instance,
    reference_exact_solve,
)


class TestBestTourForSequence:
    def test_two_clusters_picks_cheaper_start(self):
        cost = np.array([[0, 1, 3], [1, 0, 7], [3, 7, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0, 1), (2,)))
        tour = best_tour_for_sequence(inst, (0, 1))
        assert tour.nodes == (0, 2)
        assert tour.cost == 6

    def test_singleton_clusters_fixed_order(self):
        cost = np.array(
            [[0, 2, 5, 9],
             [2, 0, 3, 8],
             [5, 3, 0, 4],
             [9, 8, 4, 0]]
        )
        inst = GtspInstance(
            name="x", costs=CostMatrix(cost), clusters=((0,), (1,), (2,), (3,))
        )
        tour = best_tour_for_sequence(inst, (0, 2, 1, 3))
        assert tour.nodes == (0, 2, 1, 3)
        assert tour.cost == 5 + 3 + 8 + 9

    def test_matches_brute_force_on_2_3_2(self):
        rng = np.random.default_rng(42)
        cost = rng.integers(1, 50, size=(7, 7))
        cost = np.triu(cost, 1) + np.triu(cost, 1).T
        inst = GtspInstance(
            name="x", costs=CostMatrix(cost), clusters=((0, 1), (2, 3, 4), (5, 6))
        )
        tour = best_tour_for_sequence(inst, (0, 1, 2))
        assert tour.cost == brute_force_best_for_order(inst, (0, 1, 2))

    def test_rejects_non_permutation(self):
        rng = np.random.default_rng(0)
        inst = random_matrix_instance(6, 3, rng)
        with pytest.raises(ValueError, match="not a permutation"):
            best_tour_for_sequence(inst, (0, 1, 1))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_exact_sums_at_2_60_scale_costs(self, symmetric):
        # float64 sums drop the low bits of costs from about 2^52 on
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cost = 2**60 + rng.integers(0, 64, size=(6, 6))
            if symmetric:
                cost = np.triu(cost, 1) + np.triu(cost, 1).T
            np.fill_diagonal(cost, 0)
            inst = GtspInstance(
                name="x", costs=CostMatrix(cost), clusters=((0, 1), (2, 3), (4, 5))
            )
            tour = best_tour_for_sequence(inst, (0, 1, 2))
            assert tour.cost == brute_force_best_for_order(inst, (0, 1, 2))

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_dp_equals_selection_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 14))
        p = int(rng.integers(2, 6))
        inst = random_matrix_instance(n, p, rng, symmetric=bool(rng.integers(2)))
        order = tuple(rng.permutation(p).tolist())
        tour = best_tour_for_sequence(inst, order)
        assert tour.cost == brute_force_best_for_order(inst, order)
        # the tour visits the clusters in the requested order
        assert [int(inst.cluster_of[v]) for v in tour.nodes] == list(order)


class TestExactSolve:
    def test_p3_orientations_agree(self):
        rng = np.random.default_rng(1)
        inst = random_matrix_instance(8, 3, rng, symmetric=True)
        tour = exact_solve(inst)
        sizes = [len(c) for c in inst.clusters]
        first = sizes.index(min(sizes))
        others = [k for k in range(3) if k != first]
        a = best_tour_for_sequence(inst, (first, others[0], others[1]))
        b = best_tour_for_sequence(inst, (first, others[1], others[0]))
        assert a.cost == b.cost  # reversal symmetry on symmetric instances
        assert tour.cost == a.cost == brute_force_optimum(inst)

    def test_n12_p4_equals_brute_force(self):
        rng = np.random.default_rng(2)
        inst = random_matrix_instance(12, 4, rng)
        assert exact_solve(inst).cost == brute_force_optimum(inst)

    def test_refuses_above_cell_cap(self):
        _, inst = generate_instance(nodes=100, clusters=20, seed=3)
        s = min(len(c) for c in inst.clusters)
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(CellCapExceeded) as exc:
                exact_solve(inst)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.cell_count == s * (100 - s) * 2**19 > DEFAULT_CELL_CAP
        assert exc.value.cap == DEFAULT_CELL_CAP
        assert str(exc.value.cell_count) in str(exc.value)
        # refused before the table, or any work, is allocated
        assert elapsed < 1.0 and peak < 100_000

    def test_sixteen_clusters_allowed_by_cap(self):
        _, admitted = generate_instance(nodes=80, clusters=16, seed=0)
        _, refused = generate_instance(nodes=100, clusters=20, seed=0)
        assert dp_cell_count(admitted) <= DEFAULT_CELL_CAP < dp_cell_count(refused)

    def test_explicit_cap_boundary(self):
        rng = np.random.default_rng(3)
        inst = random_matrix_instance(12, 6, rng)
        cells = dp_cell_count(inst)
        assert exact_solve(inst, cell_cap=cells).cost == brute_force_optimum(inst)
        with pytest.raises(CellCapExceeded) as exc:
            exact_solve(inst, cell_cap=cells - 1)
        assert (exc.value.cell_count, exc.value.cap) == (cells, cells - 1)

    def test_cell_count_is_the_dense_table_size(self):
        rng = np.random.default_rng(8)
        inst = random_matrix_instance(13, 5, rng)
        sizes = [len(c) for c in inst.clusters]
        first = sizes.index(min(sizes))
        others = [sizes[k] for k in range(inst.p) if k != first]
        # one (s, nodes of all other clusters) block per subset of the other
        # clusters, the empty one included
        table = sum(
            sizes[first] * sum(others)
            for r in range(len(others) + 1)
            for _ in itertools.combinations(others, r)
        )
        assert dp_cell_count(inst) == table
        # twice the cells of a ragged table, one (s, nodes in the subset)
        # block per non-empty subset
        ragged = sum(
            sizes[first] * sum(subset)
            for r in range(1, len(others) + 1)
            for subset in itertools.combinations(others, r)
        )
        assert table == 2 * ragged

    def test_table_is_the_peak_allocation(self):
        _, inst = generate_instance(nodes=80, clusters=16, seed=0)
        # every tour cost fits int16, so the table holds 2-byte cells
        assert inst.max_cost * inst.p <= np.iinfo(np.int16).max
        table_bytes = 2 * dp_cell_count(inst)
        tracemalloc.start()
        try:
            exact_solve(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table_bytes <= peak < table_bytes + 4 * 2**20

    def test_wrong_tour_cost_raises_under_python_O(self):
        # the final check is a raise, not an assert, so `python -O` keeps it:
        # a make_tour that returns the walked-back nodes at one more than
        # their cost must be refused
        _, inst = generate_instance(nodes=12, clusters=4, seed=0)
        optimum = exact_solve(inst).cost
        script = (
            "import sys\n"
            "import gtsp, gtsp.exact\n"
            "real = gtsp.exact.make_tour\n"
            "def wrong(instance, nodes):\n"
            "    tour = real(instance, nodes)\n"
            "    return gtsp.Tour(tour.nodes, tour.cost + 1)\n"
            "gtsp.exact.make_tour = wrong\n"
            "print(sys.flags.optimize)\n"
            "try:\n"
            "    gtsp.exact_solve(gtsp.generate_instance(nodes=12, clusters=4, seed=0)[1])\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (f"1\nwalk-back tour costs {optimum + 1}, "
                               f"the table's optimum {optimum}\n")

    def test_tie_rule_on_reversal_tie(self):
        # corners 0..3 of a square and copies 4..7 of them; each cluster holds
        # a corner and its copy
        corners = np.array([[0, 0], [10, 0], [10, 10], [0, 10]] * 2)
        diff = corners[:, None, :] - corners[None, :, :]
        cost = np.rint(np.sqrt((diff**2).sum(axis=2))).astype(np.int64)
        inst = GtspInstance(
            name="x", costs=CostMatrix(cost), clusters=((0, 4), (3, 7), (2, 6), (1, 5))
        )
        # optima: 0-1-2-3 both ways round, with any copy for any corner; the
        # rule takes start 0, closing node 1 (the lowest id, although its
        # cluster comes last) and the lowest-id predecessor at each step back
        assert exact_solve(inst).nodes == (0, 3, 2, 1)
        assert exact_solve(inst).cost == 40
        assert exact_solve(inst) == exact_solve(inst)

    def test_min_plus_temporary_is_bounded(self):
        # three clusters of about 100 nodes: an unchunked min-plus step
        # would build a 16 MB (starts, nodes, nodes) temporary
        _, inst = generate_instance(nodes=300, clusters=3, seed=1)
        optimum = min(best_tour_for_sequence(inst, o).cost for o in [(0, 1, 2), (0, 2, 1)])
        tracemalloc.start()
        try:
            tour = exact_solve(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tour.cost == optimum
        assert peak < 4_000_000

    def test_sequence_temporary_is_bounded(self):
        # an unchunked layer step would build a 15.8 MB (starts, |V_l|, |V_l+1|) temporary
        _, inst = generate_instance(nodes=300, clusters=3, seed=1)
        a, b, c = (inst.cluster_arrays[k] for k in (2, 0, 1))
        cost = inst.costs.cost
        whole = (
            cost[np.ix_(a, b)][:, :, None]
            + cost[np.ix_(b, c)][None, :, :]
            + cost[np.ix_(c, a)].T[:, None, :]
        )
        tracemalloc.start()
        try:
            tour = best_tour_for_sequence(inst, (2, 0, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tour.cost == whole.min()
        assert [int(inst.cluster_of[v]) for v in tour.nodes] == [2, 0, 1]
        assert peak < 4_000_000

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        inst = random_matrix_instance(10, 4, rng)
        assert exact_solve(inst) == exact_solve(inst)

    def test_transpose_invariance_for_symmetric(self):
        rng = np.random.default_rng(5)
        inst = random_matrix_instance(9, 4, rng, symmetric=True)
        transposed = GtspInstance(
            name=inst.name,
            costs=CostMatrix(inst.costs.cost.T.copy()),
            clusters=inst.clusters,
        )
        a, b = exact_solve(inst), exact_solve(transposed)
        assert a.cost == b.cost
        # reversing the optimal tour keeps its cost
        assert tour_cost(inst, a.nodes[::-1]) == a.cost

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        p=st.integers(2, 6),
        high=st.sampled_from([2, 4, 100]),  # 2: every cost 1, all tours tie
        symmetric=st.booleans(),
    )
    @example(seed=0, n=9, p=2, high=100, symmetric=False)
    @example(seed=1, n=6, p=6, high=100, symmetric=False)  # singleton clusters
    @example(seed=2, n=7, p=4, high=2, symmetric=True)
    def test_global_optimality(self, seed, n, p, high, symmetric):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(n, min(p, n), rng, symmetric=symmetric, high=high)
        tour = exact_solve(inst)
        validate_tour(inst, tour.nodes)
        assert tour.cost == tour_cost(inst, tour.nodes) == brute_force_optimum(inst)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lower_bounds_every_heuristic(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 25))
        inst = random_matrix_instance(n, int(rng.integers(2, 7)), rng)
        optimum = exact_solve(inst).cost
        l_nn, _ = nn_reference_cost(inst)
        assert optimum <= l_nn
        for variant in ("acs", "racs"):
            colony = run(inst, AcoParams(max_iterations=3, seed=seed, variant=variant))
            assert optimum <= colony.best.cost

    def test_asymmetric_direction_matters(self):
        cost = np.array([[0, 1, 10], [10, 0, 1], [1, 10, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1,), (2,)))
        assert exact_solve(inst).cost == 3  # 0 -> 1 -> 2 -> 0 uses the cheap arcs


def wide_cluster_instance(p: int, rng: np.random.Generator) -> GtspInstance:
    """A random asymmetric instance of 3p to 4p - 1 nodes whose p clusters
    each hold three nodes or more."""
    n = 3 * p + int(rng.integers(0, p))
    cost = rng.integers(1, 100, size=(n, n))
    np.fill_diagonal(cost, 0)
    nodes = rng.permutation(n).tolist()
    clusters = [nodes[3 * k : 3 * k + 3] for k in range(p)]
    for v in nodes[3 * p :]:
        clusters[int(rng.integers(p))].append(v)
    return GtspInstance(name=f"{p}RND{n}", costs=CostMatrix(cost),
                        clusters=tuple(tuple(c) for c in clusters))


class TestReferenceEquivalence:
    """The popcount-batched dense DP returns the Tour of the original
    mask-by-mask ragged DP, byte for byte, tie rule included."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 14),
        p=st.integers(2, 7),
        high=st.sampled_from([2, 4, 100]),  # 2: every cost 1, all tours tie
        symmetric=st.booleans(),
    )
    @example(seed=0, n=9, p=2, high=100, symmetric=False)
    @example(seed=3, n=14, p=2, high=100, symmetric=True)
    @example(seed=1, n=7, p=7, high=100, symmetric=False)  # singleton clusters
    @example(seed=4, n=6, p=6, high=100, symmetric=True)  # singleton clusters
    @example(seed=2, n=12, p=6, high=2, symmetric=True)
    @example(seed=5, n=14, p=7, high=2, symmetric=False)
    def test_matches_reference(self, seed, n, p, high, symmetric):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(n, min(p, n), rng, symmetric=symmetric, high=high)
        assert exact_solve(inst).to_json() == reference_exact_solve(inst).to_json()

    @pytest.mark.parametrize("scale", [1, 2**12, 2**40])  # int16, int32, int64 cells
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_at_every_cell_width(self, seed, scale):
        rng = np.random.default_rng(seed)
        base = random_matrix_instance(11, 5, rng, symmetric=bool(seed % 2), high=30)
        inst = GtspInstance(
            name="x", costs=CostMatrix(base.costs.cost.astype(np.int64) * scale),
            clusters=base.clusters,
        )
        tour = exact_solve(inst)
        assert tour.to_json() == reference_exact_solve(inst).to_json()
        # scaling every cost keeps the optimal tour and the tie rule's pick
        assert tour.nodes == exact_solve(base).nodes

    # Budgets of a few cells: at 11 to 14 nodes, width is 9 to 13. From 16
    # to 64 bytes a chunk holds one to three source rows and one target column
    # (at 16 bytes not even one width fits, and the temporary is one width),
    # so every round with more than one row and column is split both ways;
    # at 200 and 600 bytes rounds of few rows take ragged column blocks. The
    # default budget never reaches these edges on test-sized instances.
    @pytest.mark.parametrize("step_bytes", [16, 64, 200, 600])
    @pytest.mark.parametrize("scale", [1, 2**12, 2**40])  # int16, int32, int64 cells
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_when_every_round_is_split(self, monkeypatch, seed, scale,
                                                         step_bytes):
        monkeypatch.setattr(gtsp.instance, "BLOCK_BYTES", step_bytes)
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(11, 15))
        base = random_matrix_instance(n, int(rng.integers(4, 7)), rng,
                                      symmetric=bool(seed % 2), high=30)
        inst = GtspInstance(
            name="x", costs=CostMatrix(base.costs.cost.astype(np.int64) * scale),
            clusters=base.clusters,
        )
        assert exact_solve(inst).to_json() == reference_exact_solve(inst).to_json()

    # p = 8 to 12, past the hypothesis range above, and 11EIL51. Every
    # cluster of the generated instances holds three nodes or more, and at 16
    # and 64 bytes a chunk holds fewer rows than one mask's s start rows, so
    # the chunks slice a mask's start rows; None keeps the default budget.
    # Each instance is relabelled so that its optimum leaves the first or
    # the last start row, which a dropped or misplaced slice would miss.
    @pytest.mark.parametrize("step_bytes, row", [(None, -1), (16, -1), (64, 0)])
    @pytest.mark.parametrize("p", [8, 9, 10, 11, 12, "11EIL51"])
    def test_matches_reference_at_eight_to_twelve_clusters(self, monkeypatch, eil51_text, p,
                                                           step_bytes, row):
        if p == "11EIL51":
            coords = parse_tsplib(eil51_text)
            base = cluster_instance(euc2d_costs(coords), name="eil51")
        else:
            base = wide_cluster_instance(p, np.random.default_rng(p))
        sizes = [len(c) for c in base.clusters]
        s, starts = min(sizes), base.clusters[sizes.index(min(sizes))]
        assert s >= (2 if p == "11EIL51" else 3)
        # swap the optimum's start node with the start of the wanted row
        v, w = reference_exact_solve(base).nodes[0], starts[row]
        swap = np.arange(base.n)
        swap[[v, w]] = w, v
        inst = GtspInstance(name=base.name, costs=CostMatrix(base.costs.cost[np.ix_(swap, swap)]),
                            clusters=base.clusters)
        expected = reference_exact_solve(inst)
        assert expected.nodes[0] == w
        if step_bytes is not None:
            monkeypatch.setattr(gtsp.instance, "BLOCK_BYTES", step_bytes)
            cell_bytes = np.dtype(cost_dtype(inst.max_cost * inst.p)).itemsize
            assert step_bytes // cell_bytes // (inst.n - s) < s  # rows a chunk holds
        assert exact_solve(inst).to_json() == expected.to_json()

    # Each start row in turn holds the unique optimum: a constant larger than
    # max_cost * p, added to every edge at the smallest cluster's other starts,
    # makes each tour through one of them dearer than any tour through the
    # chosen start. At 16 and 64 bytes a chunk holds fewer rows than s.
    @pytest.mark.parametrize("step_bytes", [None, 16, 64])
    @pytest.mark.parametrize("p", [3, 5, 8])
    def test_matches_reference_from_every_start_row(self, monkeypatch, p, step_bytes):
        base = wide_cluster_instance(p, np.random.default_rng(40 + p))
        sizes = [len(c) for c in base.clusters]
        starts = base.clusters[sizes.index(min(sizes))]
        penalty = base.max_cost * base.p + 1
        if step_bytes is not None:
            monkeypatch.setattr(gtsp.instance, "BLOCK_BYTES", step_bytes)
        for start in starts:
            others = [v for v in starts if v != start]
            cost = base.costs.cost.astype(np.int64)
            cost[others, :] += penalty
            cost[:, others] += penalty
            np.fill_diagonal(cost, 0)
            inst = GtspInstance(name=base.name, costs=CostMatrix(cost), clusters=base.clusters)
            tour = exact_solve(inst)
            assert tour.to_json() == reference_exact_solve(inst).to_json()
            assert tour.nodes[0] == start

    # A chunk holds more than one but fewer than s start rows, and s is not a
    # multiple of it, so the last slice of each mask's start rows is shorter
    # than the others. Three clusters of 150 at the default budget take 128
    # rows per chunk and leave a slice of 22; at 64 and 128 bytes, s = 3 and a
    # width of 12 take two rows and leave one. A tour of cost-1 arcs through
    # the last node of every cluster is the unique optimum, and it leaves the
    # last start row, which lies in the short slice.
    @pytest.mark.parametrize("sizes, step_bytes, scale", [
        ((150, 150, 150), None, 1),
        ((3, 4, 4, 4), 64, 1),
        ((3, 4, 4, 4), 128, 2**12),
        ((3, 3, 3, 3, 3), 64, 1),
    ])
    def test_matches_reference_when_the_last_start_slice_is_short(self, monkeypatch, sizes,
                                                                   step_bytes, scale):
        rng = np.random.default_rng(sum(sizes))
        n, s = sum(sizes), sizes[0]
        clusters = tuple(tuple(range(k, k + size)) for k, size in
                         zip(itertools.accumulate((0, *sizes)), sizes))
        cost = rng.integers(2, 1000, size=(n, n))
        np.fill_diagonal(cost, 0)
        planted = [c[-1] for c in clusters]
        cost[planted, np.roll(planted, -1)] = 1
        inst = GtspInstance(name="x", costs=CostMatrix(cost * scale), clusters=clusters)
        expected = reference_exact_solve(inst)
        assert expected.nodes == tuple(planted)
        if step_bytes is not None:
            monkeypatch.setattr(gtsp.instance, "BLOCK_BYTES", step_bytes)
        width = n - s
        cell_bytes = np.dtype(cost_dtype(inst.max_cost * inst.p)).itemsize
        budget = gtsp.instance.BLOCK_BYTES // cell_bytes
        rows = min(budget // width, max(gtsp.exact._CHUNK_ROWS, budget // (width * max(sizes))))
        assert 1 < rows < s and s % rows
        assert exact_solve(inst).to_json() == expected.to_json()

    # The optimum through each cluster's last member, whose DP column is the
    # last of its cluster and so lies in the cluster's last column block:
    # at 16 and 64 bytes every block is one column wide. The m cyclic shifts
    # of one visiting order put each other cluster at every position of the
    # tour once, so each round (popcount, target cluster) that the optimum
    # passes through finds its part of it in that last block. Cost-1 arcs
    # along the tour, every other cost 2 or more, make it the unique optimum.
    @pytest.mark.parametrize("step_bytes", [None, 16, 64])
    def test_matches_reference_through_every_last_column_block(self, monkeypatch, step_bytes):
        sizes = (2, 3, 4, 3, 5)
        n, m = sum(sizes), len(sizes) - 1
        clusters = tuple(tuple(range(k, k + size)) for k, size in
                         zip(itertools.accumulate((0, *sizes)), sizes))
        if step_bytes is not None:
            monkeypatch.setattr(gtsp.instance, "BLOCK_BYTES", step_bytes)
        for shift in range(m):
            cost = np.random.default_rng(shift).integers(2, 1000, size=(n, n))
            np.fill_diagonal(cost, 0)
            visits = [0] + [1 + (j + shift) % m for j in range(m)]
            planted = [clusters[k][-1] for k in visits]
            cost[planted, np.roll(planted, -1)] = 1
            inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=clusters)
            expected = reference_exact_solve(inst)
            assert expected.nodes == tuple(planted)
            assert exact_solve(inst).to_json() == expected.to_json()

    # The largest round's temporary, width * z * count * s cells (z the target
    # cluster's columns, count its source masks), as the budget: that round
    # and every smaller one run as one chunk. One cell less and that round
    # goes through the chunk loops, its columns split into blocks of z - 1
    # and 1. Clusters of 2, 3, 4, 3 and 5 nodes: s = 2, width 15, and the
    # largest round, 15 * 5 * 3 * 2 = 450 cells, targets the 5-node cluster.
    @pytest.mark.parametrize("over", [0, 1])
    @pytest.mark.parametrize("scale", [1, 2**12, 2**40])  # int16, int32, int64 cells
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_at_the_one_chunk_boundary(self, monkeypatch, seed, scale, over):
        sizes = (2, 3, 4, 3, 5)
        n = sum(sizes)
        clusters = tuple(tuple(range(k, k + size)) for k, size in
                         zip(itertools.accumulate((0, *sizes)), sizes))
        rng = np.random.default_rng(300 + seed)
        cost = rng.integers(1, 1000, size=(n, n))
        np.fill_diagonal(cost, 0)
        inst = GtspInstance(name="x", costs=CostMatrix(cost * scale), clusters=clusters)
        s, rest = sizes[0], sizes[1:]
        width, m = sum(rest), len(rest)
        cells = max(width * z * math.comb(m - 1, k) * s for k in range(1, m) for z in rest)
        assert cells == 450
        cell_bytes = np.dtype(cost_dtype(inst.max_cost * inst.p)).itemsize
        monkeypatch.setattr(gtsp.instance, "BLOCK_BYTES", (cells - over) * cell_bytes)
        assert exact_solve(inst).to_json() == reference_exact_solve(inst).to_json()

    @pytest.mark.parametrize("top", [4681, 4682])  # 4681 * 7 == 2**15 - 1, the int16 limit
    def test_matches_reference_at_the_int16_limit(self, top):
        rng = np.random.default_rng(top)
        base = random_matrix_instance(12, 7, rng, symmetric=False, high=top)
        cost = base.costs.cost.copy()
        cost[0, 1] = top
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=base.clusters)
        assert inst.max_cost * inst.p == 7 * top
        assert exact_solve(inst).to_json() == reference_exact_solve(inst).to_json()

    # 306783378 * 7 == 2**31 - 2: the largest top whose tour bound fits int32
    @pytest.mark.parametrize("top", [306783378, 306783379])
    def test_matches_reference_at_the_int32_limit(self, top):
        rng = np.random.default_rng(top)
        base = random_matrix_instance(12, 7, rng, symmetric=False, high=top)
        cost = base.costs.cost.copy()
        cost[0, 1] = top
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=base.clusters)
        assert inst.max_cost * inst.p == 7 * top
        assert exact_solve(inst).to_json() == reference_exact_solve(inst).to_json()

    # Costs within 2 of top at each width's limit: about a third of the
    # sentinel-plus-cost sums equal iinfo(cell).max, so a sentinel one larger
    # wraps on every case.
    @pytest.mark.parametrize("top", [4681, 4682, 306783378, 306783379])
    def test_matches_reference_with_every_cost_near_the_limit(self, top):
        rng = np.random.default_rng(top)
        base = random_matrix_instance(12, 7, rng, symmetric=False)
        cost = top - rng.integers(0, 3, size=(12, 12))
        cost[0, 1] = top
        np.fill_diagonal(cost, 0)
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=base.clusters)
        assert inst.max_cost * inst.p == 7 * top
        assert exact_solve(inst).to_json() == reference_exact_solve(inst).to_json()

    # Every cost top, with top * 7 the largest value of the cell type
    # (2**15 - 1 and 2**63 - 1): every tour ties, and the walk back starts
    # from a value equal to the sentinel. A column outside the predecessors'
    # clusters holds the sentinel, and the closing node's own column plus its
    # zero diagonal cost matches that value, with the lowest id of all; only
    # the predecessors may be taken.
    @pytest.mark.parametrize("top", [4681, (2**63 - 1) // 7])
    def test_matches_reference_when_a_path_value_is_the_sentinel(self, top):
        base = random_matrix_instance(12, 7, np.random.default_rng(top))
        cost = np.full((12, 12), top)
        np.fill_diagonal(cost, 0)
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=base.clusters)
        cell = cost_dtype(inst.max_cost * inst.p)
        assert top * (inst.p - 1) == np.iinfo(cell).max - top  # the sentinel
        assert exact_solve(inst).to_json() == reference_exact_solve(inst).to_json()

    # int16 cells, 2^18 per min-plus temporary at the default budget: 300/3
    # and 400/3 take one mask (80 and 111 start rows) per chunk and split
    # each cluster's columns into blocks of 14 and 8, the last one ragged;
    # 200/8 takes one to nine masks per chunk and blocks of 11 to 50 columns
    @pytest.mark.parametrize("nodes, clusters", [(300, 3), (200, 8), (400, 3)])
    def test_matches_reference_on_large_clusters(self, nodes, clusters):
        _, inst = generate_instance(nodes=nodes, clusters=clusters, seed=1)
        assert exact_solve(inst).to_json() == reference_exact_solve(inst).to_json()

    def test_matches_reference_on_11eil51(self, eil51_text):
        coords = parse_tsplib(eil51_text)
        inst = cluster_instance(euc2d_costs(coords), name="eil51")
        tour = exact_solve(inst)
        assert tour.to_json() == reference_exact_solve(inst).to_json()
        assert tour.cost == 174

    def test_matches_reference_at_sixteen_clusters(self):
        _, inst = generate_instance(nodes=80, clusters=16, seed=0)
        assert exact_solve(inst).to_json() == reference_exact_solve(inst).to_json()
