import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gtsp import (
    CostMatrix,
    CostOverflowError,
    GtspInstance,
    NodeCoords,
    ParseError,
    cluster_instance,
    default_cluster_count,
    euc2d_costs,
    format_clustered,
    format_instance_name,
    generate_instance,
    nn_reference_cost,
    parse_tsplib,
)

import gtsp.instance
from gtsp.bench import load_instance_file

from oracles import (
    parse_clustered,
    reference_clusters,
    reference_euc2d_costs,
    reference_partition,
)


def narrowest(top: int) -> type:
    """The narrowest of int16, int32 and int64 that holds `top`."""
    return np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64


MINIMAL_TSP = """\
NAME : tiny
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 4
3 10 0
EOF
"""


class TestParseTsplib:
    def test_minimal_file(self):
        coords = parse_tsplib(MINIMAL_TSP)
        assert len(coords) == 3
        assert coords.points.tolist() == [[0, 0], [3, 4], [10, 0]]

    def test_dimension_mismatch(self):
        text = MINIMAL_TSP.replace("DIMENSION : 3", "DIMENSION : 4")
        with pytest.raises(ParseError, match="dimension mismatch"):
            parse_tsplib(text)

    def test_eil51(self, eil51_text):
        coords = parse_tsplib(eil51_text)
        assert len(coords) == 51
        assert coords.points[0].tolist() == [37, 52]

    def test_unsupported_edge_weight_type(self):
        text = MINIMAL_TSP.replace("EUC_2D", "GEO")
        with pytest.raises(ParseError, match="unsupported EDGE_WEIGHT_TYPE"):
            parse_tsplib(text)
        with pytest.raises(ParseError, match="line 3"):
            parse_tsplib(text)

    def test_duplicate_node_record(self):
        text = MINIMAL_TSP.replace("2 3 4", "1 3 4")
        with pytest.raises(ParseError, match="duplicate record for node 1"):
            parse_tsplib(text)

    def test_node_id_out_of_range(self):
        text = MINIMAL_TSP.replace("3 10 0", "7 10 0")
        with pytest.raises(ParseError, match="node id 7"):
            parse_tsplib(text)

    def test_missing_headers(self):
        with pytest.raises(ParseError, match="missing DIMENSION"):
            parse_tsplib("NAME : x\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n")

    @pytest.mark.parametrize("dim", ["1", "0", "-3"])
    def test_dimension_below_two(self, dim):
        text = "DIMENSION : " + dim + "\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n"
        with pytest.raises(ParseError, match=f"line 1: DIMENSION {dim} is below 2"):
            parse_tsplib(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "NaN"])
    def test_non_finite_coordinates(self, value):
        text = MINIMAL_TSP.replace("2 3 4", f"2 3 {value}")
        with pytest.raises(ParseError, match="line 6: coordinates must be finite"):
            parse_tsplib(text)

    @pytest.mark.parametrize("old, new, message", [
        ("EDGE_WEIGHT_TYPE : EUC_2D\n", "", "missing EDGE_WEIGHT_TYPE record"),
        ("NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 10 0\n", "", "missing NODE_COORD_SECTION"),
        ("2 3 4", "2 3", "line 6: bad coordinate record '2 3'"),
        ("2 3 4", "2 3 x", "line 6: bad coordinate record '2 3 x'"),
        ("DIMENSION : 3", "DIMENSION : three", "line 2: DIMENSION is not an integer: 'three'"),
    ])
    def test_refusal_messages(self, old, new, message):
        assert old in MINIMAL_TSP
        with pytest.raises(ParseError) as exc:
            parse_tsplib(MINIMAL_TSP.replace(old, new))
        assert str(exc.value) == message

    def test_out_of_order_ids_map_to_node_order(self):
        text = (
            "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
            "3 30 0\n1 10 0\n2 20 0\n"
        )
        coords = parse_tsplib(text)
        assert coords.points[:, 0].tolist() == [10, 20, 30]


class TestEuc2dCosts:
    def test_three_four_five(self):
        costs = euc2d_costs(NodeCoords(np.array([[0, 0], [3, 4]])))
        assert costs.cost[0, 1] == 5

    def test_rounds_sqrt2_down(self):
        costs = euc2d_costs(NodeCoords(np.array([[0, 0], [1, 1]])))
        assert costs.cost[0, 1] == 1

    def test_rounds_sqrt5_down(self):
        costs = euc2d_costs(NodeCoords(np.array([[0, 0], [1, 2]])))
        assert costs.cost[0, 1] == 2

    def test_half_rounds_up(self):
        costs = euc2d_costs(NodeCoords(np.array([[0.0, 0.0], [2.5, 0.0]])))
        assert costs.cost[0, 1] == 3

    @pytest.mark.parametrize("block_pairs", [1, 7, 40, 1 << 17])
    @pytest.mark.parametrize("n", [2, 9, 23])
    def test_matches_per_pair_formula(self, n, block_pairs, monkeypatch):
        # small blocks split the rows at every boundary, including a last
        # partial block; halves test the rounding
        monkeypatch.setattr(gtsp.instance, "BLOCK_BYTES", 8 * block_pairs)  # float64 pairs
        rng = np.random.default_rng(n * block_pairs)
        for scale in (10, 1e4, 1e7):
            pts = np.round(rng.uniform(-scale, scale, size=(n, 2)) * 2) / 2
            cost = euc2d_costs(NodeCoords(pts)).cost
            expected = [
                [math.floor(math.sqrt((ax - bx) ** 2 + (ay - by) ** 2) + 0.5) if a != b else 0
                 for b, (bx, by) in enumerate(pts.tolist())]
                for a, (ax, ay) in enumerate(pts.tolist())
            ]
            assert cost.dtype == narrowest(max(map(max, expected)))
            assert cost.tolist() == expected

    def test_temporaries_are_bounded(self):
        n = 2000
        coords = NodeCoords(np.random.default_rng(3).uniform(0, 10_000, size=(n, 2)))
        tracemalloc.start()
        costs = euc2d_costs(coords)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # one int16 matrix of 2 * n^2 bytes, which CostMatrix keeps without
        # copying; a copy would add 8 MB, an int64 matrix 32 MB and an
        # (n, n, 2) float temporary 64 MB
        assert costs.cost.shape == (n, n)
        assert costs.cost.dtype == np.int16
        assert peak < costs.cost.nbytes + (16 << 20)

    def test_overflowing_coordinates_raise_named_error(self):
        coords = NodeCoords(np.array([[1e19, 0.0], [0.0, 0.0], [5.0, 5.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow or cast warning first
            with pytest.raises(CostOverflowError, match="overflow int64"):
                euc2d_costs(coords)
            with pytest.raises(CostOverflowError):
                euc2d_costs(NodeCoords(np.array([[-1.7e308, 0.0], [1.7e308, 0.0]])))

    def test_largest_distances_below_int64_limit_still_work(self):
        # 9.2e18 is an exact float below 2^63; 2^63 itself is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cost = euc2d_costs(NodeCoords(np.array([[0.0, 0.0], [9.2e18, 0.0]]))).cost
            assert cost[0, 1] == cost[1, 0] == 9_200_000_000_000_000_000
            with pytest.raises(CostOverflowError):
                euc2d_costs(NodeCoords(np.array([[0.0, 0.0], [2.0**63, 0.0]])))

    def test_overflowing_file_is_an_instance_error(self, tmp_path):
        path = tmp_path / "far.tsp"
        path.write_text(MINIMAL_TSP.replace("2 3 4", "2 1e19 0"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CostOverflowError):
                load_instance_file(path)
            text = CLUSTERED_4.replace("3 9 0", "3 1e19 0")
            with pytest.raises(CostOverflowError, match="overflow int64"):
                parse_clustered(text)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_symmetric_zero_diagonal(self, seed, n):
        rng = np.random.default_rng(seed)
        costs = euc2d_costs(NodeCoords(rng.uniform(0, 100, size=(n, 2))))
        assert costs.symmetric
        assert np.array_equal(costs.cost, costs.cost.T)
        assert not np.diagonal(costs.cost).any()
        assert (costs.cost >= 0).all()


class TestClusterInstance:
    def test_collinear_pair_of_clusters(self):
        coords = NodeCoords(np.array([[0, 0], [1, 0], [9, 0], [10, 0]], dtype=float))
        inst = cluster_instance(euc2d_costs(coords), m=2)
        assert inst.clusters == ((0, 1), (2, 3))

    def test_m_equals_n_degenerates_to_tsp(self):
        coords = NodeCoords(np.array([[0, 0], [5, 1], [2, 8], [9, 4]], dtype=float))
        inst = cluster_instance(euc2d_costs(coords), m=4)
        assert sorted(inst.clusters) == [(0,), (1,), (2,), (3,)]

    def test_eil51_default_gives_eleven_clusters(self, eil51_text):
        coords = parse_tsplib(eil51_text)
        inst = cluster_instance(euc2d_costs(coords), name="eil51")
        assert inst.p == 11
        assert inst.name == "11EIL51"

    def test_default_cluster_count_is_ceiling(self):
        assert default_cluster_count(51) == 11
        assert default_cluster_count(50) == 10
        assert default_cluster_count(48) == 10

    @pytest.mark.parametrize("m", [1, 0, 9])
    def test_invalid_cluster_count(self, m):
        coords = NodeCoords(np.array([[0, 0], [1, 0], [2, 0]], dtype=float))
        with pytest.raises(ValueError, match="cluster count"):
            cluster_instance(euc2d_costs(coords), m=m)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        coords = NodeCoords(rng.uniform(0, 100, size=(30, 2)))
        costs = euc2d_costs(coords)
        a = cluster_instance(costs, m=6)
        b = cluster_instance(costs, m=6)
        assert a.clusters == b.clusters
        assert np.array_equal(a.cluster_of, b.cluster_of)

    @given(st.integers(0, 2**32 - 1), st.integers(5, 25), st.integers(2, 6))
    def test_center_spread_replay(self, seed, n, m):
        """Replaying the greedy farthest-point rule reproduces the chosen centers."""
        if m > n:
            m = n
        rng = np.random.default_rng(seed)
        coords = NodeCoords(rng.uniform(0, 100, size=(n, 2)))
        costs = euc2d_costs(coords)
        inst = cluster_instance(costs, m=m)

        cost = costs.cost
        off = cost.copy()
        np.fill_diagonal(off, -1)
        top = off.max()
        first = min(
            set(np.flatnonzero((off == top).any(axis=1)))
            | set(np.flatnonzero((off == top).any(axis=0)))
        )
        centers = [int(first)]
        while len(centers) < m:
            best_node, best_d = None, -1
            for v in range(n):
                if v in centers:
                    continue
                d = min(int(cost[v, c]) for c in centers)
                if d > best_d:
                    best_node, best_d = v, d
            # every non-center's separation is <= the chosen center's
            for v in range(n):
                if v not in centers:
                    assert min(int(cost[v, c]) for c in centers) <= best_d
            centers.append(best_node)

        # the k-th chosen center must sit inside the k-th cluster
        for k, c in enumerate(centers):
            assert c in inst.clusters[k]

    def test_generate_refuses_more_nodes_than_grid_points(self):
        # one node per point of the 1000 x 1000 grid; refused before any sampling
        with pytest.raises(ValueError, match=r"^nodes must be at most 1000000, the points of"
                                             r" the 1000 x 1000 grid, got 1000001$"):
            generate_instance(1000001, 3, 0)

    @given(st.integers(0, 2**32 - 1), st.integers(4, 30), st.integers(2, 7))
    def test_partition_property(self, seed, n, p):
        if p > n:
            p = n
        _, inst = generate_instance(nodes=n, clusters=p, seed=seed)
        assert sum(len(c) for c in inst.clusters) == inst.n
        for k, members in enumerate(inst.clusters):
            assert len(members) >= 1
            for v in members:
                assert inst.cluster_of[v] == k


# A few coordinates repeated so that duplicate points and zero costs occur.
coordinate_lists = st.integers(2, 40).flatmap(
    lambda n: st.lists(
        st.sampled_from([0, 1, 2, 7, -3, 10**6, -(10**6), 123_457]) | st.integers(-(10**7), 10**7),
        min_size=2 * n, max_size=2 * n,
    )
)


class TestLoadPathEquivalence:
    """The lean load path against the original code in oracles.py, byte for byte."""

    # Row blocks of one pair to all of them, and symmetry tiles of side 1
    # (8 bytes at int32 and int64) up to 724 (2^20 bytes at int16).
    @given(coordinate_lists, st.booleans(), st.sampled_from([8, 32, 56, 320, 1 << 17, 1 << 20]),
           st.integers(0, 2**32 - 1))
    @example([0] * 8, False, 1 << 20, 0)  # all-zero costs: top == 0
    @example([5, 5] * 9, True, 32, 1)  # one row per block, int16 tiles of side 4
    def test_raw_load_matches_reference(self, ints, half, block_bytes, seed):
        pts = np.array(ints, dtype=float).reshape(-1, 2) / (2 if half else 1)
        n = len(pts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gtsp.instance, "BLOCK_BYTES", block_bytes)
            coords = NodeCoords(pts)
            costs = euc2d_costs(coords)
            expected = reference_euc2d_costs(pts)
            assert costs.cost.dtype == narrowest(int(expected.max()))
            assert np.array_equal(costs.cost, expected)
            assert costs.symmetric is True
            m = int(np.random.default_rng(seed).integers(2, n + 1))
            inst = cluster_instance(costs, m=m)
            assert inst.clusters == reference_clusters(expected, m)

    # int16 costs: tiles of side 3, 4 and 256
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5, 1000]),
           st.booleans(), st.sampled_from([18, 32, 1 << 17]))
    @example(6, 0, 1, True, 32)  # every cost 0 (high=1)
    @example(5, 1, 2, False, 18)
    def test_matrix_clustering_matches_reference(self, n, seed, high, symmetric, block_bytes):
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, high, size=(n, n))
        if symmetric:
            cost = np.triu(cost, 1) + np.triu(cost, 1).T
        np.fill_diagonal(cost, 0)
        m = int(rng.integers(2, n + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gtsp.instance, "BLOCK_BYTES", block_bytes)
            costs = CostMatrix(cost)
            assert costs.symmetric == bool(np.array_equal(cost, cost.T))
            inst = cluster_instance(costs, m=m)
        # the reference reads the matrix itself, so an asymmetric input takes
        # the library's cost.T path
        assert inst.clusters == reference_clusters(cost, m)

    def test_eil51_load(self, data_dir, eil51_text):
        coords = parse_tsplib(eil51_text)
        expected = reference_euc2d_costs(coords.points)
        inst = load_instance_file(data_dir / "eil51.tsp")
        assert inst.costs.cost.dtype == np.int16
        assert np.array_equal(inst.costs.cost, expected)
        assert inst.clusters == reference_clusters(expected, 11)

    # int16 costs, so a tile of side t takes 2 * t^2 bytes
    @pytest.mark.parametrize("n, tile", [(10, 4), (9, 3), (600, 256), (257, 256)])
    def test_symmetry_check_at_tile_edges(self, n, tile, monkeypatch):
        monkeypatch.setattr(gtsp.instance, "BLOCK_BYTES", 2 * tile * tile)
        rng = np.random.default_rng(n)
        base = np.triu(rng.integers(1, 50, size=(n, n)), 1)
        base = base + base.T
        assert CostMatrix(base).symmetric
        edges = sorted({k for lo in range(0, n, tile) for k in (lo, min(lo + tile, n) - 1)})
        for i in edges:
            for j in edges:
                if i == j:
                    continue
                cost = base.copy()
                cost[i, j] += 1
                assert CostMatrix(cost).symmetric is bool(np.array_equal(cost, cost.T)) is False

    def test_symmetry_check_temporaries_are_bounded(self):
        n = 2000
        base = np.triu(np.random.default_rng(4).integers(1, 1000, size=(n, n), dtype=np.int16), 1)
        cost = base + base.T
        tracemalloc.start()
        costs = CostMatrix(cost)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the matrix is kept, not copied, and compared tile by tile; c == c.T
        # would build a 4 MB bool matrix
        assert costs.symmetric and np.shares_memory(costs.cost, cost)
        assert peak < 2 * gtsp.instance.BLOCK_BYTES

    def test_int64_input_is_shared_read_only(self):
        # a cost of 2^31 needs int64, the narrowest type that holds it
        cost = np.array([[0, 2, 3], [2, 0, 2**31], [3, 2**31, 0]], dtype=np.int64)
        costs = CostMatrix(cost)
        assert np.shares_memory(costs.cost, cost)
        assert not costs.cost.flags.writeable
        assert cost.flags.writeable  # the caller's own array is left as it was
        with pytest.raises(ValueError, match="read-only"):
            costs.cost[0, 1] = 7

    @pytest.mark.parametrize("dtype, top", [(np.int16, 2**15 - 1), (np.int32, 2**31 - 1)])
    def test_narrowest_input_is_shared_read_only(self, dtype, top):
        cost = np.array([[0, top], [top, 0]], dtype=dtype)
        costs = CostMatrix(cost)
        assert costs.cost.dtype == dtype
        assert np.shares_memory(costs.cost, cost)
        assert not costs.cost.flags.writeable

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, float, np.int64])
    def test_other_dtypes_are_converted_read_only(self, dtype):
        cost = np.array([[0, 2], [2, 0]], dtype=dtype)
        costs = CostMatrix(cost)
        assert costs.cost.dtype == np.int16
        assert not np.shares_memory(costs.cost, cost)
        assert not costs.cost.flags.writeable
        assert costs.cost.tolist() == [[0, 2], [2, 0]]

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_other_orders_are_copied_to_c_order(self, dtype):
        cost = np.asfortranarray(np.array([[0, 2, 3], [4, 0, 5], [6, 7, 0]], dtype=dtype))
        costs = CostMatrix(cost)
        assert costs.cost.flags.c_contiguous
        assert not np.shares_memory(costs.cost, cost)
        assert costs.cost.tolist() == cost.tolist()

    def test_clustering_temporaries_are_bounded(self):
        n, m = 2000, 400
        coords = NodeCoords(np.random.default_rng(4).uniform(0, 10_000, size=(n, 2)))
        costs = euc2d_costs(coords)
        tracemalloc.start()
        inst = cluster_instance(costs, m=m)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the (m, n) int16 cost-to-center block is 1.6 MB; a copy of the
        # int16 cost matrix alone would be 8 MB
        assert costs.cost.dtype == np.int16
        assert inst.p == m
        assert peak < 2 * m * n + (4 << 20)


CLUSTERED_4 = """\
NAME : toy
TYPE : GTSP
DIMENSION : 4
GTSP_SETS : 2
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 1 0
3 9 0
4 10 0
GTSP_SET_SECTION
1 1 2 -1
2 3 4 -1
EOF
"""


class TestParseClustered:
    def test_two_sets(self):
        inst = parse_clustered(CLUSTERED_4)
        assert inst.clusters == ((0, 1), (2, 3))
        assert inst.name == "toy"
        assert inst.costs.cost[0, 3] == 10

    def test_node_in_two_sets(self):
        text = CLUSTERED_4.replace("2 3 4 -1", "2 3 3 -1")
        with pytest.raises(ParseError, match="not a partition: node 3"):
            parse_clustered(text)

    def test_node_in_no_set(self):
        text = CLUSTERED_4.replace("2 3 4 -1", "2 3 -1")
        with pytest.raises(ParseError, match="not a partition: node 4"):
            parse_clustered(text)

    def test_empty_set_record(self):
        text = CLUSTERED_4.replace("1 1 2 -1", "1 -1").replace("2 3 4 -1", "2 1 2 3 4 -1")
        with pytest.raises(ParseError, match="empty cluster"):
            parse_clustered(text)

    def test_missing_sets_header(self):
        text = CLUSTERED_4.replace("GTSP_SETS : 2\n", "")
        with pytest.raises(ParseError, match="missing GTSP_SETS"):
            parse_clustered(text)

    @pytest.mark.parametrize("old, new, message", [
        ("2 3 4 -1", "2 3 x -1", "line 13: bad set record token 'x'"),
        ("2 3 4 -1\n", "", "expected 2 set records, found 1"),
        ("2 3 4 -1", "3 3 4 -1", "line 13: expected set 2, got 3"),
        ("1 1 2 -1\n2 3 4 -1", "1 1 2 3 4", "line 12: set 1 not terminated by -1"),
        ("2 3 4 -1", "2 3 9 -1", "line 13: node 9 outside 1..4"),
        ("2 3 4 -1", "2 3 4 -1\n3 -1", "line 14: unexpected data after set 2"),
    ])
    def test_set_section_refusal_messages(self, old, new, message):
        assert old in CLUSTERED_4
        with pytest.raises(ParseError) as exc:
            parse_clustered(CLUSTERED_4.replace(old, new))
        assert str(exc.value) == message

    def test_members_may_wrap_lines(self):
        text = CLUSTERED_4.replace("1 1 2 -1", "1 1\n2 -1")
        inst = parse_clustered(text)
        assert inst.clusters == ((0, 1), (2, 3))

    def test_roundtrip_through_writer(self):
        rng = np.random.default_rng(11)
        coords = NodeCoords(rng.integers(0, 100, size=(15, 2)).astype(float))
        inst = cluster_instance(euc2d_costs(coords), m=4, name="round")
        text = format_clustered(inst.name, coords, inst.clusters)
        back = parse_clustered(text)
        assert back.name == inst.name
        assert back.clusters == inst.clusters
        assert np.array_equal(back.costs.cost, inst.costs.cost)


coordinate_values = (
    st.integers(-(10**6), 10**6)  # integers, negatives included
    | st.integers(-(10**6), 10**6).map(lambda v: v / 2)  # half units
)


class TestScanOnce:
    """Each file's text is split into records once per load."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        real = gtsp.instance._scan_records
        monkeypatch.setattr(gtsp.instance, "_scan_records",
                            lambda text: calls.append(text) or real(text))
        return calls

    def test_parse_clustered(self, scans):
        parse_clustered(CLUSTERED_4)
        assert len(scans) == 1

    def test_load_paths(self, tmp_path, scans):
        clustered = tmp_path / "toy.gtsp"
        clustered.write_text(CLUSTERED_4)
        raw = tmp_path / "raw.tsp"
        raw.write_text(CLUSTERED_4[: CLUSTERED_4.index("GTSP_SET_SECTION")] + "EOF\n")
        load_instance_file(clustered)
        assert len(scans) == 1
        load_instance_file(raw, cluster_file=clustered)
        assert len(scans) == 3  # one scan of each file

    def test_raw_file_naming_the_set_section(self, tmp_path, scans):
        # a COMMENT naming the keyword is a header record, not a set section:
        # the one scan finds the file raw and its records give the coordinates
        raw = tmp_path / "raw.tsp"
        raw.write_text(MINIMAL_TSP.replace("NAME", "COMMENT : no GTSP_SET_SECTION\nNAME", 1))
        assert load_instance_file(raw, clusters=2).p == 2
        assert len(scans) == 1


class TestRepeatedHeaders:
    """A header record the loader reads appears at most once; the scan names
    both lines of a repeat, so no later record silently wins."""

    def test_later_edge_weight_type_does_not_win(self, tmp_path):
        path = tmp_path / "geo.tsp"
        path.write_text(MINIMAL_TSP.replace(
            "EDGE_WEIGHT_TYPE : EUC_2D", "EDGE_WEIGHT_TYPE : GEO\nEDGE_WEIGHT_TYPE : EUC_2D"))
        with pytest.raises(ParseError) as exc:
            load_instance_file(path, clusters=2)
        assert str(exc.value) == "line 4: repeated EDGE_WEIGHT_TYPE record, first on line 3"

    @pytest.mark.parametrize("record, first, repeat", [
        ("NAME : toy", 1, "name : other"),
        ("DIMENSION : 4", 3, "DIMENSION : 4"),
        ("EDGE_WEIGHT_TYPE : EUC_2D", 5, " Edge_Weight_Type: EUC_2D"),
        ("GTSP_SETS : 2", 4, "GTSP_SETS : 3"),
    ])
    def test_each_read_key(self, record, first, repeat):
        assert CLUSTERED_4.splitlines()[first - 1] == record
        text = CLUSTERED_4.replace(record, f"{record}\n{repeat}", 1)
        key = record.split()[0]
        with pytest.raises(ParseError) as exc:
            parse_clustered(text)
        assert str(exc.value) == f"line {first + 1}: repeated {key} record, first on line {first}"

    def test_cluster_file_is_scanned_by_the_same_rule(self, tmp_path):
        (tmp_path / "toy.tsp").write_text(MINIMAL_TSP)
        donor = tmp_path / "donor.gtsp"
        donor.write_text("DIMENSION : 3\nGTSP_SETS : 2\nGTSP_SETS : 2\nGTSP_SET_SECTION\n"
                         "1 1 -1\n2 2 3 -1\nEOF\n")
        with pytest.raises(ParseError, match="line 3: repeated GTSP_SETS record, first on line 2"):
            load_instance_file(tmp_path / "toy.tsp", cluster_file=donor)

    def test_repeated_comment_is_accepted(self, tmp_path):
        path = tmp_path / "toy.tsp"
        path.write_text(MINIMAL_TSP.replace("NAME : tiny", "COMMENT : one\nNAME : tiny\n"
                                            "COMMENT : two\ncomment : three"))
        assert load_instance_file(path, clusters=2).p == 2
        assert len(parse_tsplib(path.read_text())) == 3


class TestRoundTrip:
    @given(st.integers(2, 25).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(coordinate_values, coordinate_values), min_size=n, max_size=n),
        st.integers(2, n),
        st.integers(0, 2**32 - 1),
    )), st.from_regex(r"[A-Za-z0-9_]{1,12}", fullmatch=True))
    @example(([(0, 0), (0.5, -0.5), (0, 0)], 3, 0), "dup")
    def test_format_then_parse_is_identity(self, drawn, name):
        points, p, seed = drawn
        n = len(points)
        coords = NodeCoords(np.array(points, dtype=float))
        rng = np.random.default_rng(seed)
        # a random partition, members in random order, every cluster non-empty
        owner = np.concatenate([np.arange(p), rng.integers(0, p, size=n - p)])
        rng.shuffle(owner)
        clusters = tuple(tuple(rng.permutation(np.flatnonzero(owner == k)).tolist())
                         for k in range(p))
        back = parse_clustered(format_clustered(name, coords, clusters))
        assert back.name == name
        assert back.clusters == tuple(tuple(sorted(c)) for c in clusters)
        assert back.costs.cost.tobytes() == euc2d_costs(coords).cost.tobytes()
        assert back.costs.symmetric


# Lines a TSPLIB/GTSP file is made of, valid and broken ones alike.
_numbers = st.sampled_from(
    ["0", "1", "2", "3", "4", "-1", "-2", "7", "0.5", "1e19", "1e400", "nan", "inf",
     "-inf", "x", "1_0", "\u00b2", "99999999999999999999"]
)
_record_lines = st.lists(_numbers | st.integers(-5, 9).map(str), min_size=1, max_size=5).map(" ".join)
_header_lines = st.sampled_from(
    ["NAME : t", "TYPE : GTSP", "TYPE : TSP", "EDGE_WEIGHT_TYPE : EUC_2D", "EDGE_WEIGHT_TYPE : GEO",
     "NODE_COORD_SECTION", "GTSP_SET_SECTION", "EOF", "COMMENT : c", "DIMENSION", ": 3"]
) | st.tuples(st.sampled_from(["DIMENSION", "GTSP_SETS"]), _numbers).map(" : ".join)
_lines = st.lists(_header_lines | _record_lines | st.text(max_size=12), max_size=14)


def _mutated(text: str):
    lines = text.splitlines()
    return st.lists(
        st.tuples(st.integers(0, len(lines)), _header_lines | _record_lines | st.just("")),
        min_size=1, max_size=4,
    ).map(lambda edits: _apply(lines, edits))


def _apply(lines, edits):
    out = list(lines)
    for pos, line in edits:
        if line and pos < len(out) and pos % 2:
            out[pos] = line
        elif pos < len(out) and not line:
            del out[pos]
        else:
            out.insert(pos, line)
    return "\n".join(out)


class TestFuzzedText:
    """Malformed input of any kind raises ParseError and nothing else."""

    @given(_lines.map("\n".join) | _mutated(CLUSTERED_4) | _mutated(MINIMAL_TSP))
    @example("DIMENSION : 1\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n")
    @example(CLUSTERED_4.replace("2 1 0", "2 nan 0"))
    @example(CLUSTERED_4.replace("GTSP_SETS : 2", "GTSP_SETS : 1").replace("2 3 4 -1", ""))
    def test_only_parse_errors(self, text):
        for parse in (parse_tsplib, parse_clustered):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    parse(text)
                except ParseError:
                    pass


class TestInvariants:
    def test_cost_matrix_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            CostMatrix(np.array([[0, -1], [1, 0]]))

    def test_cost_matrix_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CostMatrix(np.array([[1, 2], [2, 0]]))

    @pytest.mark.parametrize("build, error, message", [
        (lambda: NodeCoords(np.zeros((3, 3))), ValueError,
         "expected an (n, 2) coordinate array, got shape (3, 3)"),
        (lambda: NodeCoords(np.zeros((1, 2))), ValueError, "need at least 2 nodes"),
        (lambda: CostMatrix(np.zeros((2, 3), dtype=int)), ValueError,
         "cost matrix must be square, got shape (2, 3)"),
        (lambda: CostMatrix(np.array([[0, 1.5], [1.5, 0]])), ValueError,
         "costs must be integers"),
        (lambda: gtsp.instance.cost_dtype(2**63), CostOverflowError,
         "largest cost 9223372036854775808 does not fit in int64"),
    ], ids=["coords-shape", "one-node", "non-square", "float-cost", "cost-overflow"])
    def test_constructors_refuse_bad_input(self, build, error, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert (exc.type, str(exc.value)) == (error, message)

    def test_symmetry_flag_is_computed(self):
        sym = CostMatrix(np.array([[0, 2], [2, 0]]))
        asym = CostMatrix(np.array([[0, 2], [3, 0]]))
        assert sym.symmetric and not asym.symmetric

    def test_instance_rejects_overlapping_clusters(self):
        costs = CostMatrix(np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError, match="not a partition: node 1"):
            GtspInstance(name="bad", costs=costs, clusters=((0, 1), (1, 2)))

    def test_instance_rejects_uncovered_node(self):
        costs = CostMatrix(np.zeros((3, 3), dtype=int))
        with pytest.raises(ValueError, match="not a partition: node 2"):
            GtspInstance(name="bad", costs=costs, clusters=((0,), (1,)))

    @pytest.mark.parametrize("member", [0.5, 1.0, np.float64(1.0), "1", None],
                             ids=["half", "float", "numpy-float", "str", "none"])
    def test_instance_rejects_non_integer_node_ids(self, member):
        costs = CostMatrix(np.zeros((4, 4), dtype=int))
        with pytest.raises(ValueError, match="node ids must be integers; cluster 1:"):
            GtspInstance(name="x", costs=costs, clusters=((0, 1), (member, 2, 3)))

    def test_instance_takes_numpy_integer_members_as_python_ints(self):
        costs = CostMatrix(np.zeros((4, 4), dtype=int))
        inst = GtspInstance(name="x", costs=costs, clusters=(
            np.array([1, 0], dtype=np.int64), np.array([3, 2], dtype=np.uint8)))
        assert inst.clusters == ((0, 1), (2, 3))
        assert all(type(v) is int for c in inst.clusters for v in c)
        assert inst.cluster_of.tolist() == [0, 0, 1, 1]

    @given(
        n=st.integers(1, 8),
        clusters=st.lists(st.lists(st.integers(-2, 9), max_size=4), max_size=5),
        shuffled=st.permutations(range(8)),
        parts=st.integers(1, 5),
        use_partition=st.booleans(),
    )
    @example(n=3, clusters=[[0, 1], [1, 2]], shuffled=list(range(8)), parts=1,
             use_partition=False)
    @example(n=3, clusters=[[2, 2], [], [0, 1]], shuffled=list(range(8)), parts=1,
             use_partition=False)
    @example(n=3, clusters=[[0], [], [5]], shuffled=list(range(8)), parts=1,
             use_partition=False)
    @example(n=4, clusters=[[3, 0], [1]], shuffled=list(range(8)), parts=1,
             use_partition=False)
    @example(n=4, clusters=[np.array([3, 0], dtype=np.int64), np.array([2, 1], dtype=np.int64)],
             shuffled=list(range(8)), parts=1, use_partition=False)
    @example(n=5, clusters=[(4, 2, 0), (3, 1)], shuffled=list(range(8)), parts=1,
             use_partition=False)
    def test_partition_check_matches_reference(
        self, n, clusters, shuffled, parts, use_partition
    ):
        if use_partition:  # a valid partition of 0..n-1, members unordered
            nodes = [v for v in shuffled if v < n]
            clusters = [nodes[k::parts] for k in range(parts)]
        clusters = tuple(tuple(c) for c in clusters)
        costs = CostMatrix(np.zeros((n, n), int))
        try:
            expected = reference_partition(clusters, n)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                GtspInstance(name="x", costs=costs, clusters=clusters)
            assert str(got.value) == str(exc)
            return
        inst = GtspInstance(name="x", costs=costs, clusters=clusters)
        np.testing.assert_array_equal(inst.cluster_of, expected)
        assert inst.clusters == tuple(tuple(sorted(c)) for c in clusters)
        assert all(type(v) is int for c in inst.clusters for v in c)

    def test_instance_rejects_single_cluster(self):
        costs = CostMatrix(np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError, match="at least 2 clusters"):
            GtspInstance(name="bad", costs=costs, clusters=((0, 1),))


class TestValueSemantics:
    """Instances, cost matrices and coordinates compare and hash by identity,
    and every array they hold is read-only."""

    def test_equal_valued_matrices_compare_unequal_without_raising(self):
        cost = np.array([[0, 2], [2, 0]])
        a, b = CostMatrix(cost), CostMatrix(cost.copy())
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_instances_and_coords_hash(self, eil51_text):
        coords = parse_tsplib(eil51_text)
        again = NodeCoords(coords.points.copy())
        inst = cluster_instance(euc2d_costs(coords), name="eil51")
        nn = nn_reference_cost(inst)  # kept in the instance's __dict__
        twin = GtspInstance(name=inst.name, costs=inst.costs, clusters=inst.clusters)
        assert coords != again and inst != twin and inst == inst
        assert {inst: 1, twin: 2}[inst] == 1
        assert len({inst, twin, inst}) == 2 and len({coords, again}) == 2
        assert nn_reference_cost(inst) is nn

    def test_points_are_a_read_only_view(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        coords = NodeCoords(points)
        assert np.shares_memory(coords.points, points)
        assert points.flags.writeable  # the caller's own array is left as it was
        with pytest.raises(ValueError, match="read-only"):
            coords.points[0, 0] = 1.0
        converted = NodeCoords([[0, 0], [3, 4]])
        with pytest.raises(ValueError, match="read-only"):
            converted.points[1] = (5.0, 5.0)

    def test_cluster_arrays_are_read_only(self, eil51_text):
        coords = parse_tsplib(eil51_text)
        inst = cluster_instance(euc2d_costs(coords), name="eil51")
        with pytest.raises(ValueError, match="read-only"):
            inst.cluster_of[0] = 1
        for members in inst.cluster_arrays:
            with pytest.raises(ValueError, match="read-only"):
                members[0] = members[-1]
        assert inst.cluster_arrays is inst.cluster_arrays  # cached, one tuple
        assert sorted(np.concatenate(inst.cluster_arrays).tolist()) == list(range(inst.n))

    def test_every_builder_returns_read_only_arrays(self, data_dir):
        coords, generated = generate_instance(nodes=30, clusters=5, seed=2)
        loaded = load_instance_file(data_dir / "eil51.tsp")
        parsed = parse_clustered(format_clustered("g", coords, generated.clusters))
        for inst in (generated, loaded, parsed):
            arrays = (inst.costs.cost, inst.cluster_of, *inst.cluster_arrays)
            assert not any(a.flags.writeable for a in arrays)


# Every cost fits int64, but a tour over the two far pairs sums past it.
FAR_APART = NodeCoords(np.array([[0, 0], [1, 0], [9.2e18, 0], [9.2e18, 1]]))
FAR_CLUSTERS = ((0, 1), (2, 3))
TOO_LARGE = ("costs too large for exact int64 tour sums: largest cost 9200000000000000000"
             " times 2 clusters exceeds 9223372036854775807")


FILE_LOADS = ["raw", "clustered", "cluster_file"]


def load_far_apart(tmp_path, coords: NodeCoords, kind: str):
    """`coords`, in the clusters FAR_CLUSTERS, loaded as `kind` of FILE_LOADS:
    a raw TSPLIB file in 2 clusters, the clustered file of `format_clustered`,
    or the raw file with that clustered file as its cluster file."""
    clustered = tmp_path / "far.gtsp"
    clustered.write_text(format_clustered("far", coords, FAR_CLUSTERS))
    text = clustered.read_text()
    raw = tmp_path / "far.tsp"
    raw.write_text(text[: text.index("GTSP_SET_SECTION")] + "EOF\n")
    if kind == "raw":
        return load_instance_file(raw, clusters=2)
    if kind == "clustered":
        return load_instance_file(clustered)
    return load_instance_file(raw, cluster_file=clustered)


class TestTourSumBound:
    """An instance whose largest cost times p exceeds int64 is refused when
    it is built, by every route that builds one; every file load refuses it,
    and coordinates whose distances overflow int64, with the same
    CostOverflowError."""

    def test_constructor(self):
        costs = euc2d_costs(FAR_APART)
        assert costs.max_cost * 2 > np.iinfo(np.int64).max
        with pytest.raises(CostOverflowError) as exc:
            GtspInstance(name="far", costs=costs, clusters=FAR_CLUSTERS)
        assert str(exc.value) == TOO_LARGE

    def test_cluster_instance(self):
        with pytest.raises(CostOverflowError) as exc:
            cluster_instance(euc2d_costs(FAR_APART), m=2, name="far")
        assert str(exc.value) == TOO_LARGE

    def test_clustered_file(self):
        with pytest.raises(CostOverflowError) as exc:
            parse_clustered(format_clustered("far", FAR_APART, FAR_CLUSTERS))
        assert str(exc.value) == TOO_LARGE

    @pytest.mark.parametrize("kind", FILE_LOADS)
    def test_file_loads(self, tmp_path, kind):
        with pytest.raises(CostOverflowError) as exc:
            load_far_apart(tmp_path, FAR_APART, kind)
        assert str(exc.value) == TOO_LARGE

    @pytest.mark.parametrize("kind", FILE_LOADS)
    def test_span_overflow_is_one_error_on_every_load(self, tmp_path, kind):
        far = NodeCoords(np.array([[0, 0], [1, 0], [1e19, 0], [1e19, 1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CostOverflowError) as exc:
                load_far_apart(tmp_path, far, kind)
        assert str(exc.value) == ("coordinates span 1e+19 x 1; their distances overflow"
                                  " int64 costs")

    def test_generate_instance(self, monkeypatch):
        # generated costs stay on the grid; far-apart ones stand in for them
        far = CostMatrix(np.array([[0, 2**62, 1], [2**62, 0, 1], [1, 1, 0]]))
        monkeypatch.setattr(gtsp.instance, "euc2d_costs", lambda coords: far)
        with pytest.raises(CostOverflowError, match="largest cost 4611686018427387904 times 3"):
            generate_instance(3, 3, seed=0)

    @staticmethod
    def one_node_clusters(top: int, p: int) -> dict:
        cost = np.full((p, p), top)
        np.fill_diagonal(cost, 0)
        return dict(name="x", costs=CostMatrix(cost), clusters=tuple((k,) for k in range(p)))

    @pytest.mark.parametrize("top, p", [(2**62 - 1, 2), (np.iinfo(np.int64).max // 3, 3)])
    def test_admitted_up_to_the_bound(self, top, p):
        assert GtspInstance(**self.one_node_clusters(top, p)).max_cost == top

    @pytest.mark.parametrize("top, p", [(2**62, 2), (np.iinfo(np.int64).max // 3 + 1, 3)])
    def test_refused_past_the_bound(self, top, p):
        with pytest.raises(CostOverflowError, match=f"largest cost {top} times {p} clusters"):
            GtspInstance(**self.one_node_clusters(top, p))

    def test_bound_reads_the_stored_maximum(self):
        # the bound takes the maximum CostMatrix found when it chose the cost
        # type; the matrix is not scanned again
        costs = CostMatrix(np.zeros((2, 2), dtype=int))
        object.__setattr__(costs, "max_cost", 2**62)
        with pytest.raises(CostOverflowError, match="largest cost 4611686018427387904 times 2"):
            GtspInstance(name="x", costs=costs, clusters=((0,), (1,)))


class TestNaming:
    def test_format(self):
        assert format_instance_name("eil51", 11, 51) == "11EIL51"
        assert format_instance_name("kroA100", 20, 100) == "20KROA100"
