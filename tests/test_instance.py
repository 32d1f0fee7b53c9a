import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtsp import (
    CostMatrix,
    GtspInstance,
    NodeCoords,
    ParseError,
    cluster_instance,
    default_cluster_count,
    euc2d_costs,
    format_clustered,
    format_instance_name,
    generate_instance,
    parse_clustered,
    parse_instance_name,
    parse_tsplib,
)

import gtsp.instance

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
        monkeypatch.setattr(gtsp.instance, "_EUC2D_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(n * block_pairs)
        for scale in (10, 1e4, 1e7):
            pts = np.round(rng.uniform(-scale, scale, size=(n, 2)) * 2) / 2
            cost = euc2d_costs(NodeCoords(pts)).cost
            expected = [
                [math.floor(math.sqrt((ax - bx) ** 2 + (ay - by) ** 2) + 0.5) if a != b else 0
                 for b, (bx, by) in enumerate(pts.tolist())]
                for a, (ax, ay) in enumerate(pts.tolist())
            ]
            assert cost.dtype == np.int64
            assert cost.tolist() == expected

    def test_temporaries_are_bounded(self):
        n = 2000
        coords = NodeCoords(np.random.default_rng(3).uniform(0, 10_000, size=(n, 2)))
        tracemalloc.start()
        costs = euc2d_costs(coords)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the int64 matrix and CostMatrix's own copy of it are 2 * 8 * n^2
        # bytes; an (n, n, 2) float temporary alone would add 64 MB
        assert costs.cost.shape == (n, n)
        assert peak < 2 * 8 * n * n + (16 << 20)

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
        inst = cluster_instance(coords, euc2d_costs(coords), m=2)
        assert inst.clusters == ((0, 1), (2, 3))

    def test_m_equals_n_degenerates_to_tsp(self):
        coords = NodeCoords(np.array([[0, 0], [5, 1], [2, 8], [9, 4]], dtype=float))
        inst = cluster_instance(coords, euc2d_costs(coords), m=4)
        assert sorted(inst.clusters) == [(0,), (1,), (2,), (3,)]

    def test_eil51_default_gives_eleven_clusters(self, eil51_text):
        coords = parse_tsplib(eil51_text)
        inst = cluster_instance(coords, euc2d_costs(coords), name="eil51")
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
            cluster_instance(coords, euc2d_costs(coords), m=m)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        coords = NodeCoords(rng.uniform(0, 100, size=(30, 2)))
        costs = euc2d_costs(coords)
        a = cluster_instance(coords, costs, m=6)
        b = cluster_instance(coords, costs, m=6)
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
        inst = cluster_instance(coords, costs, m=m)

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

    def test_members_may_wrap_lines(self):
        text = CLUSTERED_4.replace("1 1 2 -1", "1 1\n2 -1")
        inst = parse_clustered(text)
        assert inst.clusters == ((0, 1), (2, 3))

    def test_roundtrip_through_writer(self):
        rng = np.random.default_rng(11)
        coords = NodeCoords(rng.integers(0, 100, size=(15, 2)).astype(float))
        inst = cluster_instance(coords, euc2d_costs(coords), m=4, name="round")
        text = format_clustered(inst.name, coords, inst.clusters)
        back = parse_clustered(text)
        assert back.name == inst.name
        assert back.clusters == inst.clusters
        assert np.array_equal(back.costs.cost, inst.costs.cost)


class TestInvariants:
    def test_cost_matrix_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            CostMatrix(np.array([[0, -1], [1, 0]]))

    def test_cost_matrix_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CostMatrix(np.array([[1, 2], [2, 0]]))

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

    def test_instance_rejects_single_cluster(self):
        costs = CostMatrix(np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError, match="at least 2 clusters"):
            GtspInstance(name="bad", costs=costs, clusters=((0, 1),))


class TestNaming:
    def test_format(self):
        assert format_instance_name("eil51", 11, 51) == "11EIL51"

    def test_parse(self):
        assert parse_instance_name("11EIL51") == (11, "EIL", 51)

    def test_roundtrip(self):
        name = format_instance_name("kroA100", 20, 100)
        assert name == "20KROA100"
        assert parse_instance_name(name) == (20, "KROA", 100)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_instance_name("EIL51")
