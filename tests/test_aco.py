import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtsp import (
    AcoParams,
    CostMatrix,
    GtspInstance,
    PheromoneMatrix,
    evaporation_reinit,
    exact_solve,
    generate_instance,
    load_instance_file,
    make_tour,
    nn_reference_cost,
    run,
    tour_cost,
    validate_tour,
)

import gtsp.aco
from gtsp.aco import (
    _argmax_rows,
    _global_deposit,
    _local_deposit,
    _pick_rows,
    _relative_weights,
    _relax,
    _repeats,
    _visibility_lookup,
)

from oracles import lockstep_run, random_matrix_instance


def two_candidate_instance():
    # current node 0; candidates 1 (cost 1) and 2 (cost 2) in one cluster
    cost = np.array([[0, 1, 2], [1, 0, 5], [2, 5, 0]])
    return GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))


def fresh_pheromone(instance, value=0.5, tau_max=10.0):
    return PheromoneMatrix(
        tau=np.full((instance.n, instance.n), value), tau0=value, tau_max=tau_max
    )


# The ant step of `run`, for one ant (one row) at a time: the candidates of
# its node mask, the masked weight row it gathers, then `_pick_rows`, and the
# trail writes through `_relax`. `TestChooseNext::test_run_steps_match_these_helpers`
# and `TestGlobalUpdate::test_run_reinforces_the_incumbent_cycle` check that
# `run` does the same.


def candidates(instance, *visited):
    """The nodes of the clusters none of `visited` is in, ascending."""
    mask = np.ones(instance.n, dtype=bool)
    for v in visited:
        mask[instance.cluster_arrays[instance.cluster_of[v]]] = False
    return mask.nonzero()[0]


def step_weights(instance, tau, current, cand, beta):
    """The (1, n) weight row `run` gathers from `current`: trail times
    visibility^beta (from `_visibility_lookup`, as in `run`) on `cand`, 0.0
    on the nodes of visited clusters."""
    _, eta_where = _visibility_lookup(instance.costs.cost, beta, instance.max_cost)
    row = np.zeros((1, instance.n))
    row[0, cand] = tau[current, cand] * eta_where(...)[current, cand]
    return row


def rescue(instance, tau, current, cand, beta):
    """The row rescue `run` hands `_pick_rows` for that one row."""
    mask = np.zeros((1, instance.n))
    mask[0, cand] = 1.0
    cost, tau = instance.costs.cost[[current]], tau[[current]]
    return lambda rows: _relative_weights(cost[rows], tau[rows], mask[rows], beta)


def distribution(instance, tau, current, cand, beta) -> dict[int, float]:
    """The roulette's probabilities: the row's weights, rescued in place if
    all underflowed, over their running sum."""
    w = step_weights(instance, tau, current, cand, beta)
    _argmax_rows(w, rescue(instance, tau, current, cand, beta))
    sums = w.cumsum(axis=1)
    return {int(u): float(pr) for u, pr in zip(cand, w[0, cand] / sums[0, -1])}


def pick(instance, tau, current, cand, beta, q0, rng) -> int:
    """One step's pick, drawing q and then r from `rng` as `run` does."""
    q, r = rng.random(2)
    roulette = np.flatnonzero([q > q0])
    return int(_pick_rows(
        step_weights(instance, tau, current, cand, beta), roulette, np.array([r])[roulette],
        rescue(instance, tau, current, cand, beta),
    )[0])


def local_write(tau, edge, rho, l_plus, n, variant, tau0, symmetric=True) -> None:
    i, j = edge
    size = tau.shape[0]
    _relax(tau.ravel(), np.array([i * size + j]), np.array([j * size + i]) if symmetric else None,
           1.0 - rho, rho * _local_deposit(variant, n, l_plus, tau0))


def global_write(tau, best, rho, symmetric=True) -> None:
    """Every edge of `best`, closing edge included, toward `_global_deposit`."""
    add = rho * _global_deposit(best.cost)
    nodes = best.nodes
    n = tau.shape[0]
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        _relax(tau.ravel(), np.array([a * n + b]), np.array([b * n + a]) if symmetric else None,
               1.0 - rho, add)


class TestTransitionDistribution:
    def test_beta_one(self):
        inst = two_candidate_instance()
        probs = distribution(inst, fresh_pheromone(inst).tau, 0, candidates(inst, 0), beta=1.0)
        assert probs[1] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_beta_five(self):
        inst = two_candidate_instance()
        probs = distribution(inst, fresh_pheromone(inst).tau, 0, candidates(inst, 0), beta=5.0)
        assert probs[1] == pytest.approx(32 / 33, abs=1e-12)
        assert probs[2] == pytest.approx(1 / 33, abs=1e-12)

    def test_single_candidate(self):
        cost = np.array([[0, 4], [4, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1,)))
        probs = distribution(inst, fresh_pheromone(inst).tau, 0, candidates(inst, 0), beta=5.0)
        assert probs == {1: 1.0}

    def test_zero_cost_edge_clamps_visibility(self):
        cost = np.array([[0, 0, 2], [0, 0, 5], [2, 5, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))
        probs = distribution(inst, fresh_pheromone(inst).tau, 0, candidates(inst, 0), beta=1.0)
        assert probs[1] == pytest.approx(2 / 3, abs=1e-12)  # clamped cost 1 vs cost 2

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_normalization(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(int(rng.integers(5, 15)), int(rng.integers(2, 6)), rng)
        tau = rng.uniform(0.01, 2.0, size=(inst.n, inst.n))
        path = [int(rng.integers(inst.n))]
        # walk a random partial path to vary the visited clusters
        for _ in range(int(rng.integers(0, inst.p - 1))):
            path.append(int(rng.choice(candidates(inst, *path))))
        cand = candidates(inst, *path)
        probs = distribution(inst, tau, path[-1], cand, beta=float(rng.uniform(0, 6)))
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(probs) == {int(v) for v in cand}


class TestChooseNext:
    def test_pure_exploitation(self):
        inst = two_candidate_instance()
        tau, cand = fresh_pheromone(inst).tau, candidates(inst, 0)
        picks = {
            pick(inst, tau, 0, cand, 5.0, 1.0, np.random.default_rng(seed)) for seed in range(50)
        }
        assert picks == {1}  # argmax of tau * eta^beta

    def test_argmax_tie_breaks_to_lowest_id(self):
        cost = np.array([[0, 3, 3], [3, 0, 1], [3, 1, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))
        tau, cand = fresh_pheromone(inst).tau, candidates(inst, 0)
        assert pick(inst, tau, 0, cand, 5.0, 1.0, np.random.default_rng(0)) == 1

    def test_pure_exploration_follows_inverse_cdf(self):
        # weights 0.5 and 0.25: node 1 wins when its running sum exceeds r * 0.75
        inst = two_candidate_instance()
        tau, cand = fresh_pheromone(inst).tau, candidates(inst, 0)
        for seed in range(40):
            picked = pick(inst, tau, 0, cand, 1.0, 0.0, np.random.default_rng(seed))
            _, r = np.random.default_rng(seed).random(2)  # q, then r
            expected = 1 if 0.5 > r * 0.75 else 2
            assert picked == expected

    def test_replay_determinism(self):
        rng = np.random.default_rng(9)
        inst = random_matrix_instance(12, 4, rng)
        tau, cand = fresh_pheromone(inst).tau, candidates(inst, 3)
        a = pick(inst, tau, 3, cand, 5.0, 0.5, np.random.default_rng(77))
        b = pick(inst, tau, 3, cand, 5.0, 0.5, np.random.default_rng(77))
        assert a == b

    def test_empirical_frequencies_match_distribution(self):
        inst = two_candidate_instance()
        tau, cand = fresh_pheromone(inst).tau, candidates(inst, 0)
        rng = np.random.default_rng(123)
        draws = 20_000
        hits = sum(pick(inst, tau, 0, cand, 1.0, 0.0, rng) == 1 for _ in range(draws))
        p = 2 / 3
        sigma = (draws * p * (1 - p)) ** 0.5
        assert abs(hits - draws * p) < 4 * sigma

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_run_steps_match_these_helpers(self, symmetric):
        # replay a run: at each step every ant's row of the `_pick_rows` block
        # is the row built above, from the trails after all the writes of the
        # earlier steps; the step's writes then follow in ant order
        inst = random_matrix_instance(8, 3, np.random.default_rng(31), symmetric=symmetric)
        params = AcoParams(num_ants=5, max_iterations=3, seed=6, variant="racs")
        blocks, iterations = [], []
        real_pick = gtsp.aco._pick_rows

        def recorded(w, *rest):
            blocks.append(w.copy())
            return real_pick(w, *rest)

        def observer(state, ant_tours):
            iterations.append(([t.nodes for t in ant_tours], state.best_tour))

        with mock.patch.object(gtsp.aco, "_pick_rows", recorded):
            run(inst, params, iteration_observer=observer)
        l_plus, _ = nn_reference_cost(inst)
        pher = PheromoneMatrix.for_instance(inst, l_plus, params.rho)
        steps = iter(blocks)
        for paths, best in iterations:
            for s in range(1, inst.p):
                block = next(steps)
                assert block.shape == (params.num_ants, inst.n)
                for row, path in zip(block, paths):
                    cand = candidates(inst, *path[:s])
                    expected = step_weights(inst, pher.tau, path[s - 1], cand, params.beta)
                    assert np.array_equal(row, expected[0])
                for path in paths:
                    local_write(pher.tau, (path[s - 1], path[s]), params.rho, l_plus,
                                inst.n, params.variant, pher.tau0, symmetric)
            for path in paths:
                local_write(pher.tau, (path[-1], path[0]), params.rho, l_plus,
                            inst.n, params.variant, pher.tau0, symmetric)
            global_write(pher.tau, best, params.rho, symmetric)
            evaporation_reinit(pher)
            l_plus = best.cost
        assert next(steps, None) is None


class TestRowPick:
    """`_pick_rows` at the ends of both draws and on tiny weights: every pick
    is an unvisited node of its row, never a masked one or an index past it."""

    TINY = 5e-324  # the smallest subnormal
    LAST = np.nextafter(1.0, 0.0)  # the largest uniform draw

    # rows of zeros (visited) and candidates, with their picks at q <= q0
    # (argmax), at r = 0 and at r = LAST
    ROWS = [
        ([0.0, 0.0, 0.3, 0.2, 0.0, 0.0], 2, 2, 3),  # masked zeros before and after
        ([0.0, TINY, 0.0, TINY, 0.0, 0.0], 1, 1, 3),  # subnormal weights only
        ([0.0, 0.0, 0.0, 0.0, 0.0, TINY], 5, 5, 5),  # one subnormal candidate, last
        ([0.7, 0.0, 0.0, 0.0, 0.0, 0.0], 0, 0, 0),  # one candidate, first
        ([0.0, 0.0, 0.0, 0.4, 0.0, 0.4], 3, 3, 5),  # a tie
        # TINY adds nothing to 1e-300, so no running sum after node 1 grows
        ([0.0, 1e-300, 0.0, 0.0, TINY, 0.0], 1, 1, 1),
    ]

    @pytest.mark.parametrize("q0", [0.0, 1.0])
    @pytest.mark.parametrize("q", [0.0, LAST])
    @pytest.mark.parametrize("r", [0.0, LAST])
    def test_picks_an_unvisited_node(self, q0, q, r):
        w = np.array([row for row, *_ in self.ROWS])
        greedy = q <= q0
        n = len(self.ROWS)
        roulette = np.arange(0 if greedy else n)
        picks = _pick_rows(w.copy(), roulette, np.full(len(roulette), r),
                           lambda rows: pytest.fail())
        assert ((0 <= picks) & (picks < w.shape[1])).all()
        assert (w[np.arange(n), picks] > 0).all()
        column = 1 if greedy else 2 if r == 0.0 else 3
        assert picks.tolist() == [case[column] for case in self.ROWS]

    @pytest.mark.parametrize("q0", [0.0, 1.0])
    @pytest.mark.parametrize("r", [0.0, LAST])
    def test_underflowed_row_picks_from_its_rescue(self, q0, r):
        # row 0: candidates 2 and 4, whose weights all underflowed to 0
        w = np.array([[0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0, 0.25]])
        rescued = []

        def relative(rows):
            rescued.append(rows.tolist())
            return np.array([[0.0, 0.0, 0.25, 0.0, 0.5]])

        roulette = np.arange(0 if 0.5 <= q0 else 2)
        picks = _pick_rows(w, roulette, np.full(len(roulette), r), relative)
        assert rescued == [[True, False]]  # the other row keeps its weights
        if q0 == 1.0:
            assert picks.tolist() == [4, 1]
        else:
            assert picks.tolist() == ([2, 1] if r == 0.0 else [4, 4])

    @staticmethod
    def inverse_cdf(row, r):
        """The roulette pick of one row by a plain running sum in Python
        floats, as `tests/oracles.py` takes it."""
        sums = list(itertools.accumulate(row))
        bar = min(r * sums[-1], math.nextafter(sums[-1], 0.0))
        return next(k for k, total in enumerate(sums) if total > bar)

    BLOCK = [
        [0.0, 0.3, 0.1, 0.0, 0.6],
        [0.2, 0.0, 0.0, 0.5, 0.3],
        [0.0, 0.0, 0.9, 0.1, 0.0],
        [0.4, 0.4, 0.0, 0.0, 0.2],
    ]

    @pytest.mark.parametrize("roulette", [[], [0], [1, 3], [0, 2, 3], [0, 1, 2, 3]])
    def test_roulette_rows_take_their_own_draws(self, roulette):
        # [] is a block whose rows are all greedy, [0, 1, 2, 3] one whose
        # rows all explore; row 3's argmax is node 0, at a positive weight
        w = np.array(self.BLOCK)
        rs = np.array([0.9, 0.05, self.LAST, 0.0][:len(roulette)])
        picks = _pick_rows(w.copy(), np.array(roulette, dtype=int), rs,
                           lambda rows: pytest.fail())
        expected = [4, 3, 2, 0]  # the argmax of each row, ties to the lowest id
        for k, r in zip(roulette, rs):
            expected[k] = self.inverse_cdf(self.BLOCK[k], r)
        assert picks.tolist() == expected

    @pytest.mark.parametrize("rescued_greedy", [True, False])
    @pytest.mark.parametrize("other_greedy", [True, False])
    @pytest.mark.parametrize("r", [0.0, 0.5, LAST])
    def test_rescued_row_beside_a_normal_one(self, rescued_greedy, other_greedy, r):
        # row 0 underflowed on candidates 2 and 4; row 1 has its own
        # weights, the largest at node 0, which must not count as a rescue
        w = np.array([[0.0, 0.0, 0.0, 0.0, 0.0], [0.5, 0.25, 0.0, 0.0, 0.25]])
        rescue = [0.0, 0.0, 0.25, 0.0, 0.5]
        rescued = []

        def relative(rows):
            rescued.append(rows.tolist())
            return np.array([rescue])

        roulette = [k for k, greedy in enumerate((rescued_greedy, other_greedy)) if not greedy]
        picks = _pick_rows(w, np.array(roulette, dtype=int), np.full(len(roulette), r), relative)
        assert rescued == [[True, False]]
        assert picks.tolist() == [
            4 if rescued_greedy else self.inverse_cdf(rescue, r),
            0 if other_greedy else self.inverse_cdf([0.5, 0.25, 0.0, 0.0, 0.25], r),
        ]


class TestRepeats:
    def test_distinct_keys_have_no_repeats(self):
        assert _repeats(np.array([4, 1, 9])) is None

    def test_first_positions_and_counts(self):
        first, times = _repeats(np.array([7, 3, 7, 7, 3, 5]))
        assert sorted(zip(first, times)) == [(0, 3), (1, 2), (5, 1)]


class TestLocalUpdate:
    def test_racs_correction(self):
        tau = fresh_pheromone(two_candidate_instance(), value=0.04).tau
        local_write(tau, (0, 1), rho=0.5, l_plus=5, n=10, variant="racs", tau0=0.04)
        assert tau[0, 1] == pytest.approx(0.03, abs=1e-15)
        assert tau[1, 0] == tau[0, 1]  # symmetric instance mirrors

    def test_racs_fixed_point(self):
        deposit = 1.0 / (10 * 5)
        tau = fresh_pheromone(two_candidate_instance(), value=deposit).tau
        local_write(tau, (0, 1), rho=0.5, l_plus=5, n=10, variant="racs", tau0=deposit)
        assert tau[0, 1] == deposit

    def test_acs_fixed_point_at_tau0(self):
        tau = fresh_pheromone(two_candidate_instance(), value=0.125).tau
        local_write(tau, (0, 1), rho=0.5, l_plus=999, n=10, variant="acs", tau0=0.125)
        assert tau[0, 1] == 0.125

    def test_repeated_write_equals_writes_one_by_one(self):
        # an edge three ants wrote in one step, next to an edge written once
        tau = fresh_pheromone(two_candidate_instance(), value=0.04).tau
        one_by_one = tau.copy()
        for edge in [1, 1, 2, 1]:
            _relax(one_by_one.ravel(), np.array([edge]), None, 0.7, 0.009)
        new = _relax(tau.ravel(), np.array([1, 2]), None, 0.7, 0.009, times=[3, 1])
        assert tau.tobytes() == one_by_one.tobytes()
        assert new.tolist() == [tau[0, 1], tau[0, 2]]

    def test_asymmetric_updates_one_direction(self):
        tau = fresh_pheromone(two_candidate_instance(), value=0.04).tau
        local_write(tau, (0, 1), rho=0.5, l_plus=5, n=10, variant="racs", tau0=0.04,
                    symmetric=False)
        assert tau[0, 1] == pytest.approx(0.03, abs=1e-15)
        assert tau[1, 0] == 0.04

    @given(
        st.floats(1e-8, 10.0), st.floats(0.01, 0.99),
        st.integers(1, 10**6), st.integers(2, 10**4),
    )
    def test_convex_combination_bound(self, value, rho, l_plus, n):
        tau = fresh_pheromone(two_candidate_instance(), value=value).tau
        local_write(tau, (0, 1), rho=rho, l_plus=l_plus, n=n, variant="racs", tau0=value)
        deposit = 1.0 / (n * l_plus)
        lo, hi = min(value, deposit), max(value, deposit)
        assert lo <= tau[0, 1] <= hi
        assert tau[0, 1] > 0


class TestGlobalUpdate:
    def four_node_tour_instance(self):
        cost = np.array(
            [[0, 1, 2, 1],
             [1, 0, 1, 2],
             [2, 1, 0, 1],
             [1, 2, 1, 0]]
        )
        inst = GtspInstance(
            name="x", costs=CostMatrix(cost), clusters=((0,), (1,), (2,), (3,))
        )
        return inst

    def test_best_tour_edges(self):
        inst = self.four_node_tour_instance()
        tau = fresh_pheromone(inst, value=0.03).tau
        global_write(tau, make_tour(inst, [0, 1, 2, 3]), rho=0.5)  # cost 4
        assert tau[0, 1] == pytest.approx(0.015 + 0.125, abs=1e-15)
        assert tau[3, 0] == pytest.approx(0.14, abs=1e-15)  # closing edge included

    def test_off_tour_edges_untouched(self):
        inst = self.four_node_tour_instance()
        tau = fresh_pheromone(inst, value=0.03).tau
        global_write(tau, make_tour(inst, [0, 1, 2, 3]), rho=0.5)
        assert tau[0, 2] == 0.03
        assert tau[1, 3] == 0.03

    def test_repeated_application_converges_to_deposit(self):
        inst = self.four_node_tour_instance()
        tau = fresh_pheromone(inst, value=0.03).tau
        tour = make_tour(inst, [0, 1, 2, 3])
        for _ in range(200):
            global_write(tau, tour, rho=0.5)
        assert tau[0, 1] == pytest.approx(1 / tour.cost, rel=1e-12)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_run_reinforces_the_incumbent_cycle(self, symmetric):
        # after the ants' p writes each, `run` writes exactly the incumbent's
        # cycle, closing edge included, toward 1/L+
        inst = random_matrix_instance(12, 4, np.random.default_rng(32), symmetric=symmetric)
        params = AcoParams(num_ants=3, max_iterations=1, seed=2, rho=0.25)
        writes = []
        real_relax = gtsp.aco._relax

        def recorded(tau, edges, mirrors, keep, add, times=None):
            n = inst.n
            pairs = [divmod(e, n) for e in edges.tolist()]
            assert (mirrors is None) == (not symmetric)
            if symmetric:
                assert mirrors.tolist() == [j * n + i for i, j in pairs]
            writes.append((pairs, keep, add, times or [1] * len(pairs)))
            return real_relax(tau, edges, mirrors, keep, add, times)

        with mock.patch.object(gtsp.aco, "_relax", recorded):
            best = run(inst, params).best
        nodes = best.nodes
        cycle = list(zip(nodes, nodes[1:] + nodes[:1]))
        add = params.rho * _global_deposit(best.cost)
        # one call per step of all ants; an edge k ants share is written k times
        assert len(writes) == inst.p + 1
        assert sum(sum(times) for *_, times in writes) == (params.num_ants + 1) * inst.p
        assert writes[-1] == (cycle, 0.75, add, [1] * inst.p)
        assert all(w[2] < add for w in writes[:-1])  # the local writes deposit less


class TestEvaporationReinit:
    def test_at_bound_is_kept(self):
        inst = two_candidate_instance()
        pher = fresh_pheromone(inst, value=0.2, tau_max=0.2)
        reset = evaporation_reinit(pher)
        assert (pher.tau == 0.2).all()
        assert reset.shape == pher.tau.shape and not reset.any()

    def test_above_bound_resets_entry(self):
        inst = two_candidate_instance()
        pher = fresh_pheromone(inst, value=0.1, tau_max=0.2)
        pher.tau[0, 1] = 0.2 * 1.01
        reset = evaporation_reinit(pher)
        assert np.array_equal(np.argwhere(reset), [[0, 1]])  # the entries it reset
        assert pher.tau[0, 1] == pher.tau0
        assert pher.tau[1, 0] == 0.1  # untouched entries keep their value
        assert (pher.tau <= pher.tau_max).all()

    def test_fresh_matrix_unchanged(self):
        rng = np.random.default_rng(1)
        inst = random_matrix_instance(8, 3, rng)
        l_nn, _ = nn_reference_cost(inst)
        pher = PheromoneMatrix.for_instance(inst, l_nn, rho=0.5)
        assert pher.tau0 < pher.tau_max  # tau0 / tau_max = (1 - rho) / n < 1
        before = pher.tau.copy()
        evaporation_reinit(pher)
        assert np.array_equal(pher.tau, before)


class TestParams:
    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            AcoParams(rho=1.0)

    def test_rejects_bad_q0(self):
        with pytest.raises(ValueError, match="q0"):
            AcoParams(q0=1.5)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            AcoParams(variant="mmas")

    def test_variant_case_insensitive(self):
        assert AcoParams(variant="RACS").variant == "racs"

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            AcoParams(beta=beta)

    @pytest.mark.parametrize("time_max", [float("nan"), -0.5])
    def test_rejects_bad_time_max(self, time_max):
        with pytest.raises(ValueError, match="time_max"):
            AcoParams(time_max=time_max)

    def test_rejects_negative_max_iterations(self):
        with pytest.raises(ValueError, match="max_iterations"):
            AcoParams(max_iterations=-3)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("num_ants", 2.5), ("num_ants", 0),
        ("max_iterations", 1.5), ("max_iterations", 2.0),
    ])
    def test_rejects_bad_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
            AcoParams(**{field: value})

    def test_zero_budgets_allowed(self):
        params = AcoParams(beta=0.0, time_max=0.0, max_iterations=0)
        assert (params.beta, params.time_max, params.max_iterations) == (0.0, 0.0, 0)

    def test_to_dict_lists_every_field_in_order(self):
        assert AcoParams(seed=3).to_dict() == {
            "beta": 5.0, "rho": 0.5, "q0": 0.5, "num_ants": 10, "time_max": None,
            "max_iterations": None, "seed": 3, "variant": "racs",
        }


class TestRun:
    def test_zero_iterations_returns_nn_incumbent(self):
        rng = np.random.default_rng(21)
        inst = random_matrix_instance(10, 4, rng)
        _, nn = nn_reference_cost(inst)
        result = run(inst, AcoParams(max_iterations=0, seed=1))
        assert result.best == nn
        assert result.iterations == 0
        assert result.trace == []

    def test_requires_stopping_rule(self):
        rng = np.random.default_rng(22)
        inst = random_matrix_instance(6, 3, rng)
        with pytest.raises(ValueError, match="stopping rule"):
            run(inst, AcoParams())

    @pytest.mark.parametrize("variant", ["acs", "racs"])
    def test_result_is_valid_and_bounded(self, variant):
        rng = np.random.default_rng(23)
        inst = random_matrix_instance(12, 4, rng)
        optimum = exact_solve(inst).cost
        l_nn, _ = nn_reference_cost(inst)
        result = run(inst, AcoParams(max_iterations=60, seed=5, variant=variant))
        validate_tour(inst, result.best.nodes)
        assert optimum <= result.best.cost <= l_nn

    def test_same_seed_same_trace(self):
        rng = np.random.default_rng(24)
        inst = random_matrix_instance(14, 5, rng)
        params = AcoParams(max_iterations=40, seed=99)
        a = run(inst, params)
        b = run(inst, params)
        assert a.trace == b.trace
        assert a.to_json(include_elapsed=False) == b.to_json(include_elapsed=False)

    def test_different_seeds_explore_differently(self):
        rng = np.random.default_rng(25)
        inst = random_matrix_instance(16, 5, rng)

        def collect(seed):
            tours = []
            run(
                inst,
                AcoParams(max_iterations=3, seed=seed),
                iteration_observer=lambda state, ant_tours: tours.extend(
                    t.nodes for t in ant_tours
                ),
            )
            return tours

        assert collect(0) != collect(1)

    @settings(max_examples=40)
    @given(
        instance_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        beta=st.floats(0.0, 50.0),
        variant=st.sampled_from(["acs", "racs"]),
        symmetric=st.booleans(),
    )
    @example(instance_seed=26, seed=3, beta=5.0, variant="racs", symmetric=True)
    def test_trace_non_increasing_and_invariants_hold(
        self, instance_seed, seed, beta, variant, symmetric
    ):
        rng = np.random.default_rng(instance_seed)
        inst = random_matrix_instance(15, 5, rng, symmetric=symmetric)
        seen = []

        def observer(state, ant_tours):
            assert (state.pheromone.tau > 0).all()
            assert (state.pheromone.tau <= state.pheromone.tau_max).all()
            for tour in ant_tours:
                validate_tour(inst, tour.nodes)
                assert tour_cost(inst, tour.nodes) == tour.cost
            assert not seen or state.best_tour.cost <= seen[-1]
            seen.append(state.best_tour.cost)

        params = AcoParams(beta=beta, variant=variant, max_iterations=50, seed=seed)
        result = run(inst, params, iteration_observer=observer)
        assert seen == result.trace
        assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))

    def test_ten_thousand_constructions_stay_feasible(self):
        rng = np.random.default_rng(27)
        inst = random_matrix_instance(15, 5, rng)
        counted = 0

        def observer(state, ant_tours):
            nonlocal counted
            for tour in ant_tours:
                validate_tour(inst, tour.nodes)
                assert tour_cost(inst, tour.nodes) == tour.cost
                counted += 1

        run(inst, AcoParams(max_iterations=1000, seed=8), iteration_observer=observer)
        assert counted == 10_000

    @pytest.mark.parametrize("observed", [False, True])
    def test_make_tour_only_for_a_new_incumbent(self, observed):
        rng = np.random.default_rng(30)
        inst = random_matrix_instance(15, 5, rng)
        calls = []
        make_tour = gtsp.aco.make_tour
        observer = (lambda state, ant_tours: None) if observed else None
        with mock.patch.object(
            gtsp.aco, "make_tour", lambda *a: calls.append(1) or make_tour(*a)
        ):
            result = run(inst, AcoParams(max_iterations=50, seed=2), iteration_observer=observer)
        before = [nn_reference_cost(inst)[0]] + result.trace
        improving = sum(b < a for a, b in zip(before, before[1:]))
        assert improving >= 1
        assert len(calls) == improving

    def test_time_budget_stops(self):
        rng = np.random.default_rng(28)
        inst = random_matrix_instance(12, 4, rng)
        result = run(inst, AcoParams(time_max=0.2, seed=0))
        assert result.elapsed >= 0.2
        assert result.iterations >= 1

    def test_acs_and_racs_share_construction_discipline(self):
        # identical seeds explore identical first-iteration placements
        rng = np.random.default_rng(29)
        inst = random_matrix_instance(10, 4, rng)
        a = run(inst, AcoParams(max_iterations=1, seed=11, variant="acs"))
        b = run(inst, AcoParams(max_iterations=1, seed=11, variant="racs"))
        assert a.params.variant == "acs" and b.params.variant == "racs"
        assert a.best.nodes and b.best.nodes


def traced_run(inst, params):
    """`run` plus every ant tour, the final trail bytes and, for each of
    its `evaporation_reinit` calls, how many trail entries it reset."""
    tours = []
    trails = []
    resets = []
    reinit = gtsp.aco.evaporation_reinit

    def observer(state, ant_tours):
        tours.append([t.nodes for t in ant_tours])
        trails.append(state.pheromone.tau.tobytes())

    def counted_reinit(pheromone):
        reset = reinit(pheromone)
        resets.append(int(reset.sum()))
        return reset

    with mock.patch.object(gtsp.aco, "evaporation_reinit", counted_reinit):
        result = run(inst, params, iteration_observer=observer)
    return result.to_json(include_elapsed=False), tours, trails[-1], resets


def traced_reference(inst, params):
    tours = []
    result, tau, resets = lockstep_run(
        inst, params, iteration_observer=lambda ant_tours: tours.append([t.nodes for t in ant_tours])
    )
    return result.to_json(include_elapsed=False), tours, tau.tobytes(), resets


def trap_instance(symmetric: bool) -> GtspInstance:
    """Four singleton clusters. The NN tour 0-1-2-3 pays the closing edge 100
    (L_nn = 103) while 0-1-3-2 costs 6, so once an ant finds it the global
    update pushes its trails above tau_max = 2 / L_nn and reinit resets them."""
    cost = np.array(
        [[0, 1, 2, 100],
         [1, 0, 1, 2],
         [2, 1, 0, 1],
         [100, 2, 1, 0]]
    )
    if not symmetric:
        cost[2, 0] = 3
    return GtspInstance(
        name="trap", costs=CostMatrix(cost), clusters=((0,), (1,), (2,), (3,))
    )


def random_cost_instance(n: int, p: int, top: int, seed: int) -> GtspInstance:
    """Symmetric costs drawn from [1, top] with `top` on edge (0, 1)."""
    rng = np.random.default_rng(seed)
    cost = np.triu(rng.integers(1, top, size=(n, n), endpoint=True), 1)
    cost[0, 1] = top
    cost = cost + cost.T
    clusters = [list(range(k, n, p)) for k in range(p)]
    return GtspInstance(name="big", costs=CostMatrix(cost), clusters=tuple(map(tuple, clusters)))


# random colonies for the two reference tests below
REFERENCE_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    p=st.integers(2, 8),
    symmetric=st.booleans(),
    variant=st.sampled_from(["acs", "racs"]),
    q0=st.sampled_from([0.0, 0.5, 1.0]),
    beta=st.sampled_from([0.0, 1.0, 2.0, 5.0, 12.0]),
    num_ants=st.integers(1, 6),
    iterations=st.integers(1, 6),
    rho=st.sampled_from([0.1, 0.5, 0.9]),
)


def assert_matches_reference(
    observed, seed, n, p, symmetric, variant, q0, beta, num_ants, iterations, rho
):
    """With an observer attached, the tours, final trails and reinitializations
    (each call and the entries it reset) must match too; without one (the path
    the benchmark and the CLI take), the result record must be byte-identical."""
    rng = np.random.default_rng(seed)
    inst = random_matrix_instance(n, min(p, n), rng, symmetric=symmetric)
    params = AcoParams(
        beta=beta, q0=q0, variant=variant, num_ants=num_ants,
        max_iterations=iterations, seed=seed, rho=rho,
    )
    if observed:
        assert traced_run(inst, params) == traced_reference(inst, params)
    else:
        reference, _, _ = lockstep_run(inst, params)
        ours = run(inst, params).to_json(include_elapsed=False)
        assert ours == reference.to_json(include_elapsed=False)


class TestReferenceEquivalence:
    """`run`'s (ants, n) kernel against the plain-loop lockstep colony in
    oracles.py."""

    @settings(max_examples=160)
    @given(observed=st.booleans(), **REFERENCE_CASES)
    @example(observed=True, seed=1, n=2, p=2, symmetric=True, variant="racs", q0=0.5,
             beta=5.0, num_ants=1, iterations=3, rho=0.5)
    @example(observed=True, seed=2, n=7, p=7, symmetric=False, variant="acs", q0=0.0,
             beta=12.0, num_ants=3, iterations=4, rho=0.5)
    @example(observed=True, seed=3, n=20, p=2, symmetric=True, variant="racs", q0=1.0,
             beta=1.0, num_ants=5, iterations=5, rho=0.5)
    @example(observed=True, seed=4, n=2, p=2, symmetric=True, variant="racs", q0=0.5,
             beta=5.0, num_ants=2, iterations=6, rho=0.9)
    @example(observed=False, seed=2, n=7, p=7, symmetric=False, variant="acs", q0=0.0,
             beta=12.0, num_ants=3, iterations=4, rho=0.5)
    def test_byte_identical_to_reference(self, observed, **case):
        assert_matches_reference(observed, **case)

    @pytest.mark.parametrize("q0", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("variant", ["acs", "racs"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_trail_resets(self, symmetric, variant, q0):
        inst = trap_instance(symmetric)
        assert nn_reference_cost(inst)[0] == 103
        params = AcoParams(q0=q0, variant=variant, num_ants=3, max_iterations=8, seed=5)
        ours, reference = traced_run(inst, params), traced_reference(inst, params)
        assert ours == reference
        assert sum(reference[3]) > 0  # the reset path ran, in both loops alike

    def test_reinit_only_when_a_trail_exceeds_tau_max(self, data_dir):
        def reinit_calls(inst, iterations):
            calls = []
            reinit = gtsp.aco.evaporation_reinit
            with mock.patch.object(
                gtsp.aco, "evaporation_reinit", lambda ph: calls.append(1) or reinit(ph)
            ):
                run(inst, AcoParams(max_iterations=iterations, seed=100_000))
            return len(calls)

        # no write goes above tau_max on 11EIL51, so there is no n^2 scan at all
        assert reinit_calls(load_instance_file(data_dir / "eil51.tsp"), 20) == 0
        assert 1 <= reinit_calls(trap_instance(True), 8) <= 8

    @pytest.mark.parametrize("beta", [0.0, 2.0, 12.0])
    @pytest.mark.parametrize("variant", ["acs", "racs"])
    def test_large_costs(self, beta, variant):
        inst = random_cost_instance(12, 4, 2**41, seed=6)
        assert inst.costs.cost.max() >= 2**40
        params = AcoParams(beta=beta, variant=variant, num_ants=4, max_iterations=4, seed=8)
        assert traced_run(inst, params) == traced_reference(inst, params)

        # visibility must not take memory in proportion to the largest cost
        small = random_cost_instance(12, 4, 100, seed=6)
        for case in (small, inst):
            tracemalloc.start()
            run(case, params)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize("top", [24, 25, 26])
    def test_visibility_table_boundary(self, top):
        # n = 5: a largest cost of 24 fits a table of n^2 values, 25 does not
        inst = random_cost_instance(5, 3, top, seed=top)
        for variant in ("acs", "racs"):
            params = AcoParams(variant=variant, num_ants=3, max_iterations=5, seed=top)
            assert traced_run(inst, params) == traced_reference(inst, params)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_two_clusters(self, symmetric, n):
        # p = 2: on symmetric instances an ant's step edge and its closing
        # edge are one unordered edge, written twice
        inst = random_matrix_instance(n, 2, np.random.default_rng(n), symmetric=symmetric)
        for variant in ("acs", "racs"):
            params = AcoParams(variant=variant, num_ants=4, max_iterations=6, seed=n)
            assert traced_run(inst, params) == traced_reference(inst, params)

    def test_every_ant_on_one_start_writes_one_edge(self):
        # at q0 = 1 ants on one start take one greedy path, so each step of
        # the first iteration writes one edge once per ant
        inst = random_matrix_instance(6, 3, np.random.default_rng(40))
        for seed in range(1000):
            params = AcoParams(q0=1.0, num_ants=3, max_iterations=1, seed=seed)
            first_tours = traced_run(inst, params)[1][0]
            if len(set(first_tours)) == 1:
                break
        else:
            pytest.fail("no seed put every ant on one start")
        params = replace(params, max_iterations=5)
        assert traced_run(inst, params) == traced_reference(inst, params)

    def test_opposite_asymmetric_edges_are_two_entries(self):
        # ants on nodes 0 and 1 write (0, 1) and (1, 0) in one step
        cost = np.array([[0, 3], [5, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1,)))
        assert not inst.costs.symmetric
        params = AcoParams(num_ants=4, max_iterations=6, seed=1)
        calls = []
        relax = gtsp.aco._relax

        def recorded(tau, edges, *rest):
            calls.append(sorted(edges.tolist()))
            return relax(tau, edges, *rest)

        with mock.patch.object(gtsp.aco, "_relax", recorded):
            ours = traced_run(inst, params)
        assert any(1 in edges and 2 in edges for edges in calls)  # flat (0, 1) and (1, 0)
        assert ours == traced_reference(inst, params)

    @pytest.mark.parametrize("q0", [0.0, 0.5, 1.0])
    def test_rescued_and_normal_rows_in_one_step(self, q0, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        params = AcoParams(beta=200.0, q0=q0, num_ants=10, max_iterations=3, seed=4)
        rescued = []
        relative = gtsp.aco._relative_weights

        def recorded(cost_rows, *rest):
            rescued.append(len(cost_rows))
            return relative(cost_rows, *rest)

        with np.errstate(all="raise", under="ignore"):
            with mock.patch.object(gtsp.aco, "_relative_weights", recorded):
                ours = traced_run(inst, params)
        assert any(0 < k < params.num_ants for k in rescued)
        assert ours == traced_reference(inst, params)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_one_ant_and_two_nodes(self, symmetric):
        one_ant = (random_matrix_instance(9, 4, np.random.default_rng(41), symmetric=symmetric),
                   AcoParams(num_ants=1, max_iterations=8, seed=2))
        two_nodes = (random_matrix_instance(2, 2, np.random.default_rng(42), symmetric=symmetric),
                     AcoParams(num_ants=3, max_iterations=8, seed=3))
        for inst, params in (one_ant, two_nodes):
            assert traced_run(inst, params) == traced_reference(inst, params)

    @pytest.mark.parametrize("q0", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("variant", ["acs", "racs"])
    def test_colony_large_in_miniature(self, variant, q0):
        # the colony-large benchmark scaled down: a generated EUC_2D instance
        # with tens of clusters of unequal sizes, costs small enough for the
        # visibility table, ten ants
        _, inst = generate_instance(200, 40, seed=1)
        assert len({len(c) for c in inst.clusters}) > 5
        assert inst.costs.cost.max() < inst.n ** 2
        params = AcoParams(variant=variant, q0=q0, num_ants=10, max_iterations=2, seed=7)
        assert traced_run(inst, params) == traced_reference(inst, params)

    def test_eil51_benchmark_seeds(self, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        assert inst.name == "11EIL51"
        for i in range(12):
            params = AcoParams(
                num_ants=10, max_iterations=20, seed=100_000 + i,
                variant=("acs", "racs")[i % 2],
            )
            assert traced_run(inst, params) == traced_reference(inst, params)


class TestReferenceEquivalenceWithoutObserver:
    """`run` with no observer attached, the path the benchmark and the CLI
    take, against the plain-loop lockstep colony in oracles.py."""

    @settings(max_examples=80)
    @given(**REFERENCE_CASES)
    @example(seed=2, n=7, p=7, symmetric=False, variant="acs", q0=0.0, beta=12.0,
             num_ants=3, iterations=4, rho=0.5)
    def test_json_identical_to_reference(self, **case):
        assert_matches_reference(False, **case)


class TestDegenerateInputs:
    def test_zero_cost_instance_runs(self):
        inst = GtspInstance(
            name="zero", costs=CostMatrix(np.zeros((4, 4), dtype=int)),
            clusters=((0, 1), (2, 3)),
        )
        for variant in ("acs", "racs"):
            result = run(inst, AcoParams(max_iterations=2, variant=variant))
            validate_tour(inst, result.best.nodes)
            assert result.best.cost == 0
            assert result.trace == [0, 0]

    def test_zero_cost_pheromone_scale_is_finite(self):
        inst = GtspInstance(
            name="zero", costs=CostMatrix(np.zeros((4, 4), dtype=int)),
            clusters=((0, 1), (2, 3)),
        )
        pher = PheromoneMatrix.for_instance(inst, 0, rho=0.5)
        assert (pher.tau0, pher.tau_max) == (1 / 4, 2.0)
        local_write(pher.tau, (0, 2), rho=0.5, l_plus=0, n=4, variant="racs", tau0=pher.tau0)
        assert pher.tau[0, 2] == 0.5 * 0.25 + 0.5 * 0.25
        global_write(pher.tau, make_tour(inst, [0, 2]), rho=0.5, symmetric=False)
        assert pher.tau[0, 2] == pher.tau[2, 0] == 0.5 * 0.25 + 0.5 * 1.0

    @pytest.mark.parametrize("q0", [0.0, 1.0])
    @pytest.mark.parametrize("variant", ["acs", "racs"])
    def test_beta_underflow_gives_valid_tours(self, q0, variant, monkeypatch, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        seen = []
        rescued = []
        relative = gtsp.aco._relative_weights
        monkeypatch.setattr(
            gtsp.aco, "_relative_weights", lambda *a: rescued.append(1) or relative(*a)
        )
        # underflow to 0 is the case under test; anything else must not happen
        with np.errstate(all="raise", under="ignore"):
            result = run(
                inst,
                AcoParams(beta=200.0, q0=q0, variant=variant, max_iterations=3, seed=4),
                iteration_observer=lambda state, tours: seen.extend(tours),
            )
        assert len(seen) == 30 and rescued  # some steps had only zero weights
        for tour in seen + [result.best]:
            validate_tour(inst, tour.nodes)
        assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))

    @staticmethod
    def far_step(inst):
        """Node 12 of 11EIL51 with only cluster 0 left: every edge costs at
        least 61, so (1/c)^200 times the trail underflows to 0."""
        l_nn, _ = nn_reference_cost(inst)
        pher = PheromoneMatrix.for_instance(inst, l_nn, rho=0.5)
        cand = np.flatnonzero(inst.cluster_of == 0)
        assert inst.costs.cost[12, cand].min() == 61
        return pher, cand

    def test_beta_underflow_distribution_is_finite(self, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        pher, cand = self.far_step(inst)
        with np.errstate(all="raise", under="ignore"):
            assert not step_weights(inst, pher.tau, 12, cand, 200.0).any()
            probs = distribution(inst, pher.tau, 12, cand, beta=200.0)
        assert set(probs) == {int(v) for v in cand}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        # relative visibility (c_min/c)^beta: the cheapest candidate edge wins
        cheapest = int(cand[np.argmin(inst.costs.cost[12, cand])])
        assert probs[cheapest] == max(probs.values()) > 0.5

    @pytest.mark.parametrize("q0", [0.0, 1.0])
    def test_beta_underflow_pick_follows_relative_weights(self, q0, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        pher, cand = self.far_step(inst)
        cheapest = int(cand[np.argmin(inst.costs.cost[12, cand])])
        rng = np.random.default_rng(0)
        with np.errstate(all="raise", under="ignore"):
            picks = [pick(inst, pher.tau, 12, cand, 200.0, q0, rng) for _ in range(200)]
        assert set(picks) <= {int(v) for v in cand}
        if q0 == 1.0:
            assert set(picks) == {cheapest}
        else:
            assert picks.count(cheapest) > 100
        # the rescue draws nothing: each pick used its own q and r only
        replay = np.random.default_rng(0)
        replay.random(2 * 200)
        assert replay.bit_generator.state == rng.bit_generator.state
