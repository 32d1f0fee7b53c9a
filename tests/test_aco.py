import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtsp import (
    AcoParams,
    AntState,
    CostMatrix,
    GtspInstance,
    PheromoneMatrix,
    choose_next,
    evaporation_reinit,
    exact_solve,
    global_update,
    load_instance_file,
    local_update,
    nn_reference_cost,
    run,
    tour_cost,
    transition_distribution,
    validate_tour,
)

import gtsp.aco
from gtsp.aco import _candidate_weights

from oracles import random_matrix_instance, reference_run


def two_candidate_instance():
    # current node 0; candidates 1 (cost 1) and 2 (cost 2) in one cluster
    cost = np.array([[0, 1, 2], [1, 0, 5], [2, 5, 0]])
    return GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))


def fresh_pheromone(instance, value=0.5, tau_max=10.0):
    return PheromoneMatrix(
        tau=np.full((instance.n, instance.n), value), tau0=value, tau_max=tau_max
    )


def ant_at(instance, start, seed=0):
    return AntState.place(instance, start, np.random.default_rng(seed))


class TestTransitionDistribution:
    def test_beta_one(self):
        inst = two_candidate_instance()
        probs = transition_distribution(ant_at(inst, 0), fresh_pheromone(inst), inst, beta=1.0)
        assert probs[1] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_beta_five(self):
        inst = two_candidate_instance()
        probs = transition_distribution(ant_at(inst, 0), fresh_pheromone(inst), inst, beta=5.0)
        assert probs[1] == pytest.approx(32 / 33, abs=1e-12)
        assert probs[2] == pytest.approx(1 / 33, abs=1e-12)

    def test_single_candidate(self):
        cost = np.array([[0, 4], [4, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1,)))
        probs = transition_distribution(ant_at(inst, 0), fresh_pheromone(inst), inst, beta=5.0)
        assert probs == {1: 1.0}

    def test_zero_cost_edge_clamps_visibility(self):
        cost = np.array([[0, 0, 2], [0, 0, 5], [2, 5, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))
        probs = transition_distribution(ant_at(inst, 0), fresh_pheromone(inst), inst, beta=1.0)
        assert probs[1] == pytest.approx(2 / 3, abs=1e-12)  # clamped cost 1 vs cost 2

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_normalization(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(int(rng.integers(5, 15)), int(rng.integers(2, 6)), rng)
        pher = fresh_pheromone(inst, value=float(rng.uniform(0.01, 2.0)))
        pher.tau[:] = rng.uniform(0.01, 2.0, size=pher.tau.shape)
        state = ant_at(inst, int(rng.integers(inst.n)), seed)
        # walk a random partial path to vary the visited clusters
        for _ in range(int(rng.integers(0, inst.p - 1))):
            cand = np.flatnonzero(state.node_mask)
            state.advance(inst, int(rng.choice(cand)))
        probs = transition_distribution(state, pher, inst, beta=float(rng.uniform(0, 6)))
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(probs) == {int(v) for v in np.flatnonzero(state.node_mask)}


class TestChooseNext:
    def test_pure_exploitation(self):
        inst = two_candidate_instance()
        pher = fresh_pheromone(inst)
        params = AcoParams(q0=1.0, max_iterations=1)
        picks = {
            choose_next(ant_at(inst, 0, seed), pher, inst, params) for seed in range(50)
        }
        assert picks == {1}  # argmax of tau * eta^beta

    def test_argmax_tie_breaks_to_lowest_id(self):
        cost = np.array([[0, 3, 3], [3, 0, 1], [3, 1, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))
        params = AcoParams(q0=1.0, max_iterations=1)
        assert choose_next(ant_at(inst, 0), fresh_pheromone(inst), inst, params) == 1

    def test_pure_exploration_follows_inverse_cdf(self):
        inst = two_candidate_instance()
        pher = fresh_pheromone(inst)
        params = AcoParams(q0=0.0, beta=1.0, max_iterations=1)
        for seed in range(40):
            state = ant_at(inst, 0, seed)
            picked = choose_next(state, pher, inst, params)
            replay = np.random.default_rng(seed)
            replay.random()  # the q draw
            r = replay.random()
            expected = 1 if r <= 2 / 3 else 2
            assert picked == expected

    def test_replay_determinism(self):
        rng = np.random.default_rng(9)
        inst = random_matrix_instance(12, 4, rng)
        pher = fresh_pheromone(inst)
        params = AcoParams(q0=0.5, max_iterations=1)
        a = choose_next(ant_at(inst, 3, seed=77), pher, inst, params)
        b = choose_next(ant_at(inst, 3, seed=77), pher, inst, params)
        assert a == b

    def test_empirical_frequencies_match_distribution(self):
        inst = two_candidate_instance()
        pher = fresh_pheromone(inst)
        params = AcoParams(q0=0.0, beta=1.0, max_iterations=1)
        state = ant_at(inst, 0, seed=123)
        draws = 20_000
        hits = sum(choose_next(state, pher, inst, params) == 1 for _ in range(draws))
        p = 2 / 3
        sigma = (draws * p * (1 - p)) ** 0.5
        assert abs(hits - draws * p) < 4 * sigma


class TestLocalUpdate:
    def test_racs_correction(self):
        inst = two_candidate_instance()
        pher = fresh_pheromone(inst, value=0.04)
        local_update(pher, (0, 1), rho=0.5, l_plus=5, n=10, variant="racs")
        assert pher.tau[0, 1] == pytest.approx(0.03, abs=1e-15)
        assert pher.tau[1, 0] == pher.tau[0, 1]  # symmetric instance mirrors

    def test_racs_fixed_point(self):
        inst = two_candidate_instance()
        deposit = 1.0 / (10 * 5)
        pher = fresh_pheromone(inst, value=deposit)
        local_update(pher, (0, 1), rho=0.5, l_plus=5, n=10, variant="racs")
        assert pher.tau[0, 1] == deposit

    def test_acs_fixed_point_at_tau0(self):
        inst = two_candidate_instance()
        pher = fresh_pheromone(inst, value=0.125)
        local_update(pher, (0, 1), rho=0.5, l_plus=999, n=10, variant="acs")
        assert pher.tau[0, 1] == 0.125

    def test_asymmetric_updates_one_direction(self):
        inst = two_candidate_instance()
        pher = fresh_pheromone(inst, value=0.04)
        local_update(pher, (0, 1), rho=0.5, l_plus=5, n=10, variant="racs", symmetric=False)
        assert pher.tau[0, 1] == pytest.approx(0.03, abs=1e-15)
        assert pher.tau[1, 0] == 0.04

    @given(
        st.floats(1e-8, 10.0), st.floats(0.01, 0.99),
        st.integers(1, 10**6), st.integers(2, 10**4),
    )
    def test_convex_combination_bound(self, tau, rho, l_plus, n):
        inst = two_candidate_instance()
        pher = fresh_pheromone(inst, value=tau)
        local_update(pher, (0, 1), rho=rho, l_plus=l_plus, n=n, variant="racs")
        deposit = 1.0 / (n * l_plus)
        lo, hi = min(tau, deposit), max(tau, deposit)
        assert lo <= pher.tau[0, 1] <= hi
        assert pher.tau[0, 1] > 0


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
        from gtsp import make_tour

        inst = self.four_node_tour_instance()
        pher = fresh_pheromone(inst, value=0.03)
        tour = make_tour(inst, [0, 1, 2, 3])  # cost 4
        global_update(pher, tour, rho=0.5)
        assert pher.tau[0, 1] == pytest.approx(0.015 + 0.125, abs=1e-15)
        assert pher.tau[3, 0] == pytest.approx(0.14, abs=1e-15)  # closing edge included

    def test_off_tour_edges_untouched(self):
        from gtsp import make_tour

        inst = self.four_node_tour_instance()
        pher = fresh_pheromone(inst, value=0.03)
        global_update(pher, make_tour(inst, [0, 1, 2, 3]), rho=0.5)
        assert pher.tau[0, 2] == 0.03
        assert pher.tau[1, 3] == 0.03

    def test_repeated_application_converges_to_deposit(self):
        from gtsp import make_tour

        inst = self.four_node_tour_instance()
        pher = fresh_pheromone(inst, value=0.03)
        tour = make_tour(inst, [0, 1, 2, 3])
        for _ in range(200):
            global_update(pher, tour, rho=0.5)
        assert pher.tau[0, 1] == pytest.approx(1 / tour.cost, rel=1e-12)


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
    """`run` plus every ant tour, the final trail bytes and how many trail
    entries its `evaporation_reinit` calls reset in all."""
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
    return result.to_json(include_elapsed=False), tours, trails[-1], sum(resets)


def traced_reference(inst, params):
    tours = []
    result, tau, resets = reference_run(
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


class TestReferenceEquivalence:
    """`run`'s flat kernel against the original per-ant loop in oracles.py."""

    @settings(max_examples=80)
    @given(
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
    @example(seed=1, n=2, p=2, symmetric=True, variant="racs", q0=0.5, beta=5.0,
             num_ants=1, iterations=3, rho=0.5)
    @example(seed=2, n=7, p=7, symmetric=False, variant="acs", q0=0.0, beta=12.0,
             num_ants=3, iterations=4, rho=0.5)
    @example(seed=3, n=20, p=2, symmetric=True, variant="racs", q0=1.0, beta=1.0,
             num_ants=5, iterations=5, rho=0.5)
    @example(seed=4, n=2, p=2, symmetric=True, variant="racs", q0=0.5, beta=5.0,
             num_ants=2, iterations=6, rho=0.9)
    def test_byte_identical_to_reference(
        self, seed, n, p, symmetric, variant, q0, beta, num_ants, iterations, rho
    ):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(n, min(p, n), rng, symmetric=symmetric)
        params = AcoParams(
            beta=beta, q0=q0, variant=variant, num_ants=num_ants,
            max_iterations=iterations, seed=seed, rho=rho,
        )
        assert traced_run(inst, params) == traced_reference(inst, params)

    @pytest.mark.parametrize("q0", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("variant", ["acs", "racs"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_trail_resets(self, symmetric, variant, q0):
        inst = trap_instance(symmetric)
        assert nn_reference_cost(inst)[0] == 103
        params = AcoParams(q0=q0, variant=variant, num_ants=3, max_iterations=8, seed=5)
        ours, reference = traced_run(inst, params), traced_reference(inst, params)
        assert ours == reference
        assert reference[3] > 0  # the reset path ran, in both loops alike

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
    take, against the original per-ant loop in oracles.py."""

    @settings(max_examples=80)
    @given(
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
    @example(seed=2, n=7, p=7, symmetric=False, variant="acs", q0=0.0, beta=12.0,
             num_ants=3, iterations=4, rho=0.5)
    def test_json_identical_to_reference(
        self, seed, n, p, symmetric, variant, q0, beta, num_ants, iterations, rho
    ):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(n, min(p, n), rng, symmetric=symmetric)
        params = AcoParams(
            beta=beta, q0=q0, variant=variant, num_ants=num_ants,
            max_iterations=iterations, seed=seed, rho=rho,
        )
        reference, _, _ = reference_run(inst, params)
        ours = run(inst, params).to_json(include_elapsed=False)
        assert ours == reference.to_json(include_elapsed=False)


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
        local_update(pher, (0, 2), rho=0.5, l_plus=0, n=4, variant="racs")
        assert pher.tau[0, 2] == 0.5 * 0.25 + 0.5 * 0.25
        from gtsp import make_tour

        global_update(pher, make_tour(inst, [0, 2]), rho=0.5, symmetric=False)
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
        state = ant_at(inst, 12)
        state.node_mask[:] = False
        state.node_mask[inst.cluster_arrays[0]] = True
        cand = np.flatnonzero(state.node_mask)
        assert inst.costs.cost[12, cand].min() == 61
        return pher, state, cand

    def test_beta_underflow_distribution_is_finite(self, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        pher, state, cand = self.far_step(inst)
        with np.errstate(all="raise", under="ignore"):
            assert not _candidate_weights(inst, pher, 12, cand, 200.0).any()
            probs = transition_distribution(state, pher, inst, beta=200.0)
        assert set(probs) == {int(v) for v in cand}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        # relative visibility (c_min/c)^beta: the cheapest candidate edge wins
        cheapest = int(cand[np.argmin(inst.costs.cost[12, cand])])
        assert probs[cheapest] == max(probs.values()) > 0.5

    @pytest.mark.parametrize("q0", [0.0, 1.0])
    def test_beta_underflow_pick_follows_relative_weights(self, q0, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        pher, state, cand = self.far_step(inst)
        cheapest = int(cand[np.argmin(inst.costs.cost[12, cand])])
        params = AcoParams(beta=200.0, q0=q0, max_iterations=1)
        with np.errstate(all="raise", under="ignore"):
            picks = [choose_next(state, pher, inst, params) for _ in range(200)]
        assert set(picks) <= {int(v) for v in cand}
        if q0 == 1.0:
            assert set(picks) == {cheapest}
        else:
            assert picks.count(cheapest) > 100
        # the rescue consumes the usual draws: q, then r only when q > q0
        replay = np.random.default_rng(0)
        for _ in range(200):
            if replay.random() > q0:
                replay.random()
        assert replay.bit_generator.state == state.rng_stream.bit_generator.state
