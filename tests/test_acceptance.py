"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`).
The slow corpora are shared through module-scoped fixtures.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gtsp import (
    AcoParams,
    best_tour_for_sequence,
    cluster_instance,
    euc2d_costs,
    exact_solve,
    make_tour,
    nn_reference_cost,
    parse_tsplib,
    run,
    tour_cost,
    validate_tour,
)
from gtsp.aco import _argmax_rows, _pick_rows, _relative_weights, _visibility_lookup
from gtsp.instance import CostMatrix, GtspInstance

from oracles import brute_force_best_for_order, brute_force_optimum, random_matrix_instance

DATA = Path(__file__).resolve().parents[1] / "data"
PAPER_PARAMS = dict(beta=5.0, rho=0.5, q0=0.5, num_ants=10)
BEST_OF = 5


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def best_of_seeds(instance, variant: str, max_iterations: int, seeds=range(BEST_OF)) -> int:
    costs = []
    for seed in seeds:
        params = AcoParams(
            max_iterations=max_iterations, seed=seed, variant=variant, **PAPER_PARAMS
        )
        costs.append(run(instance, params).best.cost)
    return min(costs)


def test_criterion_1_exact_matches_brute_force():
    rng = np.random.default_rng(20240601)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(5, 16))
        p = int(rng.integers(2, 6))
        inst = random_matrix_instance(n, p, rng, symmetric=bool(rng.integers(2)))
        if exact_solve(inst).cost != brute_force_optimum(inst):
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        mismatches == 0 and elapsed < 60.0,
        f"200 instances, {mismatches} mismatches, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_sequence_dp_matches_brute_force():
    rng = np.random.default_rng(20240602)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(5, 16))
        p = int(rng.integers(2, 6))
        inst = random_matrix_instance(n, p, rng, symmetric=bool(rng.integers(2)))
        order = tuple(int(k) for k in rng.permutation(p))
        if best_tour_for_sequence(inst, order).cost != brute_force_best_for_order(inst, order):
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        2,
        mismatches == 0 and elapsed < 30.0,
        f"200 sequence pairs, {mismatches} mismatches, {elapsed:.1f}s (< 30s)",
    )


@pytest.fixture(scope="module")
def certified_corpus():
    """50 small instances with optima certified by the exact solver."""
    rng = np.random.default_rng(20240603)
    corpus = []
    for _ in range(50):
        n = int(rng.integers(8, 21))
        p = int(rng.integers(3, 7))
        inst = random_matrix_instance(n, p, rng, symmetric=True)
        corpus.append((inst, exact_solve(inst).cost))
    return corpus


@pytest.fixture(scope="module")
def racs_best_of_five(certified_corpus):
    return [best_of_seeds(inst, "racs", max_iterations=500) for inst, _ in certified_corpus]


def test_criterion_3_racs_quality_at_small_scale(certified_corpus, racs_best_of_five):
    optima = [opt for _, opt in certified_corpus]
    hits = sum(best == opt for best, opt in zip(racs_best_of_five, optima))
    within_5pct = sum(
        best <= 1.05 * opt for best, opt in zip(racs_best_of_five, optima)
    )
    ok = hits >= 0.80 * len(optima) and within_5pct == len(optima)
    report(
        3,
        ok,
        f"optimum on {hits}/50, within 5% on {within_5pct}/50 (bars: >=40 and 50)",
    )


def test_criterion_4_racs_vs_acs_and_nn(certified_corpus, racs_best_of_five):
    acs_best = [
        best_of_seeds(inst, "acs", max_iterations=500) for inst, _ in certified_corpus
    ]
    nn_costs = [nn_reference_cost(inst)[0] for inst, _ in certified_corpus]
    racs_mean = sum(racs_best_of_five) / len(racs_best_of_five)
    acs_mean = sum(acs_best) / len(acs_best)
    racs_le_nn = sum(r <= nn for r, nn in zip(racs_best_of_five, nn_costs))
    ok = racs_mean <= acs_mean and racs_le_nn >= 0.95 * len(nn_costs)
    report(
        4,
        ok,
        f"mean RACS {racs_mean:.2f} <= mean ACS {acs_mean:.2f}; "
        f"RACS <= NN on {racs_le_nn}/50 (bar 48)",
    )


def test_criterion_5_eil51_derived_optimum():
    text = (DATA / "eil51.tsp").read_text()
    coords = parse_tsplib(text)
    instance = cluster_instance(coords, euc2d_costs(coords), name="eil51")
    assert instance.p == 11 and instance.name == "11EIL51"

    fixture = json.loads((DATA / "derived" / "11eil51_optimum.json").read_text())
    assert fixture["problem"] == "11EIL51"
    assert [tuple(c) for c in fixture["clusters"]] == list(instance.clusters)
    # the persisted tour must be feasible and cost what it claims
    validate_tour(instance, fixture["nodes"])
    assert tour_cost(instance, fixture["nodes"]) == fixture["cost"]
    # recompute the optimum to certify the fixture end to end
    recomputed = exact_solve(instance)
    assert recomputed.cost == fixture["cost"]
    assert recomputed.nodes == tuple(fixture["nodes"])

    optimum = fixture["cost"]
    steps_budget = 1_000_000
    iters = steps_budget // (PAPER_PARAMS["num_ants"] * instance.p)
    racs = best_of_seeds(instance, "racs", max_iterations=iters)
    ok = racs <= 1.02 * optimum
    report(
        5,
        ok,
        f"derived optimum {optimum}; RACS best-of-5 {racs} "
        f"({(racs / optimum - 1) * 100:.2f}% above, bar 2%)",
    )


def test_criterion_6_pheromone_invariants_over_full_runs():
    rng = np.random.default_rng(20240606)
    violations = 0
    iterations_seen = 0

    for i in range(20):
        n = int(rng.integers(10, 21))
        p = int(rng.integers(3, 7))
        inst = random_matrix_instance(n, p, rng, symmetric=True)
        last_cost = None

        def observer(state, ant_tours):
            nonlocal violations, iterations_seen, last_cost
            iterations_seen += 1
            tau = state.pheromone.tau
            if not (tau > 0).all() or not (tau <= state.pheromone.tau_max).all():
                violations += 1
            if last_cost is not None and state.best_tour.cost > last_cost:
                violations += 1
            last_cost = state.best_tour.cost
            for tour in ant_tours:
                try:
                    validate_tour(inst, tour.nodes)
                except ValueError:
                    violations += 1

        run(
            inst,
            AcoParams(max_iterations=60, seed=i, variant="racs", **PAPER_PARAMS),
            iteration_observer=observer,
        )
    report(
        6,
        violations == 0,
        f"{iterations_seen} iterations over 20 full runs, {violations} violations",
    )


def test_criterion_7_determinism_of_run_results():
    rng = np.random.default_rng(20240607)
    configs = []
    for i in range(10):
        inst = random_matrix_instance(
            int(rng.integers(8, 18)), int(rng.integers(3, 6)), rng,
            symmetric=bool(rng.integers(2)),
        )
        params = AcoParams(
            beta=float(rng.choice([1.0, 2.0, 5.0])),
            rho=float(rng.choice([0.2, 0.5, 0.8])),
            q0=float(rng.choice([0.0, 0.5, 0.9, 1.0])),
            num_ants=int(rng.integers(3, 12)),
            max_iterations=int(rng.integers(10, 40)),
            seed=int(rng.integers(0, 2**32)),
            variant=str(rng.choice(["acs", "racs"])),
        )
        configs.append((inst, params))
    identical = sum(
        run(inst, params).to_json(include_elapsed=False)
        == run(inst, params).to_json(include_elapsed=False)
        for inst, params in configs
    )
    report(7, identical == 10, f"byte-identical results on {identical}/10 configurations")


def test_criterion_8_transition_rule_statistics():
    # fixed state: current node 0, three candidates with costs 1, 2, 3
    cost = np.array(
        [[0, 1, 2, 3],
         [1, 0, 4, 4],
         [2, 4, 0, 4],
         [3, 4, 4, 0]]
    )
    inst = GtspInstance(
        name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2), (3,))
    )
    tau = np.full((4, 4), 0.5)
    rng = np.random.default_rng(20240608)
    # the step `run` takes from node 0, repeated on every row of one block:
    # its candidates, the masked weights it gathers (trail times
    # visibility^beta) and its pick rule
    cand = np.flatnonzero(inst.cluster_of != inst.cluster_of[0])
    beta = 1.0
    _, eta_where = _visibility_lookup(inst.costs.cost, beta, inst.max_cost)
    mask = (inst.cluster_of != inst.cluster_of[0]) * 1.0
    draws = 100_000

    def block(rows):
        return np.tile(tau[0] * eta_where(...)[0] * mask, (rows, 1))

    def relative(rows):
        return _relative_weights(inst.costs.cost[[0]], tau[[0]], mask[None], beta)

    w = block(1)
    _argmax_rows(w, relative)
    sums = w.cumsum(axis=1)
    expected = dict(zip(cand.tolist(), (w[0, cand] / sums[0, -1]).tolist()))
    assert sum(expected.values()) == pytest.approx(1.0, abs=1e-12)

    q, r = rng.random((2, draws))
    roulette = np.flatnonzero(q > 0.0)
    picks = _pick_rows(block(draws), roulette, r[roulette], relative)
    counts = {v: int((picks == v).sum()) for v in (1, 2, 3)}
    within = True
    detail_parts = []
    for node, p in expected.items():
        sigma = (draws * p * (1 - p)) ** 0.5
        dev = abs(counts[node] - draws * p)
        within = within and dev <= 3 * sigma
        detail_parts.append(f"node {node}: {dev / sigma:.2f} sigma")

    argmax_node = max(expected, key=expected.get)
    q, r = rng.random((2, 1000))
    roulette = np.flatnonzero(q > 1.0)
    picks = _pick_rows(block(1000), roulette, r[roulette], relative)
    greedy_hits = int((picks == argmax_node).sum())
    ok = within and greedy_hits == 1000
    report(
        8,
        ok,
        f"roulette deviations [{', '.join(detail_parts)}] (bar 3 sigma); "
        f"argmax picked {greedy_hits}/1000 at q0=1",
    )


def test_cross_module_exact_lower_bounds_all_heuristics():
    # supporting oracle check: the exact optimum bounds every other solver
    rng = np.random.default_rng(20240609)
    for _ in range(10):
        inst = random_matrix_instance(int(rng.integers(8, 14)), 4, rng)
        optimum = exact_solve(inst).cost
        l_nn, nn = nn_reference_cost(inst)
        racs = run(inst, AcoParams(max_iterations=50, seed=0, variant="racs"))
        acs = run(inst, AcoParams(max_iterations=50, seed=0, variant="acs"))
        assert optimum <= min(l_nn, racs.best.cost, acs.best.cost)
        validate_tour(inst, nn.nodes)
