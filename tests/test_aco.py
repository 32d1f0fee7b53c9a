import itertools
import json
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
import gtsp.instance
from gtsp.aco import (
    _argmax_rows,
    _filtered_inverse_cdf,
    _global_deposit,
    _inverse_cdf,
    _local_deposit,
    _pick_rows,
    _relative_weights,
    _relax,
    _trail_bounds,
    _visibility_lookup,
    evaporation_reinit,
    iterate,
)

from oracles import lockstep_run, random_cost_instance, random_matrix_instance, trap_instance


def two_candidate_instance():
    # current node 0; candidates 1 (cost 1) and 2 (cost 2) in one cluster
    cost = np.array([[0, 1, 2], [1, 0, 5], [2, 5, 0]])
    return GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))


def fresh_trails(instance, value=0.5):
    return np.full((instance.n, instance.n), value)


def ant_tours(it) -> list[tuple[int, ...]]:
    """Each ant's tour in the `Iteration` `it`, as a node tuple."""
    return [tuple(nodes) for nodes in it.paths.T.tolist()]


# The ant step of `iterate`, for one ant (one row) at a time: the candidates of
# its node mask, the masked weight row it gathers, then `_pick_rows`, and the
# trail writes through `_relax`. `TestChooseNext::test_run_steps_match_these_helpers`
# and `TestGlobalUpdate::test_run_reinforces_the_incumbent_cycle` check that
# `iterate` does the same.


def candidates(instance, *visited):
    """The nodes of the clusters none of `visited` is in, ascending."""
    mask = np.ones(instance.n, dtype=bool)
    for v in visited:
        mask[instance.cluster_arrays[instance.cluster_of[v]]] = False
    return mask.nonzero()[0]


def step_weights(instance, tau, current, cand, beta):
    """The (1, n) weight row `iterate` gathers from `current`: trail times
    visibility^beta (from `_visibility_lookup`, as in `iterate`) on `cand`, 0.0
    on the nodes of visited clusters."""
    _, eta_where = _visibility_lookup(instance.costs.cost, beta, instance.max_cost)
    row = np.zeros((1, instance.n))
    row[0, cand] = tau[current, cand] * eta_where(...)[current, cand]
    return row


def rescue(instance, tau, current, cand, beta):
    """The row rescue `iterate` hands `_pick_rows` for that one row."""
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
    """One step's pick, drawing q and then r from `rng` as `iterate` does."""
    q, r = rng.random(2)
    roulette = np.flatnonzero([q > q0])
    return int(_pick_rows(
        step_weights(instance, tau, current, cand, beta), roulette, np.array([r])[roulette],
        rescue(instance, tau, current, cand, beta),
    )[0])


@pytest.fixture(scope="class", params=[0, gtsp.aco._FILTER_NODES],
                ids=["every-row-filtered", "default-width"])
def roulette_paths(request):
    """Run a test class on both roulette paths of `_pick_rows`: with
    `_FILTER_NODES` at 0 every roulette row takes `_filtered_inverse_cdf`, at
    its default the tests' narrow rows take `_inverse_cdf`. Class-scoped, so
    that hypothesis tests may use it."""
    default = gtsp.aco._FILTER_NODES
    gtsp.aco._FILTER_NODES = request.param
    yield request.param
    gtsp.aco._FILTER_NODES = default


def drawn_shapes(monkeypatch) -> list[tuple]:
    """The shape of each uniform block the colony draws from now on: the
    generators `np.random.default_rng` makes record each `random` call."""
    shapes = []
    make = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = make(seed)

        def random(self, size):
            shapes.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return shapes


def trail_store(tau, symmetric):
    """The store `iterate` keeps of the (n, n) trails `tau`, with its pair
    offsets: the upper triangle on a symmetric instance, else every entry."""
    n = tau.shape[0]
    if not symmetric:
        return tau.ravel().copy(), None
    return tau[np.triu_indices(n, 1)], gtsp.aco._pair_offsets(n)


def relax_trails(tau, pairs, keep, add, symmetric=True) -> float:
    """`_relax` on the trails alone: `tau` packed into the trail store, the
    edges (i, j) of `pairs` written in order, with a throwaway weight matrix
    and visibility 1, and the store unpacked into `tau`, its diagonal kept."""
    n = tau.shape[0]
    store, off = trail_store(tau, symmetric)
    rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
    top = _relax(memoryview(store), memoryview(np.empty(tau.size)), rows, cols, n,
                 None if off is None else off.tolist(), ([1.0], [0] * tau.size), keep, add)
    diagonal = np.diag(tau).copy()
    tau[...] = gtsp.aco._store_rows(store, range(n), n, 0.0)
    np.fill_diagonal(tau, diagonal)
    return top


def local_write(tau, edge, rho, l_plus, n, variant, tau0, symmetric=True) -> None:
    relax_trails(tau, [edge], 1.0 - rho, rho * _local_deposit(variant, n, l_plus, tau0),
                 symmetric)


def global_write(tau, best, rho, symmetric=True) -> None:
    """Every edge of `best`, closing edge included, toward `_global_deposit`."""
    nodes = best.nodes
    relax_trails(tau, list(zip(nodes, nodes[1:] + nodes[:1])), 1.0 - rho,
                 rho * _global_deposit(best.cost), symmetric)


class TestTransitionDistribution:
    def test_beta_one(self):
        inst = two_candidate_instance()
        probs = distribution(inst, fresh_trails(inst), 0, candidates(inst, 0), beta=1.0)
        assert probs[1] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_beta_five(self):
        inst = two_candidate_instance()
        probs = distribution(inst, fresh_trails(inst), 0, candidates(inst, 0), beta=5.0)
        assert probs[1] == pytest.approx(32 / 33, abs=1e-12)
        assert probs[2] == pytest.approx(1 / 33, abs=1e-12)

    def test_single_candidate(self):
        cost = np.array([[0, 4], [4, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1,)))
        probs = distribution(inst, fresh_trails(inst), 0, candidates(inst, 0), beta=5.0)
        assert probs == {1: 1.0}

    def test_zero_cost_edge_clamps_visibility(self):
        cost = np.array([[0, 0, 2], [0, 0, 5], [2, 5, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))
        probs = distribution(inst, fresh_trails(inst), 0, candidates(inst, 0), beta=1.0)
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
        tau, cand = fresh_trails(inst), candidates(inst, 0)
        picks = {
            pick(inst, tau, 0, cand, 5.0, 1.0, np.random.default_rng(seed)) for seed in range(50)
        }
        assert picks == {1}  # argmax of tau * eta^beta

    def test_argmax_tie_breaks_to_lowest_id(self):
        cost = np.array([[0, 3, 3], [3, 0, 1], [3, 1, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1, 2)))
        tau, cand = fresh_trails(inst), candidates(inst, 0)
        assert pick(inst, tau, 0, cand, 5.0, 1.0, np.random.default_rng(0)) == 1

    def test_pure_exploration_follows_inverse_cdf(self):
        # weights 0.5 and 0.25: node 1 wins when its running sum exceeds r * 0.75
        inst = two_candidate_instance()
        tau, cand = fresh_trails(inst), candidates(inst, 0)
        for seed in range(40):
            picked = pick(inst, tau, 0, cand, 1.0, 0.0, np.random.default_rng(seed))
            _, r = np.random.default_rng(seed).random(2)  # q, then r
            expected = 1 if 0.5 > r * 0.75 else 2
            assert picked == expected

    def test_replay_determinism(self):
        rng = np.random.default_rng(9)
        inst = random_matrix_instance(12, 4, rng)
        tau, cand = fresh_trails(inst), candidates(inst, 3)
        a = pick(inst, tau, 3, cand, 5.0, 0.5, np.random.default_rng(77))
        b = pick(inst, tau, 3, cand, 5.0, 0.5, np.random.default_rng(77))
        assert a == b

    def test_empirical_frequencies_match_distribution(self):
        inst = two_candidate_instance()
        tau, cand = fresh_trails(inst), candidates(inst, 0)
        rng = np.random.default_rng(123)
        draws = 20_000
        hits = sum(pick(inst, tau, 0, cand, 1.0, 0.0, rng) == 1 for _ in range(draws))
        p = 2 / 3
        sigma = (draws * p * (1 - p)) ** 0.5
        assert abs(hits - draws * p) < 4 * sigma

    @pytest.mark.usefixtures("roulette_paths")
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_run_steps_match_these_helpers(self, symmetric):
        # replay a run: at each step every ant's row of the `_pick_rows` block
        # is the row built above, from the trails after all the writes of the
        # earlier steps; the step's writes then follow in ant order
        inst = random_matrix_instance(8, 3, np.random.default_rng(31), symmetric=symmetric)
        params = AcoParams(num_ants=5, max_iterations=3, seed=6, variant="racs")
        blocks = []
        real_pick = gtsp.aco._pick_rows

        def recorded(w, *rest):
            blocks.append(w.copy())
            return real_pick(w, *rest)

        with mock.patch.object(gtsp.aco, "_pick_rows", recorded):
            iterations = [(ant_tours(it), it.incumbent)
                          for it in itertools.islice(iterate(inst, params), 3)]
        l_plus, _ = nn_reference_cost(inst)
        tau0, tau_max = _trail_bounds(inst.n, l_plus, params.rho)
        tau = np.full((inst.n, inst.n), tau0)
        steps = iter(blocks)
        for paths, best in iterations:
            for s in range(1, inst.p):
                block = next(steps)
                assert block.shape == (params.num_ants, inst.n)
                for row, path in zip(block, paths):
                    cand = candidates(inst, *path[:s])
                    expected = step_weights(inst, tau, path[s - 1], cand, params.beta)
                    assert np.array_equal(row, expected[0])
                for path in paths:
                    local_write(tau, (path[s - 1], path[s]), params.rho, l_plus,
                                inst.n, params.variant, tau0, symmetric)
            for path in paths:
                local_write(tau, (path[-1], path[0]), params.rho, l_plus,
                            inst.n, params.variant, tau0, symmetric)
            global_write(tau, best, params.rho, symmetric)
            evaporation_reinit(tau, tau0, tau_max)
            l_plus = best.cost
        assert next(steps, None) is None


@pytest.mark.usefixtures("roulette_paths")
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


class TestFilteredRoulette:
    """`_filtered_inverse_cdf` against the exact rule, `_inverse_cdf`, on
    adversarial rows: widths around the block size and the width rule,
    mostly-zero rows, tiny and subnormal totals, and draws at the ends of
    [0, 1) or exactly on a running sum."""

    WIDTHS = [1, 63, 64, 65, 1023, 1024, 2001]
    TINY = 5e-324

    @staticmethod
    def adversarial_rows(seed, width, rows, zeros, scale, power):
        """`rows` rows of `width` weights scale * u^power, u uniform, with
        about the fraction `zeros` of them set to 0.0 (each row keeps one
        positive weight); a scale of TINY gives integer multiples of the
        smallest subnormal, so subnormal totals."""
        rng = np.random.default_rng(seed)
        if scale == TestFilteredRoulette.TINY:
            w = rng.integers(0, 4, size=(rows, width)) * scale
        else:
            w = scale * rng.random((rows, width)) ** power
        w[rng.random((rows, width)) < zeros] = 0.0
        keep = rng.integers(width, size=rows)
        w[np.arange(rows), keep] = np.maximum(w[np.arange(rows), keep], scale)
        return w

    @staticmethod
    def draws(w, kinds, seed):
        """One r per row: 0, 2^-53, 1 - 2^-53, uniform, or r = c_j / T for a
        running sum c_j and total T of the row, which puts the bar on c_j
        (or next to it)."""
        rng = np.random.default_rng(seed)
        c = np.add.accumulate(w, axis=1)
        out = []
        for row, kind in zip(c, kinds):
            if kind == "prefix":
                out.append(min(row[rng.integers(len(row))] / row[-1], np.nextafter(1.0, 0.0)))
            else:
                out.append({"zero": 0.0, "ulp": 2.0**-53, "last": 1.0 - 2.0**-53,
                            "uniform": rng.random()}[kind])
        return np.array(out)

    def test_filter_equals_the_exact_rule(self):
        exact = _inverse_cdf
        fallback_rows = []
        filtered_rows = []

        def counted(rows, r):
            fallback_rows.append(len(rows))
            return exact(rows, r)

        @settings(max_examples=400)
        @given(
            seed=st.integers(0, 2**32 - 1),
            width=st.sampled_from(self.WIDTHS),
            rows=st.integers(1, 4),
            zeros=st.sampled_from([0.0, 0.5, 0.9, 0.98]),
            scale=st.sampled_from([1.0, 1e-8, 1e-250, 1e-300, self.TINY]),
            power=st.sampled_from([1.0, 5.0, 40.0]),
            # uniform draws, which the bound mostly certifies, half the time
            kinds=st.lists(st.sampled_from(["zero", "ulp", "last", "prefix"] + ["uniform"] * 4),
                           min_size=4, max_size=4),
        )
        @example(seed=0, width=64, rows=2, zeros=0.0, scale=1.0, power=1.0,
                 kinds=["prefix", "uniform", "zero", "zero"])
        def check(seed, width, rows, zeros, scale, power, kinds):
            w = self.adversarial_rows(seed, width, rows, zeros, scale, power)
            r = self.draws(w, kinds[:rows], seed)
            with mock.patch.object(gtsp.aco, "_inverse_cdf", counted):
                picks = _filtered_inverse_cdf(w, r)
            filtered_rows.append(rows)
            assert picks == exact(w, r).tolist()
            assert picks == [TestRowPick.inverse_cdf(row, x) for row, x in zip(w.tolist(), r)]

        check()
        # both branches ran: rows the bound certified and rows it sent back
        assert 0 < sum(fallback_rows) < sum(filtered_rows)

    def test_bar_on_a_running_sum_falls_back(self):
        # r = c_j / T puts the bar on (or within an ulp of) a running sum:
        # no error bound can decide that row, so the exact rule does
        w = np.linspace(1.0, 2.0, 2001)[None, :]
        c = np.add.accumulate(w, axis=1)[0]
        r = np.array([c[1000] / c[-1]])
        with mock.patch.object(gtsp.aco, "_inverse_cdf", wraps=_inverse_cdf) as exact:
            assert _filtered_inverse_cdf(w, r) == _inverse_cdf(w, r).tolist()
        assert exact.call_count == 1

    def test_width_rule_picks_the_path(self):
        # rows at least _FILTER_NODES wide take the filter, narrower ones do not
        calls = []
        real = gtsp.aco._filtered_inverse_cdf

        def recorded(rows, r):
            calls.append(rows.shape[1])
            return real(rows, r)

        rng = np.random.default_rng(5)
        with mock.patch.object(gtsp.aco, "_filtered_inverse_cdf", recorded):
            for width in (gtsp.aco._FILTER_NODES - 1, gtsp.aco._FILTER_NODES):
                w = rng.random((3, width))
                _pick_rows(w, np.array([0, 2]), np.array([0.3, 0.7]), lambda rows: pytest.fail())
        assert calls == [gtsp.aco._FILTER_NODES]


class TestLocalUpdate:
    def test_racs_correction(self):
        tau = fresh_trails(two_candidate_instance(), value=0.04)
        local_write(tau, (0, 1), rho=0.5, l_plus=5, n=10, variant="racs", tau0=0.04)
        assert tau[0, 1] == pytest.approx(0.03, abs=1e-15)
        assert tau[1, 0] == tau[0, 1]  # symmetric instance mirrors

    def test_racs_fixed_point(self):
        deposit = 1.0 / (10 * 5)
        tau = fresh_trails(two_candidate_instance(), value=deposit)
        local_write(tau, (0, 1), rho=0.5, l_plus=5, n=10, variant="racs", tau0=deposit)
        assert tau[0, 1] == deposit

    def test_acs_fixed_point_at_tau0(self):
        tau = fresh_trails(two_candidate_instance(), value=0.125)
        local_write(tau, (0, 1), rho=0.5, l_plus=999, n=10, variant="acs", tau0=0.125)
        assert tau[0, 1] == 0.125

    def test_repeated_write_equals_writes_one_by_one(self):
        # an edge three ants wrote in one step, next to an edge written once
        tau = fresh_trails(two_candidate_instance(), value=0.04)
        one_by_one = tau.copy()
        for edge in [(0, 1), (0, 1), (0, 2), (0, 1)]:
            relax_trails(one_by_one, [edge], 0.7, 0.009, symmetric=False)
        top = relax_trails(tau, [(0, 1), (0, 1), (0, 2), (0, 1)], 0.7, 0.009, symmetric=False)
        assert tau.tobytes() == one_by_one.tobytes()
        assert top == max(tau[0, 1], tau[0, 2])

    def test_weights_follow_the_trails(self):
        # both places of an edge get the new trail times its visibility
        tau = np.full(3, 0.04)  # the pairs (0, 1), (0, 2), (1, 2) of n = 3
        weight = np.zeros(9)
        # the flat edges 1, 2, 3 with mirrors 3, 6, 1, of visibility 0.5, 0.25, 0.5
        vis = [0.0, 0.5, 0.25, 0.5, 0.0, 0.0, 0.25, 0.0, 0.0]
        top = _relax(memoryview(tau), memoryview(weight), [0, 0, 1], [1, 2, 0], 3, [-1, 0, 0],
                     (vis, range(9)), 0.7, 0.009)
        # (0, 1) and (1, 0) are one pair, written twice; (1, 2) is untouched
        assert tau[0] == 0.7 * (0.7 * 0.04 + 0.009) + 0.009 and tau[2] == 0.04
        assert weight[1] == weight[3] == tau[0] * 0.5
        assert weight[2] == weight[6] == tau[1] * 0.25
        # the largest value written, not the last: each write falls toward 0.03
        assert top == 0.7 * 0.04 + 0.009 == tau[1] > tau[0]

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_pair_offsets_number_the_upper_triangle(self, n):
        # pair a < b at off[a] + b, in row-major order, and each row of the
        # matrix the store holds reads the pair's entry from both sides
        off = gtsp.aco._pair_offsets(n)
        a, b = np.triu_indices(n, 1)
        assert (off[a] + b).tolist() == list(range(n * (n - 1) // 2))
        square = gtsp.aco._store_rows(np.arange(n * (n - 1) // 2), range(n), n, -1)
        assert square[a, b].tolist() == square[b, a].tolist() == list(range(len(a)))
        assert np.diag(square).tolist() == [-1] * n
        rows = gtsp.aco._store_rows(np.arange(n * (n - 1) // 2), [n - 1, 0], n, -1)
        assert rows.tolist() == square[[n - 1, 0]].tolist()

    @settings(max_examples=120)
    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), symmetric=st.booleans(),
        matrix=st.booleans(), keep=st.floats(0.01, 0.99), add=st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_relax_equals_a_numpy_scalar_loop(self, seed, n, symmetric, matrix, keep, add, data):
        # a largest cost of n^2 / 2 - 1 takes the table path, of n^2 the n x n one
        rng = np.random.default_rng(seed)
        top_cost = n * n if matrix else n * n // 2 - 1
        cost = rng.integers(0, top_cost + 1, size=(n, n))
        cost[0, 1] = top_cost
        if symmetric:
            cost = np.triu(cost, 1) + np.triu(cost, 1).T
        np.fill_diagonal(cost, 0)
        costs = CostMatrix(cost)
        visibility, _ = _visibility_lookup(costs.cost, 5.0, costs.max_cost)
        assert isinstance(visibility[1], range) == matrix
        # an edge joins two nodes: the colony writes no (a, a)
        node = st.integers(0, n - 1)
        edge = st.tuples(node, node).filter(lambda e: e[0] != e[1])
        edges = data.draw(st.lists(edge, min_size=1, max_size=6))
        # repeat some edges and add the mirrors of some, in a drawn order
        extra = data.draw(st.lists(st.sampled_from(edges), max_size=6))
        edges = data.draw(st.permutations(edges + extra + [(b, a) for a, b in extra[::2]]))
        tau, weight = rng.random((n, n)), rng.random(n * n)
        if costs.symmetric:
            tau = np.triu(tau, 1) + np.triu(tau, 1).T
        ours_tau, off = trail_store(tau, costs.symmetric)
        tau, ours_weight = tau.ravel(), weight.copy()
        rows, cols = [a for a, _ in edges], [b for _, b in edges]
        top = _relax(memoryview(ours_tau), memoryview(ours_weight), rows, cols, n,
                     None if off is None else off.tolist(), visibility, keep, add)
        # the rule on numpy scalars, with the whole visibility^beta matrix
        eta = gtsp.aco._visibility_pow(costs.cost, 5.0).ravel()
        expected = np.float64(0.0)
        for a, b in edges:
            e = a * n + b
            m = b * n + a if costs.symmetric else e
            t = np.float64(keep) * tau[e] + np.float64(add)
            tau[e] = tau[m] = t
            weight[e] = weight[m] = t * eta[e]
            expected = max(expected, t)
        assert ours_tau.tobytes() == trail_store(tau.reshape(n, n), costs.symmetric)[0].tobytes()
        assert ours_weight.tobytes() == weight.tobytes()
        assert np.float64(top).tobytes() == expected.tobytes()

    def test_asymmetric_updates_one_direction(self):
        tau = fresh_trails(two_candidate_instance(), value=0.04)
        local_write(tau, (0, 1), rho=0.5, l_plus=5, n=10, variant="racs", tau0=0.04,
                    symmetric=False)
        assert tau[0, 1] == pytest.approx(0.03, abs=1e-15)
        assert tau[1, 0] == 0.04

    @given(
        st.floats(1e-8, 10.0), st.floats(0.01, 0.99),
        st.integers(1, 10**6), st.integers(2, 10**4),
    )
    def test_convex_combination_bound(self, value, rho, l_plus, n):
        tau = fresh_trails(two_candidate_instance(), value=value)
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
        tau = fresh_trails(inst, value=0.03)
        global_write(tau, make_tour(inst, [0, 1, 2, 3]), rho=0.5)  # cost 4
        assert tau[0, 1] == pytest.approx(0.015 + 0.125, abs=1e-15)
        assert tau[3, 0] == pytest.approx(0.14, abs=1e-15)  # closing edge included

    def test_off_tour_edges_untouched(self):
        inst = self.four_node_tour_instance()
        tau = fresh_trails(inst, value=0.03)
        global_write(tau, make_tour(inst, [0, 1, 2, 3]), rho=0.5)
        assert tau[0, 2] == 0.03
        assert tau[1, 3] == 0.03

    def test_repeated_application_converges_to_deposit(self):
        inst = self.four_node_tour_instance()
        tau = fresh_trails(inst, value=0.03)
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

        def recorded(tau, weight, rows, cols, n, off, visibility, keep, add):
            # each pair is one entry of the store exactly on symmetric instances
            assert (n, off is not None) == (inst.n, symmetric)
            writes.append((list(zip(rows, cols)), keep, add))
            return real_relax(tau, weight, rows, cols, n, off, visibility, keep, add)

        with mock.patch.object(gtsp.aco, "_relax", recorded):
            best = run(inst, params).best
        nodes = best.nodes
        cycle = list(zip(nodes, nodes[1:] + nodes[:1]))
        add = params.rho * _global_deposit(best.cost)
        # one call per step of all ants, each edge of it in ant order
        assert len(writes) == inst.p + 1
        assert sum(len(pairs) for pairs, *_ in writes) == (params.num_ants + 1) * inst.p
        assert writes[-1] == (cycle, 0.75, add)
        assert all(w[2] < add for w in writes[:-1])  # the local writes deposit less


class TestEvaporationReinit:
    def test_at_bound_is_kept(self):
        tau = fresh_trails(two_candidate_instance(), value=0.2)
        reset = evaporation_reinit(tau, 0.2, 0.2)
        assert (tau == 0.2).all()
        assert reset.shape == tau.shape and not reset.any()

    def test_above_bound_resets_entry(self):
        tau = fresh_trails(two_candidate_instance(), value=0.1)
        tau[0, 1] = 0.2 * 1.01
        reset = evaporation_reinit(tau, 0.05, 0.2)
        assert np.array_equal(np.argwhere(reset), [[0, 1]])  # the entries it reset
        assert tau[0, 1] == 0.05  # back to tau0
        assert tau[1, 0] == 0.1  # untouched entries keep their value
        assert (tau <= 0.2).all()

    def test_fresh_matrix_unchanged(self):
        rng = np.random.default_rng(1)
        inst = random_matrix_instance(8, 3, rng)
        l_nn, _ = nn_reference_cost(inst)
        tau0, tau_max = _trail_bounds(inst.n, l_nn, rho=0.5)
        assert tau0 < tau_max  # tau0 / tau_max = (1 - rho) / n < 1
        tau = np.full((inst.n, inst.n), tau0)
        evaporation_reinit(tau, tau0, tau_max)
        assert (tau == tau0).all()


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

    def test_an_int_for_a_float_field_becomes_a_float(self):
        params = AcoParams(beta=5, time_max=2, max_iterations=1)
        assert json.loads(run(two_candidate_instance(), params).to_json())["params"] == {
            **params.to_dict(), "beta": 5.0, "time_max": 2.0}
        assert (type(params.beta), type(params.time_max)) == (float, float)

    # every numeric field as a numpy scalar
    NUMPY_SCALARS = dict(beta=np.float32(2.5), rho=np.float32(0.1), q0=np.float16(0.25),
                         num_ants=np.int64(3), time_max=np.float32(60.0),
                         max_iterations=np.int32(3), seed=np.uint16(4))

    @pytest.mark.parametrize("field", list(NUMPY_SCALARS))
    def test_numpy_scalars_run_as_python_numbers(self, field):
        # a numpy scalar kept as given would fail the JSON record, and a
        # float32 rho would write every trail in float32
        value = self.NUMPY_SCALARS[field]
        base = dict(num_ants=3, max_iterations=3, seed=4, time_max=60.0)
        ours = AcoParams(**{**base, field: value})
        plain = AcoParams(**{**base, field: value.item()})
        assert type(getattr(ours, field)) is type(value.item())
        inst = random_matrix_instance(12, 4, np.random.default_rng(43))
        record = run(inst, ours).to_json(include_elapsed=False)
        assert record == run(inst, plain).to_json(include_elapsed=False)


class TestRun:
    def test_zero_iterations_returns_nn_incumbent(self):
        rng = np.random.default_rng(21)
        inst = random_matrix_instance(10, 4, rng)
        _, nn = nn_reference_cost(inst)
        result = run(inst, AcoParams(max_iterations=0, seed=1))
        assert result.best == nn
        assert result.iterations == 0
        assert result.trace == []

    def test_zero_time_budget_returns_nn_without_building_the_colony(self):
        # n = 1000: one n x n float64 matrix is 8 MB, and the trails and the
        # weights would be two of them
        _, inst = generate_instance(1000, 200, seed=3)
        tracemalloc.start()
        try:
            result = run(inst, AcoParams(time_max=0.0, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _, nn = nn_reference_cost(inst)
        assert (result.best, result.iterations, result.trace) == (nn, 0, [])
        assert peak < 8 * inst.n * inst.n

    @pytest.mark.parametrize("symmetric, per_pair", [(True, 12), (False, 16)])
    def test_set_up_holds_the_trails_and_weights_and_block_temporaries(
        self, monkeypatch, symmetric, per_pair
    ):
        # the trails take 8 bytes per node pair on an asymmetric instance and
        # 4 on a symmetric one, whose store holds each pair once; the weights
        # 8 on both. The weights are seeded row block by row block: each
        # block's gather stays within one budget, where a whole-matrix gather
        # would add an 8 MB index copy; the first draw block, alive with its
        # index arrays through the first iteration, stays within one budget too
        if symmetric:
            _, inst = generate_instance(1000, 200, seed=3)
        else:
            inst = random_matrix_instance(1000, 200, np.random.default_rng(3), symmetric=False)
        assert inst.costs.symmetric == symmetric
        shapes = drawn_shapes(monkeypatch)
        colony = iterate(inst, AcoParams(seed=1))
        tracemalloc.start()
        try:
            next(colony)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < per_pair * inst.n * inst.n + 2 * gtsp.instance.BLOCK_BYTES + (1 << 20)
        (shape,) = shapes
        assert shape[1:] == (inst.p, 10, 2) and shape[0] > 1
        assert 8 * math.prod(shape) <= gtsp.instance.BLOCK_BYTES

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
            colony = iterate(inst, AcoParams(seed=seed))
            return [ant_tours(it) for it in itertools.islice(colony, 3)]

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
        params = AcoParams(beta=beta, variant=variant, max_iterations=50, seed=seed)
        for it in itertools.islice(iterate(inst, params), 50):
            assert (it.tau > 0).all()
            assert (it.tau <= it.tau_max).all()
            for nodes, length in zip(ant_tours(it), it.lengths.tolist()):
                validate_tour(inst, nodes)
                assert tour_cost(inst, nodes) == length
            assert not seen or it.incumbent.cost <= seen[-1]
            seen.append(it.incumbent.cost)
        result = run(inst, params)
        assert seen == result.trace
        assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))

    def test_ten_thousand_constructions_stay_feasible(self):
        rng = np.random.default_rng(27)
        inst = random_matrix_instance(15, 5, rng)
        counted = 0
        for it in itertools.islice(iterate(inst, AcoParams(seed=8)), 1000):
            for nodes, length in zip(ant_tours(it), it.lengths.tolist()):
                validate_tour(inst, nodes)
                assert tour_cost(inst, nodes) == length
                counted += 1
        assert counted == 10_000

    @pytest.mark.parametrize("observed", [False, True])
    def test_make_tour_only_for_a_new_incumbent(self, observed):
        # observed: the caller watches every iteration through `iterate`
        # instead of taking `run`'s record
        rng = np.random.default_rng(30)
        inst = random_matrix_instance(15, 5, rng)
        calls = []
        make_tour = gtsp.aco.make_tour
        params = AcoParams(max_iterations=50, seed=2)
        with mock.patch.object(
            gtsp.aco, "make_tour", lambda *a: calls.append(1) or make_tour(*a)
        ):
            if observed:
                colony = itertools.islice(iterate(inst, params), params.max_iterations)
                trace = [it.incumbent.cost for it in colony]
            else:
                trace = run(inst, params).trace
        before = [nn_reference_cost(inst)[0]] + trace
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


class TestDrawBlocks:
    """`iterate` draws the uniforms of many iterations at once; where a block
    ends changes nothing."""

    @staticmethod
    def stream(inst, params, iterations):
        """Per iteration the ant tours, lengths, incumbent and reset mask, then
        the final trail bytes."""
        seen = []
        for it in itertools.islice(iterate(inst, params), iterations):
            seen.append((ant_tours(it), it.lengths.tolist(), it.incumbent,
                         None if it.reset is None else it.reset.tobytes()))
        return seen, it.tau.tobytes()

    @pytest.mark.parametrize("trap", [False, True])
    @pytest.mark.parametrize("budget", [None, 4])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_block_boundaries_change_no_iteration(self, chunk, budget, trap, monkeypatch):
        inst = trap_instance(True) if trap else random_matrix_instance(
            12, 4, np.random.default_rng(40))
        params = AcoParams(num_ants=3, max_iterations=budget, seed=7)
        iterations = 7  # past the budget: the colony goes on after it
        expected = self.stream(inst, params, iterations)
        assert trap == any(reset is not None for *_, reset in expected[0])
        monkeypatch.setattr(gtsp.instance, "BLOCK_BYTES", chunk * inst.p * 3 * 16)
        shapes = drawn_shapes(monkeypatch)
        assert self.stream(inst, params, iterations) == expected
        assert shapes == [(chunk, inst.p, 3, 2)] * -(-iterations // chunk)

    def test_a_block_holds_at_most_the_budgeted_iterations(self, monkeypatch):
        inst = random_matrix_instance(12, 4, np.random.default_rng(41))
        shapes = drawn_shapes(monkeypatch)
        list(itertools.islice(iterate(inst, AcoParams(max_iterations=5, seed=1)), 12))
        assert shapes == [(5, 4, 10, 2)] * 3
        shapes.clear()
        next(iterate(inst, AcoParams(max_iterations=0, seed=1)))
        assert shapes == [(1, 4, 10, 2)]


class TestTrailBound:
    """Every trail write is (1 - rho) * t + rho * d with a target d of tau0,
    1/(n * L+) or 1/L+, so no trail goes above max(tau0, 1/L+), and a reinit
    needs L+ < (1 - rho) * L_nn."""

    @staticmethod
    def assert_bounded(inst, params, iterations):
        l_nn = nn_reference_cost(inst)[0]
        tau0, _ = _trail_bounds(inst.n, l_nn, params.rho)
        resets = 0
        for it in itertools.islice(iterate(inst, params), iterations):
            bound = max(tau0, _global_deposit(it.incumbent.cost))
            assert it.tau.max() <= np.nextafter(bound, np.inf)
            if it.incumbent.cost >= (1 - params.rho) * l_nn:
                assert it.reset is None
            resets += it.reset is not None
        return resets

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16), p=st.integers(2, 6),
           symmetric=st.booleans(), variant=st.sampled_from(["acs", "racs"]),
           rho=st.sampled_from([0.1, 0.5, 0.9]), q0=st.sampled_from([0.0, 0.5, 1.0]),
           high=st.sampled_from([3, 10, 100]))
    def test_trails_stay_within_the_best_deposit(self, seed, n, p, symmetric, variant, rho,
                                                 q0, high):
        rng = np.random.default_rng(seed)
        inst = random_matrix_instance(n, min(p, n), rng, symmetric=symmetric, high=high)
        params = AcoParams(rho=rho, q0=q0, variant=variant, num_ants=3, seed=seed)
        self.assert_bounded(inst, params, 40)

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("variant", ["acs", "racs"])
    def test_trap_resets_only_below_the_threshold(self, variant, rho):
        # L_nn = 103 and the optimum 6 < (1 - rho) * 103 at every rho here
        params = AcoParams(rho=rho, variant=variant, num_ants=3, seed=5)
        assert self.assert_bounded(trap_instance(True), params, 200) > 0


def traced_run(inst, params):
    """`run`'s record plus, from `iterate` over the same budget, every ant
    tour, the final trail bytes and, for each reinitialization, how many
    trail entries it reset. The incumbents `iterate` yields must be `run`'s
    trace."""
    result = run(inst, params)
    tours, resets, incumbents = [], [], []
    for it in itertools.islice(iterate(inst, params), params.max_iterations):
        tours.append(ant_tours(it))
        if it.reset is not None:
            resets.append(int(it.reset.sum()))
        incumbents.append(it.incumbent.cost)
    assert incumbents == result.trace
    return result.to_json(include_elapsed=False), tours, it.tau.tobytes(), resets


def traced_reference(inst, params):
    result, tau, resets, tours = lockstep_run(inst, params)
    return result.to_json(include_elapsed=False), tours, tau.tobytes(), resets


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


def reference_case(seed, n, p, symmetric, variant, q0, beta, num_ants, iterations, rho):
    rng = np.random.default_rng(seed)
    inst = random_matrix_instance(n, min(p, n), rng, symmetric=symmetric)
    params = AcoParams(
        beta=beta, q0=q0, variant=variant, num_ants=num_ants,
        max_iterations=iterations, seed=seed, rho=rho,
    )
    return inst, params


def assert_matches_reference(**case):
    """The result record, the ant tours, the final trails and the
    reinitializations (each call and the entries it reset) must match."""
    inst, params = reference_case(**case)
    assert traced_run(inst, params) == traced_reference(inst, params)


@pytest.mark.usefixtures("roulette_paths")
class TestReferenceEquivalence:
    """`iterate`'s (ants, n) kernel, and `run` driving it, against the
    plain-loop lockstep colony in oracles.py."""

    @settings(max_examples=160)
    @given(**REFERENCE_CASES)
    @example(seed=1, n=2, p=2, symmetric=True, variant="racs", q0=0.5,
             beta=5.0, num_ants=1, iterations=3, rho=0.5)
    @example(seed=2, n=7, p=7, symmetric=False, variant="acs", q0=0.0,
             beta=12.0, num_ants=3, iterations=4, rho=0.5)
    @example(seed=3, n=20, p=2, symmetric=True, variant="racs", q0=1.0,
             beta=1.0, num_ants=5, iterations=5, rho=0.5)
    @example(seed=4, n=2, p=2, symmetric=True, variant="racs", q0=0.5,
             beta=5.0, num_ants=2, iterations=6, rho=0.9)
    def test_byte_identical_to_reference(self, **case):
        assert_matches_reference(**case)

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
            colony = itertools.islice(iterate(inst, AcoParams(seed=100_000)), iterations)
            return sum(it.reset is not None for it in colony)

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

    @pytest.mark.parametrize("top", [11, 12, 13, 24, 25, 26])
    def test_visibility_table_boundary(self, top):
        # n = 5: with a largest cost of 11, the two visibility tables of 12
        # values each fit in n^2 cells, at 12 they do not; 24 | 25 is where
        # one table of n^2 values stops fitting
        inst = random_cost_instance(5, 3, top, seed=top)
        for variant in ("acs", "racs"):
            params = AcoParams(variant=variant, num_ants=3, max_iterations=5, seed=top)
            assert traced_run(inst, params) == traced_reference(inst, params)

    @pytest.mark.parametrize("n", [64, 65])
    def test_visibility_tables_hold_no_more_than_the_matrix(self, n):
        def held(top):
            """Bytes of array data `_visibility_lookup` keeps for costs up to `top`."""
            cost = np.zeros((n, n), dtype=np.int16)
            cost[0, 1] = top
            tracemalloc.start()
            lookup = _visibility_lookup(cost, 5.0, top, 0.5)  # alive at the snapshot
            snapshot = tracemalloc.take_snapshot()
            tracemalloc.stop()
            arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
            return sum(t.size for t in snapshot.filter_traces([arrays]).traces)

        matrix = held(n * n)  # far past the boundary: the n x n path
        assert matrix == n * n * 8
        # the last costs of the table path, the first of the n x n path, and
        # the old boundary n^2 - 1 the two tables used to pass at twice the size
        for top in (n * n // 2 - 1, n * n // 2, n * n // 2 + 1, n * n - 1):
            assert held(top) <= matrix

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

    @pytest.mark.parametrize("top", [60, 150])  # n = 12: the table path, the n x n one
    def test_fortran_ordered_costs(self, top):
        # the trail and weight writes index the costs' arrays by i * n + j
        cost = np.random.default_rng(top).integers(1, top + 1, size=(12, 12))
        np.fill_diagonal(cost, 0)
        clusters = tuple(tuple(range(k, 12, 4)) for k in range(4))
        inst = GtspInstance(name="x", costs=CostMatrix(np.asfortranarray(cost)),
                            clusters=clusters)
        params = AcoParams(beta=1.0, max_iterations=20, seed=top)
        assert traced_run(inst, params) == traced_reference(inst, params)

    def test_opposite_asymmetric_edges_are_two_entries(self):
        # ants on nodes 0 and 1 write (0, 1) and (1, 0) in one step
        cost = np.array([[0, 3], [5, 0]])
        inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=((0,), (1,)))
        assert not inst.costs.symmetric
        params = AcoParams(num_ants=4, max_iterations=6, seed=1)
        calls = []
        relax = gtsp.aco._relax

        def recorded(tau, weight, rows, cols, n, *rest):
            calls.append(sorted(a * n + b for a, b in zip(rows, cols)))
            return relax(tau, weight, rows, cols, n, *rest)

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
        tau0, tau_max = _trail_bounds(inst.n, 0, rho=0.5)
        assert (tau0, tau_max) == (1 / 4, 2.0)
        tau = np.full((inst.n, inst.n), tau0)
        local_write(tau, (0, 2), rho=0.5, l_plus=0, n=4, variant="racs", tau0=tau0)
        assert tau[0, 2] == 0.5 * 0.25 + 0.5 * 0.25
        global_write(tau, make_tour(inst, [0, 2]), rho=0.5, symmetric=False)
        assert tau[0, 2] == tau[2, 0] == 0.5 * 0.25 + 0.5 * 1.0

    @pytest.mark.usefixtures("roulette_paths")
    @pytest.mark.parametrize("q0", [0.0, 1.0])
    @pytest.mark.parametrize("variant", ["acs", "racs"])
    @pytest.mark.parametrize("name", ["11EIL51", "asymmetric"])
    def test_beta_underflow_gives_valid_tours(self, name, q0, variant, monkeypatch, data_dir):
        # the rescue reads the current nodes' trail rows, assembled from the
        # trail store, so its tours and trails must be the reference's too
        if name == "11EIL51":
            inst = load_instance_file(data_dir / "eil51.tsp")
        else:
            # costs 10001-10099 off the diagonal: every weight underflows, and
            # (c_min/c)^200 stays above 0.13, so the trails still sway the picks
            base = random_matrix_instance(16, 5, np.random.default_rng(50), symmetric=False)
            cost = base.costs.cost + 10_000 * (1 - np.eye(16, dtype=np.int16))
            inst = GtspInstance(name="x", costs=CostMatrix(cost), clusters=base.clusters)
        assert inst.costs.symmetric == (name == "11EIL51")
        rescued = []
        relative = gtsp.aco._relative_weights
        monkeypatch.setattr(
            gtsp.aco, "_relative_weights", lambda *a: rescued.append(1) or relative(*a)
        )
        params = AcoParams(beta=200.0, q0=q0, variant=variant, seed=4, max_iterations=3)
        # underflow to 0 is the case under test; anything else must not happen
        with np.errstate(all="raise", under="ignore"):
            ours = traced_run(inst, params)
        assert rescued  # some steps had only zero weights
        record, tours, *_ = ours
        seen = [nodes for iteration in tours for nodes in iteration]
        assert len(seen) == 30
        for nodes in seen + [json.loads(record)["nodes"]]:
            validate_tour(inst, nodes)
        trace = json.loads(record)["trace"]
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert ours == traced_reference(inst, params)

    @staticmethod
    def far_step(inst):
        """Node 12 of 11EIL51 with only cluster 0 left: every edge costs at
        least 61, so (1/c)^200 times the trail underflows to 0."""
        l_nn, _ = nn_reference_cost(inst)
        tau0, _ = _trail_bounds(inst.n, l_nn, rho=0.5)
        cand = np.flatnonzero(inst.cluster_of == 0)
        assert inst.costs.cost[12, cand].min() == 61
        return np.full((inst.n, inst.n), tau0), cand

    def test_beta_underflow_distribution_is_finite(self, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        tau, cand = self.far_step(inst)
        with np.errstate(all="raise", under="ignore"):
            assert not step_weights(inst, tau, 12, cand, 200.0).any()
            probs = distribution(inst, tau, 12, cand, beta=200.0)
        assert set(probs) == {int(v) for v in cand}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        # relative visibility (c_min/c)^beta: the cheapest candidate edge wins
        cheapest = int(cand[np.argmin(inst.costs.cost[12, cand])])
        assert probs[cheapest] == max(probs.values()) > 0.5

    @pytest.mark.parametrize("q0", [0.0, 1.0])
    def test_beta_underflow_pick_follows_relative_weights(self, q0, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        tau, cand = self.far_step(inst)
        cheapest = int(cand[np.argmin(inst.costs.cost[12, cand])])
        rng = np.random.default_rng(0)
        with np.errstate(all="raise", under="ignore"):
            picks = [pick(inst, tau, 12, cand, 200.0, q0, rng) for _ in range(200)]
        assert set(picks) <= {int(v) for v in cand}
        if q0 == 1.0:
            assert set(picks) == {cheapest}
        else:
            assert picks.count(cheapest) > 100
        # the rescue draws nothing: each pick used its own q and r only
        replay = np.random.default_rng(0)
        replay.random(2 * 200)
        assert replay.bit_generator.state == rng.bit_generator.state
