import io
import json

import numpy as np
import pytest

from gtsp import (
    DEFAULT_TIME_MAX,
    AcoParams,
    CellCapExceeded,
    ExperimentConfig,
    NodeCoords,
    cluster_instance,
    emit_table,
    euc2d_costs,
    exact_solve,
    format_clustered,
    generate_instance,
    load_instance_file,
    run_experiment,
    sidecar_optimum,
    solve,
)
from gtsp.bench import AlgoResult, RunReport


def small_config(**overrides):
    base = dict(
        instances=[
            {"nodes": 12, "clusters": 4, "seed": 1},
            {"nodes": 10, "clusters": 3, "seed": 2},
        ],
        algorithms=["exact", "nn", "acs", "racs"],
        repetitions=2,
        time_max=None,
        max_iterations=30,
        base_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            small_config(algorithms=["nn", "simulated-annealing"])

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            small_config(repetitions=0)

    def test_rejects_short_seed_list(self):
        with pytest.raises(ValueError, match="seeds"):
            small_config(seeds=[1])

    def test_seed_list_wins_over_base(self):
        cfg = small_config(seeds=[5, 9, 13])
        assert cfg.rep_seeds() == [5, 9]

    def test_base_seed_expansion(self):
        assert small_config().rep_seeds() == [7, 8]

    def test_from_file_resolves_relative_paths(self, tmp_path):
        inst_file = tmp_path / "toy.gtsp"
        coords, inst = generate_instance(nodes=8, clusters=3, seed=0)
        inst_file.write_text(format_clustered(inst.name, coords, inst.clusters))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "instances": ["toy.gtsp"],
            "algorithms": ["nn"],
            "repetitions": 1,
            "output": "results/table",
        }))
        cfg = ExperimentConfig.from_file(cfg_file)
        assert cfg.instances == [str(inst_file)]
        assert cfg.output == str(tmp_path / "results" / "table")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"instances": ["x"], "budget": 3})

    def test_params_is_not_a_config_key(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['params'\]"):
            ExperimentConfig.from_dict({"instances": ["x"], "params": {}})

    def test_defaults_come_from_aco_params(self):
        cfg = ExperimentConfig(instances=["x"])
        assert cfg.params == AcoParams(time_max=DEFAULT_TIME_MAX)

    def test_params_built_from_fields(self):
        cfg = small_config(num_ants=3, beta=2.0, rho=0.25, q0=0.75)
        assert cfg.params == AcoParams(beta=2.0, rho=0.25, q0=0.75, num_ants=3,
                                       time_max=None, max_iterations=30, seed=7)

    @pytest.mark.parametrize("overrides, message", [
        ({"rho": 1.5}, "rho"),
        ({"beta": float("nan")}, "beta"),
        ({"num_ants": 0}, "num_ants"),
        ({"max_iterations": -1}, "max_iterations"),
        ({"max_iterations": None}, "need a stopping rule"),
    ])
    def test_rejects_bad_colony_params_at_load(self, overrides, message):
        # checked for every algorithm list, before any instance is read
        with pytest.raises(ValueError, match=message):
            small_config(algorithms=["nn"], **overrides)


class TestSolve:
    @pytest.fixture(scope="class")
    def inst(self):
        return generate_instance(nodes=12, clusters=4, seed=1)[1]

    @pytest.mark.parametrize("algo", ["exact", "nn"])
    def test_deterministic_algorithms_carry_no_colony_fields(self, inst, algo):
        result = solve(inst, algo, AcoParams(max_iterations=5))
        assert (result.iterations, result.trace, result.params) == (None, None, None)
        assert result.elapsed >= 0.0
        assert set(result.to_dict()) == {"cost", "nodes", "elapsed_seconds"}

    def test_exact_is_optimal_and_nn_is_the_reference(self, inst):
        params = AcoParams(max_iterations=5)
        assert solve(inst, "exact", params).tour == exact_solve(inst)
        assert solve(inst, "nn", params).tour.cost >= exact_solve(inst).cost

    @pytest.mark.parametrize("algo", ["acs", "racs"])
    def test_colony_runs_under_the_named_variant(self, inst, algo):
        result = solve(inst, algo, AcoParams(max_iterations=6, seed=2, variant="racs"))
        assert result.params == AcoParams(max_iterations=6, seed=2, variant=algo)
        assert result.iterations == 6 and len(result.trace) == 6
        assert result.trace[-1] == result.tour.cost
        record = result.to_dict(include_elapsed=False)
        assert record["seed"] == 2 and record["params"]["variant"] == algo

    def test_exact_refusal_raises(self):
        _, big = generate_instance(nodes=100, clusters=20, seed=3)
        with pytest.raises(CellCapExceeded):
            solve(big, "exact", AcoParams())

    def test_unknown_algorithm(self, inst):
        with pytest.raises(ValueError, match="unknown algorithm 'mmas'"):
            solve(inst, "mmas", AcoParams(max_iterations=1))


class TestRunExperiment:
    def test_rows_in_input_order_with_aggregates(self):
        cfg = small_config()
        reports = run_experiment(cfg)
        assert [r.problem for r in reports] == ["4RAND12", "3RAND10"]
        for rep in reports:
            exact_cell = rep.results["exact"]
            optimum = exact_cell.best
            assert len(exact_cell.costs) == 1  # deterministic: one run
            assert len(rep.results["nn"].costs) == 1
            for algo in ("acs", "racs"):
                cell = rep.results[algo]
                assert cell.seeds == [7, 8]
                assert len(cell.costs) == cfg.repetitions
                assert cell.best == min(cell.costs)
                assert cell.mean == sum(cell.costs) / len(cell.costs)
                assert cell.mean >= cell.best >= optimum

    def test_exact_refusal_leaves_dash_and_continues(self):
        cfg = small_config(
            instances=[{"nodes": 100, "clusters": 20, "seed": 3}],
            algorithms=["exact", "nn"],
        )
        reports = run_experiment(cfg)
        assert len(reports) == 1
        cell = reports[0].results["exact"]
        assert cell.error is not None and "refusing" in cell.error
        assert cell.best is None
        assert reports[0].results["nn"].best is not None
        table = emit_table(reports)
        assert "-" in table.splitlines()[2]

    def test_unreadable_instance_skipped(self, tmp_path, capsys):
        missing = tmp_path / "nope.gtsp"
        cfg = small_config(instances=[str(missing), {"nodes": 8, "clusters": 3, "seed": 0}])
        import io

        log = io.StringIO()
        reports = run_experiment(cfg, log=log)
        assert len(reports) == 1
        assert "skipping" in log.getvalue()

    def test_tour_sum_overflow_skipped(self, tmp_path):
        # every cost fits int64, but a tour over the two far pairs does not
        far = tmp_path / "far.gtsp"
        coords = NodeCoords(np.array([[0, 0], [1, 0], [9.2e18, 0], [9.2e18, 1]]))
        far.write_text(format_clustered("far", coords, ((0, 1), (2, 3))))
        cfg = small_config(instances=[str(far), {"nodes": 8, "clusters": 3, "seed": 0}])
        log = io.StringIO()
        reports = run_experiment(cfg, log=log)
        assert [r.n for r in reports] == [8]
        assert "skipping" in log.getvalue() and "too large" in log.getvalue()

    def test_sidecar_optimum_read(self, tmp_path):
        coords, inst = generate_instance(nodes=10, clusters=3, seed=4)
        path = tmp_path / "toy.gtsp"
        path.write_text(format_clustered(inst.name, coords, inst.clusters))
        (tmp_path / "toy.gtsp.opt").write_text(f"{exact_solve(inst).cost}\n")
        assert sidecar_optimum(path) == exact_solve(inst).cost
        cfg = small_config(instances=[str(path)], algorithms=["nn", "racs"])
        reports = run_experiment(cfg)
        assert reports[0].optimum == exact_solve(inst).cost
        for cell in reports[0].results.values():
            assert cell.best >= reports[0].optimum

    @pytest.mark.parametrize(
        "text", ["", "\n", "opt=7\n", "12.5\n"], ids=["empty", "blank", "word", "decimal"]
    )
    def test_bad_sidecar_reported_and_row_kept(self, tmp_path, text):
        coords, inst = generate_instance(nodes=10, clusters=3, seed=4)
        path = tmp_path / "toy.gtsp"
        path.write_text(format_clustered(inst.name, coords, inst.clusters))
        (tmp_path / "toy.gtsp.opt").write_text(text)
        with pytest.raises(ValueError, match="toy.gtsp.opt"):
            sidecar_optimum(path)
        log = io.StringIO()
        reports = run_experiment(small_config(instances=[str(path)], algorithms=["nn"]), log=log)
        assert len(reports) == 1 and reports[0].optimum is None
        assert reports[0].results["nn"].best is not None
        assert "toy.gtsp.opt" in log.getvalue() and "skipping" not in log.getvalue()

    def test_reproducible_outputs(self, tmp_path):
        cfg = small_config()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_table(run_experiment(cfg), out_base=out_a, include_elapsed=False)
        emit_table(run_experiment(cfg), out_base=out_b, include_elapsed=False)
        assert out_a.with_suffix(".csv").read_bytes() == out_b.with_suffix(".csv").read_bytes()
        assert out_a.with_suffix(".json").read_bytes() == out_b.with_suffix(".json").read_bytes()


def report_row(problem="11TOY20", nc=11, n=20, optimum=100, **cells):
    results = {}
    for algo, costs in cells.items():
        cell = AlgoResult()
        if costs is not None:
            cell.costs = list(costs)
            cell.elapsed = [0.0] * len(cell.costs)
        else:
            cell.error = "refused"
        results[algo] = cell
    return RunReport(problem=problem, nc=nc, n=n, optimum=optimum, results=results)


class TestEmitTable:
    def test_single_row_marks_best(self):
        table = emit_table([report_row(exact=[100], nn=[130], racs=[100, 104])])
        lines = table.splitlines()
        assert lines[0].split() == ["Problem", "nc", "n", "Opt.val.", "EXACT", "NN", "RACS"]
        row = lines[2]
        assert "100*" in row and "130" in row and "130*" not in row

    def test_tie_marks_both(self):
        table = emit_table([report_row(acs=[105], racs=[105])])
        row = table.splitlines()[2]
        assert row.count("105*") == 2

    def test_missing_optimum_shows_na(self):
        table = emit_table([report_row(optimum=None, nn=[42])])
        assert "n/a" in table.splitlines()[2]

    def test_refused_cell_shows_dash(self):
        table = emit_table([report_row(exact=None, nn=[42])])
        cells = table.splitlines()[2].split()
        assert "-" in cells

    def test_mean_rendered_for_stochastic_cells(self):
        table = emit_table([report_row(racs=[100, 104])])
        assert "(mean 102)" in table

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError, match="no reports"):
            emit_table([])

    def test_writes_csv_and_json(self, tmp_path):
        out = tmp_path / "results" / "table"
        emit_table([report_row(nn=[42], racs=[40, 44])], out_base=out)
        csv_text = out.with_suffix(".csv").read_text()
        assert csv_text.splitlines()[0] == (
            "problem,nc,n,optimum,nn_best,nn_mean,nn_mean_elapsed,"
            "racs_best,racs_mean,racs_mean_elapsed"
        )
        assert "11TOY20,11,20,100,42,42" in csv_text.splitlines()[1]
        payload = json.loads(out.with_suffix(".json").read_text())
        cell = payload["reports"][0]["results"]["racs"]
        assert cell["best"] == 40 and cell["mean"] == 42.0 and cell["costs"] == [40, 44]


class TestLoadInstanceFile:
    def test_loads_clustered_file(self, tmp_path):
        coords, inst = generate_instance(nodes=9, clusters=3, seed=5)
        path = tmp_path / "toy.gtsp"
        path.write_text(format_clustered(inst.name, coords, inst.clusters))
        loaded = load_instance_file(path)
        assert loaded.clusters == inst.clusters
        assert loaded.name == inst.name

    def test_clusters_raw_tsplib(self, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp")
        assert inst.p == 11
        assert inst.name == "11EIL51"

    def test_explicit_cluster_count(self, data_dir):
        inst = load_instance_file(data_dir / "eil51.tsp", clusters=7)
        assert inst.p == 7

    def test_cluster_file_overrides_partition(self, tmp_path, data_dir):
        base = data_dir / "eil51.tsp"
        donor_inst = load_instance_file(base, clusters=5)
        coords = None
        from gtsp import parse_tsplib

        coords = parse_tsplib(base.read_text())
        donor = tmp_path / "donor.gtsp"
        donor.write_text(format_clustered("5EIL51", coords, donor_inst.clusters))
        inst = load_instance_file(base, cluster_file=donor)
        assert inst.p == 5
        assert inst.clusters == donor_inst.clusters

    def test_cluster_file_dimension_mismatch(self, tmp_path, data_dir):
        coords, inst = generate_instance(nodes=9, clusters=3, seed=5)
        donor = tmp_path / "donor.gtsp"
        donor.write_text(format_clustered(inst.name, coords, inst.clusters))
        with pytest.raises(ValueError, match="covers 9 nodes"):
            load_instance_file(data_dir / "eil51.tsp", cluster_file=donor)
