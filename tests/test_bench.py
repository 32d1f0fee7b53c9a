import contextlib
import io
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gtsp.bench
import gtsp.instance
from gtsp import (
    DEFAULT_TIME_MAX,
    AcoParams,
    CellCapExceeded,
    ExperimentConfig,
    NodeCoords,
    ParseError,
    RunResult,
    cluster_instance,
    emit_table,
    euc2d_costs,
    exact_solve,
    format_clustered,
    generate_instance,
    load_instance_file,
    run,
    run_experiment,
    sidecar_optimum,
    solve,
)
from gtsp.bench import ALGORITHMS, AlgoResult, GeneratorSpec, RunReport


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
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match=r"algorithms\[1\] must be one of"):
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

    @pytest.mark.parametrize("where, name", [("", "nodes"), ("instances[2]", "instances[2].nodes")])
    def test_generator_spec_refuses_more_nodes_than_grid_points(self, where, name):
        # generate_instance's own check, named by the spec's field
        with pytest.raises(ValueError) as exc:
            GeneratorSpec(nodes=1000001, clusters=3, where=where)
        assert str(exc.value) == (f"{name} must be at most 1000000, the points of the"
                                  " 1000 x 1000 grid, got 1000001")

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

    def test_committed_benchmark_config_loads(self):
        path = Path(__file__).resolve().parents[1] / "scripts" / "benchmark.json"
        cfg = ExperimentConfig.from_file(path)
        files = [spec for spec in cfg.instances if isinstance(spec, str)]
        assert files and all(Path(f).is_file() for f in files)
        assert (cfg.params.time_max, cfg.params.max_iterations) == (None, 500)  # byte-stable

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"instances": ["x"], "budget": 3})

    def test_params_is_not_a_config_key(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['params'\]"):
            ExperimentConfig.from_dict({"instances": ["x"], "params": {}})

    def test_generator_specs_are_kept_as_checked(self):
        spec = {"nodes": 8, "clusters": 3}
        cfg = small_config(instances=["x.gtsp", spec])
        assert cfg.instances == ["x.gtsp", GeneratorSpec(nodes=8, clusters=3, seed=0)]
        assert spec == {"nodes": 8, "clusters": 3}  # the caller's entry is left as it was

    def test_generator_spec_entries_are_accepted(self):
        spec = GeneratorSpec(nodes=10, clusters=3)
        assert ExperimentConfig(instances=[spec]).instances == [spec]
        cfg = small_config(instances=[{"nodes": 10, "clusters": 3}])
        assert replace(cfg, repetitions=3).instances == [spec]

    def test_missing_instances_is_refused_by_key(self):
        with pytest.raises(ValueError, match="^config lists no instances$"):
            ExperimentConfig.from_dict({"algorithms": ["nn"]})

    @pytest.mark.parametrize("algorithms", [["nn", "nn"], ["nn", "racs", "NN"]])
    def test_rejects_repeated_algorithm(self, algorithms):
        with pytest.raises(ValueError, match=r"^algorithms must list each algorithm once"):
            small_config(algorithms=algorithms)

    def test_defaults_come_from_aco_params(self):
        cfg = ExperimentConfig(instances=["x"])
        assert cfg.params == AcoParams(time_max=DEFAULT_TIME_MAX)

    def test_params_need_a_stopping_rule(self):
        with pytest.raises(ValueError, match="need a stopping rule"):
            ExperimentConfig(instances=["x"], params=AcoParams(time_max=None))

    def test_colony_key_is_checked_before_own_keys(self):
        with pytest.raises(ValueError, match="^rho must"):
            ExperimentConfig.from_dict({"instances": ["x"], "repetitions": 0, "rho": 2.0})

    def test_readme_config_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cli = readme[readme.index("\n## CLI\n"):]
        example = cli[cli.index("```json\n") + len("```json\n"):]
        cfg = ExperimentConfig.from_dict(json.loads(example[: example.index("```")]))
        assert (cfg.params.time_max, cfg.params.max_iterations) == (None, 500)

    def test_params_built_from_fields(self):
        cfg = small_config(num_ants=3, beta=2.0, rho=0.25, q0=0.75)
        assert cfg.params == AcoParams(beta=2.0, rho=0.25, q0=0.75, num_ants=3,
                                       time_max=None, max_iterations=30, seed=7)

    def test_numpy_scalars_run_as_python_numbers(self, tmp_path):
        # every numeric key of a config, colony keys and generator spec included
        ints = dict(repetitions=2, cell_cap=10**6, max_iterations=3, base_seed=7, num_ants=3)
        floats = dict(beta=2.5, rho=0.25, q0=0.75, time_max=60.0)

        def config(integer, real):
            return ExperimentConfig.from_dict(dict(
                instances=[{"nodes": integer(12), "clusters": integer(4), "seed": integer(1)}],
                seeds=[integer(5), integer(6)], **{k: integer(v) for k, v in ints.items()},
                **{k: real(v) for k, v in floats.items()}))

        ours, plain = config(np.int64, np.float32), config(int, float)
        numbers = [*vars(ours.params).values(), ours.repetitions, ours.cell_cap, *ours.seeds,
                   *vars(ours.instances[0]).values()]
        assert {type(v) for v in numbers} <= {int, float, str}
        for cfg, base in ((ours, tmp_path / "ours"), (plain, tmp_path / "plain")):
            emit_table(run_experiment(cfg), out_base=base, include_elapsed=False)
        for suffix in (".csv", ".json"):
            assert ((tmp_path / "ours").with_suffix(suffix).read_bytes()
                    == (tmp_path / "plain").with_suffix(suffix).read_bytes())

    @pytest.mark.parametrize("overrides, message", [
        ({"rho": 1.5}, "rho"),
        ({"beta": float("nan")}, "beta"),
        ({"num_ants": 0}, "num_ants"),
        ({"max_iterations": -1}, "max_iterations"),
        ({"max_iterations": None}, "need a stopping rule"),
        ({"num_ants": 2.5}, "num_ants must be an integer"),
        ({"max_iterations": 1.5}, "max_iterations must be an integer"),
        ({"base_seed": -1}, "base_seed must be an integer >= 0, got -1"),
        ({"repetitions": 1.5}, "repetitions must be an integer"),
        ({"seeds": [-5, 3]}, r"seeds\[0\] must be an integer"),
        ({"seeds": [3, 1.5]}, r"seeds\[1\] must be an integer"),
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

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_every_algorithm_returns_the_colony_record(self, inst, algo):
        result = solve(inst, algo, AcoParams(max_iterations=2))
        assert type(result) is type(run(inst, AcoParams(max_iterations=1))) is RunResult
        colony = {"iterations", "params", "seed", "trace"} if algo in ("acs", "racs") else set()
        assert set(result.to_dict()) == {"cost", "nodes", "elapsed_seconds"} | colony

    def test_exact_is_optimal_and_nn_is_the_reference(self, inst):
        params = AcoParams(max_iterations=5)
        assert solve(inst, "exact", params).best == exact_solve(inst)
        assert solve(inst, "nn", params).best.cost >= exact_solve(inst).cost

    @pytest.mark.parametrize("algo", ["acs", "racs"])
    def test_colony_runs_under_the_named_variant(self, inst, algo):
        result = solve(inst, algo, AcoParams(max_iterations=6, seed=2, variant="racs"))
        assert result.params == AcoParams(max_iterations=6, seed=2, variant=algo)
        assert result.iterations == 6 and len(result.trace) == 6
        assert result.trace[-1] == result.best.cost
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

    @pytest.mark.parametrize("algo", ["exact", "racs"])
    def test_out_of_memory_leaves_dash_and_continues(self, monkeypatch, algo):
        def failed_allocation(*args, **kwargs):
            raise MemoryError("Unable to allocate 122. MiB")

        monkeypatch.setattr(gtsp.bench, {"exact": "exact_solve", "racs": "run"}[algo],
                            failed_allocation)
        reports = run_experiment(small_config(algorithms=[algo, "nn"]))
        assert len(reports) == 2
        for rep in reports:
            cell = rep.results[algo]
            assert cell.error == "out of memory: Unable to allocate 122. MiB"
            assert cell.best is None
            assert rep.results["nn"].best is not None
        assert emit_table(reports).splitlines()[2].split()[4] == "-"

    def test_out_of_memory_while_loading_skipped(self, monkeypatch, capsys):
        real = gtsp.instance.euc2d_costs

        def costs(coords):  # the 12-node instance's matrix does not fit
            if len(coords) == 12:
                raise MemoryError("Unable to allocate 288. B")
            return real(coords)

        monkeypatch.setattr(gtsp.instance, "euc2d_costs", costs)
        reports = run_experiment(small_config(algorithms=["nn"]))
        assert [r.n for r in reports] == [10]
        assert capsys.readouterr().err == ("gtsp bench: skipping {'nodes': 12, 'clusters': 4, 'seed': 1}:"
                                  " out of memory: Unable to allocate 288. B\n")

    def test_unreadable_instance_skipped(self, tmp_path, capsys):
        missing = tmp_path / "nope.gtsp"
        cfg = small_config(instances=[str(missing), {"nodes": 8, "clusters": 3, "seed": 0}])
        reports = run_experiment(cfg)
        assert len(reports) == 1
        assert "skipping" in capsys.readouterr().err

    def test_messages_go_to_stderr_as_it_is_when_called(self, tmp_path):
        cfg = small_config(instances=[str(tmp_path / "nope.gtsp"),
                                      {"nodes": 8, "clusters": 3, "seed": 0}])
        with contextlib.redirect_stderr(io.StringIO()) as err:
            run_experiment(cfg)
        assert err.getvalue().startswith("gtsp bench: skipping ")

    def test_tour_sum_overflow_skipped(self, tmp_path, capsys):
        # every cost fits int64, but a tour over the two far pairs does not
        far = tmp_path / "far.gtsp"
        coords = NodeCoords(np.array([[0, 0], [1, 0], [9.2e18, 0], [9.2e18, 1]]))
        far.write_text(format_clustered("far", coords, ((0, 1), (2, 3))))
        cfg = small_config(instances=[str(far), {"nodes": 8, "clusters": 3, "seed": 0}])
        reports = run_experiment(cfg)
        assert [r.n for r in reports] == [8]
        err = capsys.readouterr().err
        assert "skipping" in err and "too large" in err

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
        "text", ["", "\n", "opt=7\n", "12.5\n", "-5\n"],
        ids=["empty", "blank", "word", "decimal", "negative"]
    )
    def test_bad_sidecar_reported_and_row_kept(self, tmp_path, text, capsys):
        coords, inst = generate_instance(nodes=10, clusters=3, seed=4)
        path = tmp_path / "toy.gtsp"
        path.write_text(format_clustered(inst.name, coords, inst.clusters))
        (tmp_path / "toy.gtsp.opt").write_text(text)
        with pytest.raises(ValueError, match="toy.gtsp.opt"):
            sidecar_optimum(path)
        reports = run_experiment(small_config(instances=[str(path)], algorithms=["nn"]))
        assert len(reports) == 1 and reports[0].optimum is None
        assert reports[0].results["nn"].best is not None
        err = capsys.readouterr().err
        assert "toy.gtsp.opt" in err and "skipping" not in err

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

    def test_dotted_name_keeps_its_dot(self, tmp_path):
        out = tmp_path / "results" / "run.v2"
        emit_table([report_row(nn=[42])], out_base=out)
        written = sorted(p.name for p in out.parent.iterdir())
        assert written == ["run.v2.csv", "run.v2.json"]


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

    @pytest.mark.parametrize("donor_text, error, message", [
        pytest.param("DIMENSION : 51\nGTSP_SETS : 2\nEOF\n", ParseError,
                     "missing GTSP_SET_SECTION", id="no-set-section"),
        pytest.param("DIMENSION : 4\nGTSP_SETS : 2\nGTSP_SET_SECTION\n1 1 2 -1\n2 3 4 -1\nEOF\n",
                     ParseError, "cluster file covers 4 nodes but eil51.tsp has 51",
                     id="other-dimension"),
        # refused with the type a clustered file with this section gets
        pytest.param("DIMENSION : 51\nGTSP_SETS : 1\nGTSP_SET_SECTION\n1 "
                     + " ".join(map(str, range(1, 52))) + " -1\nEOF\n",
                     ParseError, "need at least 2 clusters, got 1", id="one-set"),
    ])
    def test_cluster_file_refusal_messages(self, tmp_path, data_dir, donor_text, error,
                                           message):
        donor = tmp_path / "donor.gtsp"
        donor.write_text(donor_text)
        with pytest.raises(ValueError) as exc:
            load_instance_file(data_dir / "eil51.tsp", cluster_file=donor)
        assert (type(exc.value), str(exc.value)) == (error, message)

    def test_clustered_file_without_name_takes_the_file_stem(self, tmp_path):
        coords, inst = generate_instance(nodes=9, clusters=3, seed=5)
        path = tmp_path / "toy.gtsp"
        path.write_text(format_clustered("", coords, inst.clusters).replace("NAME : \n", ""))
        loaded = load_instance_file(path)
        assert (loaded.name, loaded.clusters) == ("toy", inst.clusters)

    def test_cluster_count_on_clustered_file_is_refused(self, tmp_path):
        coords, inst = generate_instance(nodes=9, clusters=3, seed=5)
        path = tmp_path / "toy.gtsp"
        path.write_text(format_clustered(inst.name, coords, inst.clusters))
        with pytest.raises(ValueError, match="--clusters 2 given, but toy.gtsp is already"):
            load_instance_file(path, clusters=2)

    def test_bad_line_of_clustered_file_reported_before_cluster_count(self, tmp_path):
        # the scan that finds the set section reads the bad line first
        coords, inst = generate_instance(nodes=9, clusters=3, seed=5)
        path = tmp_path / "toy.gtsp"
        path.write_text(format_clustered(inst.name, coords, inst.clusters)
                        .replace("TYPE : GTSP", "TYPE GTSP"))
        with pytest.raises(ParseError, match="line 2: expected 'KEY : VALUE' record"):
            load_instance_file(path, clusters=2)

    def test_comment_naming_the_set_section_leaves_a_file_raw(self, tmp_path, eil51_text):
        path = tmp_path / "toy.tsp"
        path.write_text(eil51_text.replace(
            "NAME", "COMMENT : no GTSP_SET_SECTION here\nNAME", 1))
        assert load_instance_file(path).p == 11
        assert load_instance_file(path, clusters=2).p == 2

    def test_set_section_after_eof_leaves_a_file_raw(self, tmp_path, eil51_text):
        # the TSPLIB reader stops at EOF, so what follows it is not a section
        path = tmp_path / "toy.tsp"
        path.write_text(eil51_text + "GTSP_SET_SECTION\n1 1 -1\n")
        assert eil51_text.rstrip().endswith("EOF")
        assert load_instance_file(path).p == 11
        assert load_instance_file(path, clusters=2).p == 2

    def test_cluster_count_with_cluster_file_is_refused(self, tmp_path, data_dir):
        donor = tmp_path / "donor.gtsp"
        donor.write_text("never read")
        with pytest.raises(ValueError, match="--clusters 3 given together with a cluster file"):
            load_instance_file(data_dir / "eil51.tsp", clusters=3, cluster_file=donor)

    def test_cluster_file_builds_no_donor_costs(self, tmp_path):
        n = 1000
        coords, donor_inst = generate_instance(nodes=n, clusters=200, seed=8)
        donor = tmp_path / "donor.gtsp"
        donor.write_text(format_clustered("200DONOR1000", coords, donor_inst.clusters))
        text = donor.read_text()
        base = tmp_path / "base.tsp"
        base.write_text(text[: text.index("GTSP_SET_SECTION")] + "EOF\n")
        tracemalloc.start()
        inst = load_instance_file(base, cluster_file=donor)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (inst.name, inst.clusters) == ("200DONOR1000", donor_inst.clusters)
        # one 8 MB cost matrix plus a few MB of temporaries (about 10.8 MiB
        # in all); building the donor's costs as well took it to 18.4 MiB
        assert peak < 8 * n * n + (6 << 20)
