import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import gtsp.bench
from gtsp import (
    AcoParams,
    ExperimentConfig,
    dp_cell_count,
    exact_solve,
    format_clustered,
    generate_instance,
    parse_clustered,
    run_experiment,
)
from gtsp.cli import build_parser


def gtsp_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gtsp.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "toy.gtsp"
    coords, inst = generate_instance(nodes=12, clusters=4, seed=6)
    path.write_text(format_clustered(inst.name, coords, inst.clusters))
    return path


class TestSolve:
    def test_exact_json(self, toy_file):
        proc = gtsp_cli("solve", toy_file, "--algo", "exact", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        inst = parse_clustered(toy_file.read_text())
        assert record["cost"] == exact_solve(inst).cost
        assert record["algo"] == "exact"
        assert len(record["nodes"]) == inst.p

    def test_nn_text(self, toy_file):
        proc = gtsp_cli("solve", toy_file, "--algo", "nn")
        assert proc.returncode == 0
        assert "cost:" in proc.stdout

    def test_racs_with_iteration_budget(self, toy_file):
        proc = gtsp_cli(
            "solve", toy_file, "--algo", "racs", "--max-iters", 40, "--seed", 3,
            "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["iterations"] == 40
        assert record["params"]["variant"] == "racs"
        inst = parse_clustered(toy_file.read_text())
        assert record["cost"] >= exact_solve(inst).cost

    def test_seeded_runs_repeat(self, toy_file):
        args = ("solve", toy_file, "--algo", "acs", "--max-iters", 20, "--seed", 9,
                "--format", "json")
        a, b = gtsp_cli(*args), gtsp_cli(*args)
        ra, rb = json.loads(a.stdout), json.loads(b.stdout)
        ra.pop("elapsed_seconds"), rb.pop("elapsed_seconds")
        assert ra == rb

    def test_csv_format(self, toy_file):
        proc = gtsp_cli("solve", toy_file, "--algo", "nn", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2 and "cost" in lines[0]

    def test_out_file(self, toy_file, tmp_path):
        out = tmp_path / "solution.json"
        proc = gtsp_cli("solve", toy_file, "--algo", "nn", "--format", "json",
                        "--out", out)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["algo"] == "nn"

    def test_clusters_option_on_raw_tsplib(self):
        data = Path(__file__).resolve().parents[1] / "data" / "eil51.tsp"
        proc = gtsp_cli("solve", data, "--algo", "nn", "--clusters", 5,
                        "--format", "json")
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["nodes"]) == 5


class TestExitCodes:
    def test_usage_error_is_1(self, toy_file):
        assert gtsp_cli("solve", toy_file, "--algo", "magic").returncode == 1
        assert gtsp_cli("frobnicate").returncode == 1

    # Colony flags are checked before the instance is read, for every --algo.
    # Each case also passes --max-iters, except the negative one, so a check
    # that let its value through would still end the run.
    @pytest.mark.parametrize("algo, flags, name", [
        pytest.param("racs", ["--rho", "1.5", "--max-iters", 5], "rho", id="rho"),
        pytest.param("racs", ["--beta", "nan", "--max-iters", 5], "beta", id="beta-nan"),
        pytest.param("acs", ["--time-max", "nan", "--max-iters", 5], "time_max",
                     id="time-max-nan"),
        pytest.param("racs", ["--max-iters", -3], "max_iterations", id="max-iters-negative"),
        pytest.param("nn", ["--rho", "1.5"], "rho", id="nn-rho"),
        pytest.param("exact", ["--ants", 0], "num_ants", id="exact-ants"),
    ])
    def test_bad_param_is_1(self, toy_file, algo, flags, name):
        proc = gtsp_cli("solve", toy_file, "--algo", algo, *flags)
        assert proc.returncode == 1
        assert f"gtsp solve: {name}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_file_is_2(self, tmp_path):
        proc = gtsp_cli("solve", tmp_path / "ghost.tsp", "--algo", "nn")
        assert proc.returncode == 2

    def test_malformed_file_is_2(self, tmp_path):
        bad = tmp_path / "bad.tsp"
        bad.write_text("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n")
        proc = gtsp_cli("solve", bad, "--algo", "nn")
        assert proc.returncode == 2
        assert "dimension mismatch" in proc.stderr

    @pytest.mark.parametrize("record, message", [
        ("2 1e19 0", "overflow int64"),
        ("2 nan 0", "line 5: coordinates must be finite"),
    ])
    def test_unusable_coordinates_are_2(self, tmp_path, record, message):
        bad = tmp_path / "bad.tsp"
        bad.write_text(
            "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
            f"1 1 0\n{record}\n3 0 0\n"
        )
        proc = gtsp_cli("solve", bad, "--algo", "nn")
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Warning" not in proc.stderr  # refused before any numpy overflow

    @pytest.mark.parametrize("algo", ["exact", "nn", "acs", "racs"])
    def test_tour_sum_overflow_is_2(self, tmp_path, algo):
        # every cost fits int64, but a tour over the two far pairs does not
        far = tmp_path / "far.tsp"
        far.write_text(
            "DIMENSION : 4\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
            "1 0 0\n2 1 0\n3 9.2e18 0\n4 9.2e18 1\n"
        )
        proc = gtsp_cli("solve", far, "--clusters", 2, "--algo", algo, "--max-iters", 2)
        assert proc.returncode == 2
        assert "costs too large for exact int64 tour sums" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_exact_refusal_is_3(self, tmp_path):
        coords, inst = generate_instance(nodes=100, clusters=20, seed=1)
        big = tmp_path / "big.gtsp"
        big.write_text(format_clustered(inst.name, coords, inst.clusters))
        proc = gtsp_cli("solve", big, "--algo", "exact")
        assert proc.returncode == 3
        assert "refusing" in proc.stderr
        assert f"{dp_cell_count(inst)} DP cells" in proc.stderr


class TestClusterCommand:
    def test_writes_clustered_file(self, tmp_path):
        data = Path(__file__).resolve().parents[1] / "data" / "eil51.tsp"
        out = tmp_path / "11eil51.gtsp"
        proc = gtsp_cli("cluster", data, "--out", out)
        assert proc.returncode == 0, proc.stderr
        inst = parse_clustered(out.read_text())
        assert inst.p == 11
        assert inst.name == "11EIL51"


class TestGenCommand:
    def test_stdout_roundtrip(self):
        proc = gtsp_cli("gen", "--nodes", 15, "--clusters", 4, "--seed", 2)
        assert proc.returncode == 0
        inst = parse_clustered(proc.stdout)
        assert inst.n == 15 and inst.p == 4

    def test_deterministic(self):
        a = gtsp_cli("gen", "--nodes", 15, "--clusters", 4, "--seed", 2)
        b = gtsp_cli("gen", "--nodes", 15, "--clusters", 4, "--seed", 2)
        assert a.stdout == b.stdout

    def test_out_file(self, tmp_path):
        out = tmp_path / "gen.gtsp"
        proc = gtsp_cli("gen", "--nodes", 10, "--clusters", 3, "--seed", 0, "--out", out)
        assert proc.returncode == 0
        assert parse_clustered(out.read_text()).p == 3


class TestBenchCommand:
    def test_config_run_writes_tables(self, tmp_path, toy_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [str(toy_file), {"nodes": 10, "clusters": 3, "seed": 8}],
            "algorithms": ["exact", "nn", "racs"],
            "repetitions": 2,
            "time_max": None,
            "max_iterations": 25,
            "output": "out/table",
        }))
        proc = gtsp_cli("bench", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        assert "Problem" in proc.stdout and "RACS" in proc.stdout
        assert (tmp_path / "out" / "table.csv").exists()
        assert (tmp_path / "out" / "table.json").exists()

    # Every case is refused when the config loads, before any solver runs.
    @pytest.mark.parametrize("config, message", [
        pytest.param({"instances": [], "algorithms": ["nn"]}, "config lists no instances",
                     id="no-instances"),
        pytest.param({"rho": 1.5, "algorithms": ["racs"], "max_iterations": 5},
                     "rho must lie in (0, 1)", id="rho"),
        pytest.param({"time_max": None, "max_iterations": None, "algorithms": ["acs"]},
                     "need a stopping rule", id="no-stopping-rule"),
        pytest.param({"repetitions": "2", "algorithms": ["nn"]}, "'<' not supported",
                     id="wrong-type"),
    ])
    def test_bad_config_is_1(self, tmp_path, toy_file, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [str(toy_file)], **config}))
        proc = gtsp_cli("bench", "--config", cfg)
        assert proc.returncode == 1
        assert f"gtsp bench: bad config: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_all_instances_unreadable_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": ["ghost.gtsp"], "algorithms": ["nn"]}))
        assert gtsp_cli("bench", "--config", cfg).returncode == 2


class TestSolveMatchesBench:
    """`gtsp solve` and `run_experiment` run their solvers through one `solve`."""

    @pytest.fixture(scope="class")
    def gen_file(self, tmp_path_factory):
        # large enough that three iterations end on a different tour for
        # each seed, so a parameter that drifts between the paths shows
        path = tmp_path_factory.mktemp("inst") / "gen.gtsp"
        coords, inst = generate_instance(nodes=40, clusters=10, seed=3)
        path.write_text(format_clustered(inst.name, coords, inst.clusters))
        return path

    @pytest.mark.parametrize("algo", ["exact", "nn", "acs", "racs"])
    def test_same_cost_and_nodes(self, gen_file, algo):
        proc = gtsp_cli("solve", gen_file, "--algo", algo, "--max-iters", 3, "--seed", 4,
                        "--format", "json")
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        config = ExperimentConfig(instances=[str(gen_file)], algorithms=[algo],
                                  repetitions=1, seeds=[4], time_max=None, max_iterations=3)
        results = []
        real_solve = gtsp.bench.solve
        with mock.patch.object(gtsp.bench, "solve",
                               lambda *a: results.append(real_solve(*a)) or results[-1]):
            (report,) = run_experiment(config)
        assert report.results[algo].costs == [record["cost"]]
        assert [list(r.tour.nodes) for r in results] == [record["nodes"]]

    def test_solve_flag_defaults_are_aco_params_defaults(self):
        args = build_parser().parse_args(["solve", "x.tsp", "--algo", "nn"])
        d = AcoParams()
        assert (args.beta, args.rho, args.q0, args.ants, args.seed, args.time_max,
                args.max_iters) == (d.beta, d.rho, d.q0, d.num_ants, d.seed, d.time_max,
                                    d.max_iterations)
