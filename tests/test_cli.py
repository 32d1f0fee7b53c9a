import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import gtsp.bench
import gtsp.cli
import gtsp.instance
from gtsp import (
    AcoParams,
    ExperimentConfig,
    NodeCoords,
    dp_cell_count,
    exact_solve,
    format_clustered,
    generate_instance,
    run_experiment,
)
from gtsp.cli import build_parser, main

from oracles import parse_clustered

DATA = Path(__file__).resolve().parents[1] / "data"


ALLOCATION = ("Unable to allocate 1.82 TiB for an array with shape (1000000, 1000000)"
              " and data type int16")


def failed_allocation(*args, **kwargs):
    """Stands in for an n x n allocation that the machine cannot hold."""
    raise MemoryError(ALLOCATION)


def gtsp_cli(*args):
    """`gtsp *args` run in this process by `main`, reported as `subprocess.run`
    reports a process: status, stdout and stderr. A `SystemExit` (argparse's
    usage errors and `--help`) gives its status, and a warning goes to stderr
    as the interpreter would print it. Any other exception fails the test."""
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("default")
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code or 0
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return subprocess.CompletedProcess(argv, status, out.getvalue(), err.getvalue())


def gtsp_process(*args, **kwargs):
    """`python -m gtsp.cli *args` in a child process, for the tests of what
    only a process shows; `kwargs` go to `subprocess.run`."""
    return subprocess.run([sys.executable, "-m", "gtsp.cli", *map(str, args)],
                          capture_output=True, text=True, **kwargs)


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

    def test_csv_format(self, toy_file):
        proc = gtsp_cli("solve", toy_file, "--algo", "nn", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2 and "cost" in lines[0]

    def test_csv_params_cell_is_json(self, toy_file):
        proc = gtsp_cli("solve", toy_file, "--algo", "racs", "--max-iters", 2,
                        "--format", "csv")
        assert proc.returncode == 0
        (row,) = csv.DictReader(io.StringIO(proc.stdout))
        assert json.loads(row["params"]) == AcoParams(max_iterations=2).to_dict()

    def test_text_nested_values_are_json(self, toy_file):
        args = ("solve", toy_file, "--algo", "racs", "--max-iters", 2)
        text = gtsp_cli(*args, "--format", "text")
        assert text.returncode == 0
        lines = dict(line.split(": ", 1) for line in text.stdout.splitlines())
        record = json.loads(gtsp_cli(*args, "--format", "json").stdout)
        assert json.loads(lines["params"]) == AcoParams(max_iterations=2).to_dict()
        assert '"time_max": null' in lines["params"]
        assert json.loads(lines["nodes"]) == record["nodes"]
        assert json.loads(lines["trace"]) == record["trace"]
        assert lines["algo"] == "racs"

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
        pytest.param("racs", ["--seed", -1, "--max-iters", 1], "seed must be an integer >= 0",
                     id="seed-negative"),
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

    def test_clusters_flag_on_clustered_file_is_2(self, toy_file):
        # the file's own 4 sets would otherwise be used without a word
        proc = gtsp_cli("solve", toy_file, "--algo", "nn", "--clusters", 3)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "gtsp solve: --clusters 3 given, but toy.gtsp is already clustered")

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

    @pytest.mark.parametrize("command", ["solve", "cluster"])
    @pytest.mark.parametrize("clusters", ["0", "-3", "1"])
    def test_clusters_below_two_is_1_before_reading(self, tmp_path, command, clusters):
        # the file does not exist: the flag is refused before it is opened
        args = ["--algo", "nn"] if command == "solve" else ["--out", tmp_path / "o"]
        proc = gtsp_cli(command, tmp_path / "missing.tsp", *args, "--clusters", clusters)
        assert proc.returncode == 1
        assert proc.stderr.endswith(f"gtsp {command}: error: argument --clusters: cluster count"
                                    f" m={clusters} must be at least 2\n")
        assert "missing.tsp" not in proc.stderr

    # number flags take plain ASCII numbers, as instance files do; Python's
    # int and float would read each of these values as a number
    @pytest.mark.parametrize("args, flag, value", [
        pytest.param(["solve", DATA / "eil51.tsp", "--algo", "racs", "--max-iters", "1_0",
                      "--seed", "\u0663"], "--max-iters", "1_0", id="max-iters-separator"),
        pytest.param(["solve", DATA / "eil51.tsp", "--algo", "racs", "--max-iters", 10,
                      "--seed", "\u0663"], "--seed", "\u0663", id="seed-arabic-indic"),
        pytest.param(["solve", DATA / "eil51.tsp", "--algo", "racs", "--max-iters", 5,
                      "--beta", "\uff15"], "--beta", "\uff15", id="beta-fullwidth"),
        pytest.param(["solve", DATA / "eil51.tsp", "--algo", "nn", "--clusters", "1_1"],
                     "--clusters", "1_1", id="clusters-separator"),
        pytest.param(["solve", DATA / "eil51.tsp", "--algo", "nn", "--clusters", "x"],
                     "--clusters", "x", id="clusters-non-number"),
        pytest.param(["gen", "--nodes", "1_2", "--clusters", 3, "--seed", "\u0667"],
                     "--nodes", "1_2", id="gen-nodes-separator"),
        pytest.param(["gen", "--nodes", 12, "--clusters", 3, "--seed", "\u0667"],
                     "--seed", "\u0667", id="gen-seed-arabic-indic"),
    ])
    def test_number_flags_follow_the_file_rule(self, args, flag, value):
        proc = gtsp_cli(*args)
        assert (proc.returncode, proc.stdout) == (1, "")
        kind = "float" if flag == "--beta" else "int"
        assert proc.stderr.endswith(
            f"gtsp {args[0]}: error: argument {flag}: invalid {kind} value: {value!r}\n")

    def test_clusters_above_n_is_2(self):
        proc = gtsp_cli("solve", DATA / "eil51.tsp", "--algo", "nn", "--clusters", 52)
        assert proc.returncode == 2
        assert proc.stderr == (
            "gtsp solve: cluster count m=52 must satisfy 2 <= m <= n=51\n")

    def test_exact_refusal_is_3(self, tmp_path):
        coords, inst = generate_instance(nodes=100, clusters=20, seed=1)
        big = tmp_path / "big.gtsp"
        big.write_text(format_clustered(inst.name, coords, inst.clusters))
        proc = gtsp_cli("solve", big, "--algo", "exact")
        assert proc.returncode == 3
        assert "refusing" in proc.stderr
        assert f"{dp_cell_count(inst)} DP cells" in proc.stderr


class TestProcess:
    """What only a `python -m gtsp.cli` process shows. Every other test but
    `TestOutOfMemory` runs the CLI in process through `gtsp_cli`."""

    def test_module_entry_point_exits_with_main_status(self, toy_file):
        # a success and an instance error (--clusters on a clustered file),
        # each printing what `main` prints in process
        for args, status in [(("gen", "--nodes", 10, "--clusters", 3, "--seed", 0), 0),
                             (("solve", toy_file, "--algo", "nn", "--clusters", 3), 2)]:
            proc, in_process = gtsp_process(*args), gtsp_cli(*args)
            assert proc.returncode == in_process.returncode == status
            assert (proc.stdout, proc.stderr) == (in_process.stdout, in_process.stderr)

    def test_usage_error_exits_1(self, toy_file):
        # argparse itself would exit 2
        proc = gtsp_process("solve", toy_file, "--algo", "magic")
        assert proc.returncode == 1
        assert "argument --algo: invalid choice: 'magic'" in proc.stderr

    # Each pair of processes runs under two hash seeds, so output that
    # followed the order of a set or of str hashes would differ.
    HASH_SEEDS = ("1", "2")

    def test_gen_repeats_across_processes(self):
        a, b = (gtsp_process("gen", "--nodes", 15, "--clusters", 4, "--seed", 2,
                             env={**os.environ, "PYTHONHASHSEED": seed})
                for seed in self.HASH_SEEDS)
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_seeded_solve_repeats_across_processes(self, toy_file):
        a, b = (gtsp_process("solve", toy_file, "--algo", "acs", "--max-iters", 20,
                             "--seed", 9, "--format", "json",
                             env={**os.environ, "PYTHONHASHSEED": seed})
                for seed in self.HASH_SEEDS)
        ra, rb = json.loads(a.stdout), json.loads(b.stdout)
        ra.pop("elapsed_seconds"), rb.pop("elapsed_seconds")
        assert ra == rb


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmPeak")
class TestOutOfMemory:
    """`gtsp solve` in a child process whose address space is capped with
    RLIMIT_AS; nothing outside that child is limited. The cap is the child's
    own footprint after importing gtsp, plus a margin."""

    ENV = {**os.environ, "PYTHONPATH": str(Path(gtsp.cli.__file__).resolve().parents[1]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    @pytest.fixture(scope="class")
    def big_file(self, tmp_path_factory):
        # n = 4000: a 30.5 MiB int16 cost matrix, then 122 MiB for each
        # n x n float64 array of a colony
        n, p = 4000, 800
        flat = np.random.default_rng(0).choice(1000 * 1000, size=n, replace=False)
        coords = NodeCoords(np.stack([flat % 1000, flat // 1000], axis=1).astype(float))
        path = tmp_path_factory.mktemp("big") / "big.gtsp"
        path.write_text(format_clustered("800BIG4000", coords,
                                         tuple(tuple(range(k, n, p)) for k in range(p))))
        return path

    @pytest.fixture(scope="class")
    def footprint(self):
        """Bytes of address space the CLI's child holds once gtsp is imported."""
        probe = ("import gtsp.cli; print([l.split()[1] for l in open('/proc/self/status')"
                 " if l.startswith('VmPeak')][0])")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=self.ENV, check=True)
        return int(proc.stdout) << 10

    def solve_capped(self, path, limit):
        import resource  # POSIX only, like preexec_fn

        return gtsp_process(
            "solve", path, "--algo", "racs", "--max-iters", 1, env=self.ENV,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )

    def test_while_loading_is_an_instance_error(self, big_file, footprint):
        proc = self.solve_capped(big_file, footprint + (12 << 20))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"gtsp solve: out of memory loading {big_file}: ")
        assert "Traceback" not in proc.stderr

    def test_while_solving_is_a_refusal(self, big_file, footprint):
        proc = self.solve_capped(big_file, footprint + (80 << 20))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("gtsp solve: out of memory running racs on 800BIG4000: ")
        assert "Traceback" not in proc.stderr and proc.stdout == ""


class TestClusterCommand:
    def test_writes_clustered_file(self, tmp_path):
        data = Path(__file__).resolve().parents[1] / "data" / "eil51.tsp"
        out = tmp_path / "11eil51.gtsp"
        proc = gtsp_cli("cluster", data, "--out", out)
        assert proc.returncode == 0, proc.stderr
        inst = parse_clustered(out.read_text())
        assert inst.p == 11
        assert inst.name == "11EIL51"

    def test_tour_sum_overflow_is_2(self, tmp_path):
        # it builds the instance, which refuses tour sums past int64
        far = tmp_path / "far.tsp"
        far.write_text(
            "DIMENSION : 4\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
            "1 0 0\n2 1 0\n3 9.2e18 0\n4 9.2e18 1\n"
        )
        out = tmp_path / "far.gtsp"
        proc = gtsp_cli("cluster", far, "--out", out, "--clusters", 2)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "gtsp cluster: costs too large for exact int64 tour sums: ")
        assert not out.exists()

    def test_out_of_memory_is_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gtsp.instance, "euc2d_costs", failed_allocation)
        out = tmp_path / "11eil51.gtsp"
        proc = gtsp_cli("cluster", DATA / "eil51.tsp", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"gtsp cluster: out of memory loading {DATA / 'eil51.tsp'}: {ALLOCATION}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--clusters", "3"]])
    def test_clustered_input_is_2(self, tmp_path, flags):
        # re-clustering would drop the file's own partition and NAME without a word
        gen = tmp_path / "gen.gtsp"
        assert gtsp_cli("gen", "--nodes", 60, "--clusters", 12, "--seed", 0,
                        "--out", gen).returncode == 0
        out = tmp_path / "re.gtsp"
        proc = gtsp_cli("cluster", gen, "--out", out, *flags)
        assert proc.returncode == 2
        assert proc.stderr.startswith("gtsp cluster: ")
        assert "gen.gtsp is already clustered" in proc.stderr
        assert not out.exists()


class TestGenCommand:
    def test_stdout_roundtrip(self):
        proc = gtsp_cli("gen", "--nodes", 15, "--clusters", 4, "--seed", 2)
        assert proc.returncode == 0
        inst = parse_clustered(proc.stdout)
        assert inst.n == 15 and inst.p == 4

    def test_out_file(self, tmp_path):
        out = tmp_path / "gen.gtsp"
        proc = gtsp_cli("gen", "--nodes", 10, "--clusters", 3, "--seed", 0, "--out", out)
        assert proc.returncode == 0
        assert parse_clustered(out.read_text()).p == 3

    @pytest.mark.parametrize("nodes, clusters", [(5, 9), (1, 1)])
    def test_bad_cluster_count_is_1(self, nodes, clusters):
        # the bound `gtsp bench` applies to a generator spec when it loads
        proc = gtsp_cli("gen", "--nodes", nodes, "--clusters", clusters)
        assert proc.returncode == 1
        assert proc.stderr == (f"gtsp gen: cluster count m={clusters} must satisfy"
                               f" 2 <= m <= n={nodes}\n")

    def test_out_of_memory_is_2(self, monkeypatch):
        monkeypatch.setattr(gtsp.instance, "euc2d_costs", failed_allocation)
        proc = gtsp_cli("gen", "--nodes", 1000000, "--clusters", 2)
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == (
            "", f"gtsp gen: out of memory generating 1000000 nodes: {ALLOCATION}\n")

    def test_more_nodes_than_grid_points_is_1(self):
        # generated points are distinct points of the 1000 x 1000 grid
        proc = gtsp_cli("gen", "--nodes", 1000001, "--clusters", 3)
        assert proc.returncode == 1
        assert proc.stderr == ("gtsp gen: nodes must be at most 1000000, the points of the"
                               " 1000 x 1000 grid, got 1000001\n")


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
        pytest.param({"repetitions": "2", "algorithms": ["nn"]},
                     "repetitions must be an integer >= 1", id="wrong-type"),
        pytest.param({"seeds": 5, "algorithms": ["racs"], "max_iterations": 1},
                     "seeds must be a list of integers, got 5", id="seeds-not-list"),
        pytest.param({"beta": "5", "algorithms": ["racs"], "max_iterations": 1},
                     "beta must be a number, got '5'", id="beta-string"),
        pytest.param({"seeds": [-5, 3], "repetitions": 2, "algorithms": ["racs"],
                      "max_iterations": 1}, "seeds[0] must be an integer >= 0",
                     id="seed-negative"),
        pytest.param({"seeds": [1.5], "repetitions": 1, "algorithms": ["racs"],
                      "max_iterations": 1}, "seeds[0] must be an integer >= 0",
                     id="seed-float"),
        pytest.param({"num_ants": 2.5, "algorithms": ["racs"], "max_iterations": 1},
                     "num_ants must be an integer >= 1", id="ants-float"),
        pytest.param({"max_iterations": 1.5, "algorithms": ["racs"]},
                     "max_iterations must be an integer >= 0", id="iterations-float"),
        pytest.param({"repetitions": 1.5, "algorithms": ["nn"]},
                     "repetitions must be an integer >= 1", id="repetitions-float"),
        pytest.param({"instances": [{"nodes": 10}], "algorithms": ["nn"]},
                     "instances[0] must be a path or a generator spec", id="spec-no-clusters"),
        pytest.param({"instances": [{"nodes": 10, "clusters": 3, "sed": 5}], "algorithms": ["nn"]},
                     "instances[0] must be a path or a generator spec", id="spec-unknown-key"),
        pytest.param({"instances": [5], "algorithms": ["nn"]},
                     "instances[0] must be a path or a generator spec", id="spec-not-dict"),
        pytest.param({"instances": [{"nodes": "10", "clusters": 3}], "algorithms": ["nn"]},
                     "instances[0].nodes must be an integer >= 0", id="spec-nodes-string"),
        pytest.param({"instances": [{"nodes": 5, "clusters": 9}], "algorithms": ["nn"]},
                     "instances[0]: cluster count m=9 must satisfy 2 <= m <= n=5",
                     id="spec-more-clusters-than-nodes"),
        pytest.param({"instances": [{"nodes": 1, "clusters": 1}], "algorithms": ["nn"]},
                     "instances[0]: cluster count m=1 must satisfy 2 <= m <= n=1",
                     id="spec-one-node"),
        pytest.param({"instances": [{"nodes": 1000001, "clusters": 3}], "algorithms": ["nn"]},
                     "instances[0].nodes must be at most 1000000", id="spec-more-nodes-than-grid"),
        pytest.param({"cell_cap": "x", "algorithms": ["exact"]},
                     "cell_cap must be an integer >= 1", id="cell-cap-string"),
        pytest.param({"cell_cap": -1, "algorithms": ["exact"]},
                     "cell_cap must be an integer >= 1", id="cell-cap-negative"),
        pytest.param({"max_iterations": True, "algorithms": ["racs"]},
                     "max_iterations must be an integer >= 0, got True", id="iterations-bool"),
        pytest.param({"repetitions": True, "algorithms": ["nn"]},
                     "repetitions must be an integer >= 1, got True", id="repetitions-bool"),
        pytest.param({"beta": True, "algorithms": ["racs"], "max_iterations": 1},
                     "beta must be a number, got True", id="beta-bool"),
        pytest.param({"instances": "toy.tsp", "algorithms": ["nn"]},
                     "instances must be a list, got 'toy.tsp'", id="instances-string"),
        pytest.param({"algorithms": "nn"},
                     "algorithms must be a list of strings, got 'nn'", id="algorithms-string"),
        pytest.param({"algorithms": 5}, "algorithms must be a list of strings, got 5",
                     id="algorithms-int"),
        pytest.param({"output": 5, "algorithms": ["nn"]}, "output must be a string, got 5",
                     id="output-int"),
        pytest.param({"algorithms": ["nn", "NN"]},
                     "algorithms must list each algorithm once, got ['nn', 'nn']",
                     id="algorithm-repeated"),
        pytest.param({"base_seed": "1", "algorithms": ["racs"], "max_iterations": 1},
                     "base_seed must be an integer >= 0, got '1'", id="base-seed-string"),
        # a config that is not a JSON object is written as it is
        pytest.param("abc", "config must be a JSON object, got str", id="not-object-string"),
        pytest.param([], "config must be a JSON object, got list", id="not-object-list"),
        pytest.param(None, "config must be a JSON object, got NoneType", id="not-object-null"),
    ])
    def test_bad_config_is_1(self, tmp_path, toy_file, config, message):
        cfg = tmp_path / "cfg.json"
        if isinstance(config, dict):
            config = {"instances": [str(toy_file)], **config}
        cfg.write_text(json.dumps(config))
        proc = gtsp_cli("bench", "--config", cfg)
        assert proc.returncode == 1
        assert f"gtsp bench: bad config: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_config_without_instances_is_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithms": ["nn"]}))
        proc = gtsp_cli("bench", "--config", cfg)
        assert proc.returncode == 1
        assert proc.stderr == "gtsp bench: bad config: config lists no instances\n"
        assert proc.stdout == ""

    # read from the working directory, "" and "." would become "." and write
    # "..csv" and "..json" there, ".." would write "...csv", and a trailing
    # "/" names a directory
    @pytest.mark.parametrize("output", ["", ".", "..", "res/..", "res/.", "res/"])
    def test_output_that_names_no_file_is_1(self, tmp_path, toy_file, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({
            "instances": [str(toy_file)], "algorithms": ["nn"], "output": output,
        }))
        with mock.patch.object(gtsp.cli, "run_experiment", side_effect=AssertionError):
            proc = gtsp_cli("bench", "--config", "cfg.json")
        assert proc.returncode == 1
        assert proc.stderr == (f"gtsp bench: bad config: output must name a file,"
                               f" got {output!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_all_instances_unreadable_is_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": ["ghost.gtsp"], "algorithms": ["nn"]}))
        assert gtsp_cli("bench", "--config", cfg).returncode == 2


class TestUnwritableOutput:
    """An output path under a regular file is exit 1 with a named error."""

    @pytest.mark.parametrize("cmd", ["solve", "gen", "cluster", "bench"])
    def test_cannot_write_is_1(self, tmp_path, toy_file, cmd):
        (tmp_path / "blocker").write_text("a file, not a directory")
        out = tmp_path / "blocker" / "out"
        args = {
            "solve": ["solve", toy_file, "--algo", "nn", "--out", out],
            "gen": ["gen", "--nodes", 10, "--clusters", 3, "--out", out],
            "cluster": ["cluster", DATA / "eil51.tsp", "--out", out],
            "bench": ["bench", "--config", tmp_path / "cfg.json"],
        }[cmd]
        (tmp_path / "cfg.json").write_text(json.dumps({
            "instances": [str(toy_file)], "algorithms": ["nn"], "output": "blocker/out",
        }))
        proc = gtsp_cli(*args)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"gtsp {cmd}: cannot write {out}: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    # the output's parent is a file; or one of its two files is a directory
    @pytest.mark.parametrize("output, blocked", [("blocker/out", "blocker/out"),
                                                 ("res/table", "res/table.csv"),
                                                 ("res/table", "res/table.json")])
    def test_bench_checks_output_before_solving(self, tmp_path, toy_file, output, blocked):
        (tmp_path / "blocker").write_text("")
        if blocked.startswith("res/"):
            (tmp_path / blocked).mkdir(parents=True)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [str(toy_file)], "algorithms": ["nn"], "output": output,
        }))
        with mock.patch.object(gtsp.cli, "run_experiment", side_effect=AssertionError):
            proc = gtsp_cli("bench", "--config", cfg)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"gtsp bench: cannot write {tmp_path / blocked}: ")


    @pytest.mark.parametrize("target", ["missing/out.txt", "blocker/out.txt", "."])
    def test_solve_checks_output_before_solving(self, tmp_path, toy_file, target):
        (tmp_path / "blocker").write_text("")
        out = tmp_path / target
        with mock.patch.object(gtsp.cli, "solve", side_effect=AssertionError):
            proc = gtsp_cli("solve", toy_file, "--algo", "nn", "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"gtsp solve: cannot write {out}: ")

    @pytest.mark.parametrize("exists", [False, True])
    def test_solve_output_check_neither_creates_nor_truncates(self, tmp_path, toy_file, exists):
        out = tmp_path / "out.txt"
        if exists:
            out.write_text("kept\n")
        with mock.patch.object(gtsp.cli, "solve", side_effect=RuntimeError("solver reached")):
            with pytest.raises(RuntimeError, match="solver reached"):
                gtsp_cli("solve", toy_file, "--algo", "nn", "--out", out)
        assert (out.read_text() == "kept\n") if exists else not out.exists()


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
        config = ExperimentConfig(instances=[str(gen_file)], algorithms=[algo], repetitions=1,
                                  seeds=[4], params=AcoParams(max_iterations=3))
        results = []
        real_solve = gtsp.bench.solve
        with mock.patch.object(gtsp.bench, "solve",
                               lambda *a: results.append(real_solve(*a)) or results[-1]):
            (report,) = run_experiment(config)
        assert report.results[algo].costs == [record["cost"]]
        assert [list(r.best.nodes) for r in results] == [record["nodes"]]

    def test_solve_flag_defaults_are_aco_params_defaults(self):
        # Both interfaces are made from the AcoParams declarations; pin them to
        # the names, metavars, types and config keys they had when written out.
        # A flag's type is read by the rule of instance files, `_number`.
        colony = {  # field: (flag, metavar, type, config key)
            "beta": ("--beta", "B", float, "beta"),
            "rho": ("--rho", "R", float, "rho"),
            "q0": ("--q0", "Q", float, "q0"),
            "num_ants": ("--ants", "M", int, "num_ants"),
            "time_max": ("--time-max", "S", float, "time_max"),
            "max_iterations": ("--max-iters", "K", int, "max_iterations"),
            "seed": ("--seed", "N", int, "base_seed"),
        }
        solve_cmd = build_parser()._subparsers._group_actions[0].choices["solve"]
        flags = {a.option_strings[-1]: a for a in solve_cmd._actions if a.option_strings}
        assert set(flags) == {"--help", "--algo", "--clusters", "--cluster-file", "--out",
                              "--format"} | {flag for flag, *_ in colony.values()}
        args = build_parser().parse_args(["solve", "x.tsp", "--algo", "nn"])
        d = AcoParams()
        for name, (flag, metavar, kind, _) in colony.items():
            action = flags[flag]
            assert (action.metavar, action.type.func, action.type.keywords) == (
                metavar, gtsp.cli._number, {"kind": kind})
            assert getattr(args, action.dest) == getattr(d, name)
        keys = {"instances", "algorithms", "repetitions", "seeds", "cell_cap", "output"}
        keys |= {key for *_, key in colony.values()}
        config = {"instances": ["x"], "algorithms": ["acs"], "repetitions": 1, "seeds": [3],
                  "cell_cap": 9, "output": "out", "beta": 1.0, "rho": 0.25, "q0": 0.75,
                  "num_ants": 2, "time_max": 5.0, "max_iterations": 4, "base_seed": 6}
        assert set(config) == keys
        assert ExperimentConfig.from_dict(config).params == AcoParams(
            beta=1.0, rho=0.25, q0=0.75, num_ants=2, time_max=5.0, max_iterations=4, seed=6)
        for key in ("seed", "variant", "ants", "max_iters", "params"):
            with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
                ExperimentConfig.from_dict({**config, key: 1})
