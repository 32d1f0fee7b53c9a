import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(solve_s, steps_per_s, calls, failed=0):
    """A perfbench last-line result with its call count, as two_trees keeps it."""
    return {"correct": True, "attempted": calls + failed, "failed": failed, "calls": calls,
            "metrics": {"solve_s": {"value": solve_s, "unit": "s"},
                        "steps_per_s": {"value": steps_per_s, "unit": "1/s"}}}


# A stand-in for perfbench/run.py: a report, then a last-line result whose
# every metric reads the seed; it fails for seed 13.
FAKE_PERFBENCH = '''import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == 13:
    sys.exit("no such seed")
print(json.dumps({"calls": 10, "machine": {"nproc": 2}}, indent=1))
print(json.dumps({"failed": 0, "metrics": {name: {"value": seed} for name in %r}}))
'''


@pytest.fixture(scope="module")
def two_trees():
    return load_script("two_trees")


@pytest.fixture
def fake_tree(tmp_path, two_trees):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        FAKE_PERFBENCH % list(two_trees.metric_directions()))
    return tmp_path


class TestPerfbench:
    def test_quartiles_ratio_and_wins(self, two_trees):
        parent = [result(s, 1 / s, 100) for s in (4.0, 5.0, 6.0, 7.0)]
        # the change is faster in three pairs and equal in one, which is no win
        change = [result(s, 1 / s, 120, failed=k) for k, s in enumerate((3.0, 5.0, 4.0, 5.0))]
        summary = two_trees.summarize_runs(
            parent, change, {"solve_s": "lower", "steps_per_s": "higher"}
        )
        solve = summary["solve_s"]
        assert solve["parent_q1_median_q3"] == [4.75, 5.5, 6.25]
        assert solve["change_q1_median_q3"] == [3.75, 4.5, 5.0]
        assert solve["change_over_parent_median"] == pytest.approx(4.5 / 5.5)
        assert solve["change_wins"] == "3/4"
        assert summary["steps_per_s"]["change_wins"] == "3/4"
        assert summary["calls_median"] == {"parent": 100, "change": 120}
        assert summary["failed"] == {"parent": 0, "change": 6}

    def test_seed_ranges(self, two_trees):
        assert two_trees.seed_range("2201-2204") == [2201, 2202, 2203, 2204]
        assert two_trees.seed_range("7") == [7]

    @pytest.mark.parametrize("argv", [
        ["perfbench", "--parent", ".", "--change", ".", "--workload", "w", "--seeds", "5-3"],
        ["perfbench", "--parent", ".", "--change", ".", "--workload", "w", "--seeds", "x"],
        ["quality", "--other", ".", "--seeds", "1"],
        ["quality", "--other", ".", "--seeds", "4-4"],
        ["quality", "--other", "."],  # 0-19 and 20-419 are spent, so no range is the default
    ])
    def test_bad_seeds_are_usage_errors_before_any_run(self, two_trees, tmp_path, argv,
                                                      capsys):
        with pytest.raises(SystemExit) as exit_:
            two_trees.main(argv + ["--out", str(tmp_path / "r.json")])
        assert exit_.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_directions_are_the_benchmarks(self, two_trees):
        directions = two_trees.metric_directions()
        assert directions["solve_s"] == "lower"
        assert directions["steps_per_s"] == "higher"

    def test_record_merges_one_workload_and_keeps_every_other_key(self, two_trees, fake_tree):
        out = fake_tree / "BENCH.json"
        out.write_text(json.dumps({"what": "kept", "perfbench": {"other-workload": 1}}))
        argv = ["perfbench", "--parent", str(fake_tree), "--change", str(fake_tree),
                "--workload", "w", "--seeds", "3-5", "--out", str(out)]
        assert two_trees.main(argv) == 0
        record = json.loads(out.read_text())
        assert record["what"] == "kept"
        section = record["perfbench"]
        assert section["other-workload"] == 1
        assert section["method"] == "processes"
        assert section["machine"] == {"nproc": 2}
        run = section["w"]
        assert run["seeds"] == [3, 4, 5]
        assert run["order"] == ["parent first", "change first", "parent first"]
        assert [r["seed"] for r in run["change"]] == [3, 4, 5]
        assert run["summary"]["solve_s"]["change_wins"] == "0/3"
        assert run["summary"]["failed"] == {"parent": 0, "change": 0}

    def test_a_failed_run_is_reported_with_its_stderr(self, two_trees, fake_tree, capsys):
        out = fake_tree / "BENCH.json"
        argv = ["perfbench", "--parent", str(fake_tree), "--change", str(fake_tree),
                "--workload", "w", "--seeds", "12-13", "--out", str(out)]
        with pytest.raises(SystemExit) as exit_:
            two_trees.main(argv)
        assert exit_.value.code == 1
        err = capsys.readouterr().err
        assert "w seed 13 change: perfbench exited 1" in err  # pair 1: the change goes first
        assert "no such seed" in err
        assert not out.exists()


class TestCommittedRecords:
    """The committed records reproduce through the one summary."""

    @pytest.mark.parametrize("name", ["BENCH_25.json", "BENCH_26.json"])
    def test_perfbench_summaries(self, two_trees, name):
        record = json.loads((ROOT / name).read_text())
        directions = two_trees.metric_directions()
        for workload, runs in record["workloads"].items():
            assert two_trees.summarize_runs(runs["parent"], runs["change"], directions) \
                == record["summary"][workload]

    def test_two_trees_perfbench_summaries(self, two_trees):
        # a record of `two_trees.py perfbench`: its runs and summary per workload
        record = json.loads((ROOT / "BENCH_30.json").read_text())["perfbench"]
        assert record["exact-p11"]["seeds"] == list(range(3011, 3021))
        directions = two_trees.metric_directions()
        for workload in ("exact-p11", "colony-eil51", "colony-large"):
            runs = record[workload]
            assert two_trees.summarize_runs(runs["parent"], runs["change"], directions) \
                == runs["summary"]

    def test_paired_quality(self, two_trees):
        sets = json.loads((ROOT / "BENCH_14.json").read_text())["quality"]["paired_20_seeds"]
        assert len(sets) == 4
        for entry in sets.values():
            stats = two_trees.paired_change(entry["this_gap_pct"], entry["other_gap_pct"])
            assert stats == {key: entry[key]
                             for key in ("mean_change_pct", "se_change_pct", "holds")}


class TestLoops:
    def test_quartiles_in_ms_and_median_over_the_parents(self, two_trees):
        summary = two_trees.summarize_times({"parent": [0.004, 0.005, 0.006, 0.007],
                                             "change": [0.003, 0.005, 0.004, 0.005]})
        assert summary == {"parent_q1_median_q3": [4.75, 5.5, 6.25],
                           "change_q1_median_q3": [3.75, 4.5, 5.0],
                           "change_over_parent_median": pytest.approx(4.5 / 5.5),
                           "change_wins": "3/4"}

    def test_rounds_rotate_the_first_side_and_outputs_are_compared(self, two_trees):
        made = []

        def side(name, output):
            return lambda: made.append(name) or output

        times, same = two_trees.alternate(side("p", [1, 2]), side("c", [1, 2]),
                                          seconds=0.0)  # the fewest rounds, 5
        assert same
        assert {name: len(t) for name, t in times.items()} == {"parent": 5, "change": 5}
        # warm-up of each side, one call to size the rounds, then the rounds
        assert "".join(made) == "pc" + "p" + "pc" + "cp" + "pc" + "cp" + "pc"
        assert not two_trees.alternate(side("p", [1, 2]), side("c", [1, 3]), seconds=0.0)[1]

    def test_a_record_times_the_parent_and_the_change_only(self, two_trees, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(two_trees, "side_loops",
                            lambda parent, change, directory: ({"x": lambda: [1]},
                                                               {"x": lambda: [1]}))
        out = tmp_path / "r.json"
        argv = ["loops", "--parent", str(ROOT), "--change", str(ROOT), "--out", str(out)]
        assert two_trees.main(argv + ["--seconds", "0"]) == 0
        record = json.loads(out.read_text())["loops"]
        assert set(record) == {"command", "machine", "method", "seconds", "unit",
                               "outputs_identical", "summary"}
        assert record["outputs_identical"] == {"x": True}
        assert set(record["summary"]["x"]) == set(two_trees.summarize([1.0], [1.0]))
        assert record["summary"]["x"]["change_wins"].endswith("/5")  # the fewest rounds

    def test_budgets_are_a_usage_error(self, two_trees, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            two_trees.main(["loops", "--parent", ".", "--change", ".", "--out",
                            str(tmp_path / "r.json"), "--budgets", "18,19"])
        assert exit_.value.code == 2
        assert "--budgets" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_a_budget_is_measured_as_a_tree(self, two_trees, tmp_path):
        # the change is a copy of this tree with another block budget
        source = (ROOT / "src" / "gtsp" / "instance.py").read_text()
        copy = tmp_path / "src" / "gtsp"
        shutil.copytree(ROOT / "src" / "gtsp", copy, ignore=shutil.ignore_patterns("__pycache__"))
        assert source.count("\nBLOCK_BYTES = 1 << 19\n") == 1
        (copy / "instance.py").write_text(source.replace("\nBLOCK_BYTES = 1 << 19\n",
                                                         "\nBLOCK_BYTES = 1 << 12\n"))
        parent, change = two_trees.packages(ROOT, tmp_path)
        assert change.instance.BLOCK_BYTES == 1 << 12
        assert parent.instance.BLOCK_BYTES == 1 << 19
        # 300 nodes: 218 cost rows a block at 2^19 bytes, 1 at 2^12
        coords = parent.generate_instance(300, 60, seed=1)[0]
        assert (parent.instance.per_block(300 * 8), change.instance.per_block(300 * 8)) == (218, 1)
        assert two_trees.alternate(lambda: parent.euc2d_costs(coords).cost,
                                   lambda: change.euc2d_costs(coords).cost, seconds=0.0)[1]

    def test_every_loop_runs_on_this_trees_package(self, two_trees, tmp_path):
        # a name the package no longer has fails here, not at the next record run
        parent, change = two_trees.packages(ROOT, ROOT)
        parent_loops, change_loops = two_trees.side_loops(parent, change, tmp_path)
        assert list(parent_loops) == list(change_loops)
        assert len(change_loops) == len(two_trees.SHAPES) + 11
        for call in change_loops.values():
            call()

    def test_load_loops_give_the_instance_of_each_file_kind(self, two_trees, tmp_path):
        parent, change = two_trees.packages(ROOT, ROOT)
        change_loops = two_trees.side_loops(parent, change, tmp_path)[1]
        n = two_trees.LOOP_NODES
        big = change.generate_instance(n, n // 5, seed=1)[1]
        digest = hashlib.sha256(big.costs.cost.tobytes()).hexdigest()
        eil51 = change.load_instance_file(ROOT / "data" / "eil51.tsp")
        records = {name: json.loads(change_loops[f"load_instance_file {name}"]())
                   for name in ("eil51", f"raw n={n}", f"clustered n={n}",
                                f"raw n={n} + cluster_file")}
        assert records["eil51"] == {
            "name": "11EIL51", "clusters": [list(c) for c in eil51.clusters],
            "cost_sha256": hashlib.sha256(eil51.costs.cost.tobytes()).hexdigest()}
        # the raw file clusters into the generated partition; the other two
        # take the clustered file's NAME record
        clusters = [list(c) for c in big.clusters]
        assert records[f"raw n={n}"] == {"name": "400LOOP2000", "clusters": clusters,
                                         "cost_sha256": digest}
        for name in (f"clustered n={n}", f"raw n={n} + cluster_file"):
            assert records[name] == {"name": big.name, "clusters": clusters,
                                     "cost_sha256": digest}

    def test_colony_loops_give_run_records_without_elapsed_time(self, two_trees, tmp_path):
        parent, change = two_trees.packages(ROOT, ROOT)
        change_loops = two_trees.side_loops(parent, change, tmp_path)[1]
        eil51 = change_loops["colony 11EIL51 acs+racs 20x10"]()
        corpus = change_loops["colony criterion-3 first 10 racs 100x10"]()
        # one loop on each side of the roulette width rule
        assert 1000 < change.aco._FILTER_NODES <= 2000
        wide = [*change_loops["colony n=1000/p=200 racs 3x10"](),
                *change_loops["colony n=2000/p=400 racs 3x10"]()]
        assert len(eil51) == 2 and len(corpus) == 10 and len(wide) == 2
        for text, variant, budget in [*((t, v, 20) for t, v in zip(eil51, ("acs", "racs"))),
                                      *((t, "racs", 100) for t in corpus),
                                      *((t, "racs", 3) for t in wide)]:
            record = json.loads(text)
            assert "elapsed_seconds" not in record
            assert record["params"]["variant"] == variant
            assert record["iterations"] == budget and record["params"]["num_ants"] == 10


class TestMethod:
    def test_each_side_is_its_own_package(self, two_trees):
        parent, change = two_trees.packages(ROOT, ROOT)
        assert parent.__name__ == "parent_gtsp" and change.__name__ == "change_gtsp"
        assert parent is not change and parent.aco is not change.aco
        assert parent.aco.__name__ == "parent_gtsp.aco"
        assert change.run is not parent.run

    def test_both_sides_read_the_same_inputs(self, two_trees, monkeypatch, tmp_path):
        parent, change = two_trees.packages(ROOT, ROOT)
        seen = []  # the arguments of each recorded call, the outermost first

        def record(real, kept=None):
            # a colony run's parameters are each package's own object, so only
            # its instance is compared
            return lambda *args: seen.append(args[:kept]) or real(*args)

        for g in (parent, change):
            monkeypatch.setattr(g.aco, "_visibility_lookup", record(g.aco._visibility_lookup))
        parent_loops, change_loops = two_trees.side_loops(parent, change, tmp_path)
        firsts = [seen[:]]  # the seeding's lookup, once per side as the loops are built
        for g in (parent, change):
            for owner, name, kept in ((g, "exact_solve", None), (g, "euc2d_costs", None),
                                      (g.instance, "_is_symmetric", None), (g, "run", 1),
                                      (g, "load_instance_file", None)):
                monkeypatch.setattr(owner, name, record(getattr(owner, name), kept))
        for name in parent_loops:  # each loop's own call, once per side
            firsts.append([])
            for loop in (parent_loops[name], change_loops[name]):
                seen.clear()
                loop()
                firsts[-1] += seen[:1]
        assert sum(len(pair) == 2 for pair in firsts) == len(parent_loops)  # all but seeding
        for pair in firsts:
            assert len(pair) in (0, 2)
            assert all(a is b for a, b in zip(*pair, strict=True))

    @pytest.mark.parametrize("command", ["perfbench", "loops", "quality"])
    def test_help_exits_0(self, command):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, str(SCRIPTS / "two_trees.py"), command, "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"usage: two_trees.py {command} ")


# a docstring, a comment, blank lines, a string-only statement, and one
# statement over three lines: 1 + 3 code lines
CODE_LINES_MODULE = '''"""A module docstring
over two lines."""

# a comment
import os

"a string used as a comment"
total = (1 +
         2 +
         3)
'''


class TestCodeLines:
    def test_counts_only_code(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(CODE_LINES_MODULE)
        assert load_script("code_lines").code_lines(path) == 4

    def test_total_is_the_sum_of_the_modules(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(CODE_LINES_MODULE)
        (tmp_path / "b.py").write_text("x = 1\n\n\ndef f():\n    return x\n")
        assert load_script("code_lines").main([str(tmp_path)]) == 0
        counts = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert counts == {"a.py": "4", "b.py": "3", "total": "7"}
