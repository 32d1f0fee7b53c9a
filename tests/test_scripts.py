import importlib.util
import types
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(solve_s, steps_per_s, calls, failed=0):
    """A perfbench last-line result with its call count, as bench_pairs keeps it."""
    return {"correct": True, "attempted": calls + failed, "failed": failed, "calls": calls,
            "metrics": {"solve_s": {"value": solve_s, "unit": "s"},
                        "steps_per_s": {"value": steps_per_s, "unit": "1/s"}}}


class TestBenchPairsSummary:
    def test_quartiles_ratio_and_wins(self):
        bench_pairs = load_script("bench_pairs")
        parent = [result(s, 1 / s, 100) for s in (4.0, 5.0, 6.0, 7.0)]
        # the change is faster in three pairs and equal in one, which is no win
        change = [result(s, 1 / s, 120, failed=k) for k, s in enumerate((3.0, 5.0, 4.0, 5.0))]
        summary = bench_pairs.summarize(
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

    def test_seed_ranges(self):
        bench_pairs = load_script("bench_pairs")
        assert bench_pairs.seed_range("2201-2204") == [2201, 2202, 2203, 2204]
        assert bench_pairs.seed_range("7") == [7]

    def test_directions_are_the_benchmarks(self):
        directions = load_script("bench_pairs").metric_directions()
        assert directions["solve_s"] == "lower"
        assert directions["steps_per_s"] == "higher"


class TestExactShapesSummary:
    def test_quartiles_in_ms_and_median_over_the_parents(self):
        exact_shapes = load_script("exact_shapes")
        summary = exact_shapes.summarize({"parent": [0.004, 0.005, 0.006, 0.007],
                                          "2^19": [0.003, 0.005, 0.004, 0.005]})
        assert summary["parent"] == {"q1_median_q3_ms": [4.75, 5.5, 6.25], "over_parent": 1.0}
        assert summary["2^19"] == {"q1_median_q3_ms": [3.75, 4.5, 5.0],
                                   "over_parent": round(4.5 / 5.5, 4)}

    def test_rounds_rotate_the_first_side_and_outputs_are_compared(self):
        exact_shapes = load_script("exact_shapes")
        made = []

        def side(name, output):
            return lambda: made.append(name) or output

        calls = {"parent": side("p", [1, 2]), "2^17": side("a", [1, 2]), "2^18": side("b", [1, 2])}
        times, same = exact_shapes.alternate(calls, seconds=0.0)  # the fewest rounds, 5
        assert same
        assert {name: len(t) for name, t in times.items()} == {"parent": 5, "2^17": 5, "2^18": 5}
        # warm-up of each side, one call to size the rounds, then the rounds
        assert "".join(made) == "pab" + "p" + "pab" + "abp" + "bpa" + "pab" + "abp"
        calls["2^18"] = side("b", [1, 3])
        assert not exact_shapes.alternate(calls, seconds=0.0)[1]

    def test_every_loop_runs_on_this_trees_package(self):
        # a name the package no longer has fails here, not at the next record run
        exact_shapes = load_script("exact_shapes")
        g = exact_shapes.load_package(SCRIPTS.parent, "tree_gtsp")
        shared = exact_shapes.inputs(g, (SCRIPTS.parent / "data" / "eil51.tsp").read_text())
        loops = exact_shapes.loops(g, *shared)
        assert len(loops) == len(exact_shapes.SHAPES) + 3
        for call in loops.values():
            call()

    def test_a_budget_is_set_before_each_call(self):
        exact_shapes = load_script("exact_shapes")
        module = types.SimpleNamespace(BLOCK_BYTES=1 << 19)
        call = exact_shapes.with_budget(module, 16, lambda: module.BLOCK_BYTES)
        module.BLOCK_BYTES = 1 << 20
        assert call() == 16


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
