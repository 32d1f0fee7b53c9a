#!/usr/bin/env python3
"""Benchmark for gtsp: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload colony-eil51 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A workload runs in this single-threaded process (`all` starts one process per
workload, one after the other). It loads its inputs through
`gtsp.bench.load_instance_file`, solves them with iteration budgets only,
checks every output, prints a report (machine, settings, metrics with units
and sample counts, failures) and, as its last line, one JSON result. Timings
are scaled to a reference machine speed by the gauge in gauge.py, which
samples the speed while the workload runs; the report also gives the plain
wall-clock medians.
`--trace 0` measures the end-to-end metrics; `--trace 1` wraps the layers'
functions, reports the per-layer metrics and the tracing overhead, and writes
the spans to perfbench/out/. perfbench/README.md says why each workload was
chosen and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from gauge import Gauge
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EIL51 = ROOT / "data" / "eil51.tsp"
EIL51_OPTIMUM = ROOT / "data" / "derived" / "11eil51_optimum.json"
RECORDED_OPTIMA = HERE / "data" / "exact_optima.json"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# An instance spec is "eil51" (data/eil51.tsp) or a node count n: a seeded
# random EUC_2D file this benchmark writes. gtsp clusters both on load into
# ceil(n/5) clusters. A call's instance is schedule[i] while the schedule
# lasts and instance 0 after it; the first `min_calls` calls are always made
# (the quality metric and the traced counts use only these), and calls go on
# until --seconds have passed. `traced` lists the call indices of a --trace 1
# run. "ref" is what cost_ratio_pct divides by: the certified or recorded
# optimum, or the instance's nearest-neighbour cost L_nn. All
# `setup_repeats` load rounds run before the first call; for the small files
# they are many, so that the loads span about a second. "gauge" names the
# reference computations (gauge.py) whose readings, taken every
# `gauge_every_s`, scale the timed loads and calls to the reference speed.
WORKLOADS = {
    "colony-eil51": {
        "solver": "colony",
        "instances": ["eil51"],
        "ref": "optimum",
        "iterations": 20,
        "ants": 10,
        "variants": ["acs", "racs"],
        "min_calls": 300,
        "traced": list(range(20)),
        "setup_repeats": 3000,
        "gauge": ["python"],
        "gauge_every_s": 0.05,
    },
    "colony-large": {
        "solver": "colony",
        "instances": [2000],
        "ref": "nn",
        "iterations": 5,
        "ants": 10,
        "variants": ["racs"],
        "min_calls": 30,
        "traced": [0, 1, 2],
        "setup_repeats": 8,
        "gauge": ["python", "memory"],
        "gauge_every_s": 0.1,
    },
    "exact-p11": {
        "solver": "exact",
        "instances": ["eil51", 50, 55],
        "ref": "optimum",
        # 11EIL51 before, between and after the generated instances, so it is
        # most of the samples and the medians do not move with the seed.
        "schedule": [0, 1, 0, 2, 0],
        "min_calls": 5,
        "traced": [0, 1, 3],
        "setup_repeats": 1500,
        "gauge": ["python"],
        "gauge_every_s": 0.2,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_s_tail": "s",
    "steps_per_s": "1/s",
    "cost_ratio_pct": "%",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "bench.load_instance_file.s": "s",
    "instance.parse_tsplib.s": "s",
    "instance.euc2d_costs.s": "s",
    "instance.cluster_instance.s": "s",
    "instance.cost_matrix_bytes": "B",
    "aco.choose_next.calls": "count",
    "aco.choose_next.us": "us",
    "aco.local_update.us": "us",
    "aco.global_update.us": "us",
    "aco.evaporation_reinit.us": "us",
    "aco.run.self_s": "s",
    "aco.improving_iter_frac": "ratio",
    "construct.make_tour.calls": "count",
    "construct.make_tour.us": "us",
    "construct.nn_reference_cost.s": "s",
    "exact.exact_solve.s": "s",
    "exact.exact_solve.self_s": "s",
    "exact.best_tour_for_sequence.us": "us",
    "exact.orders": "count",
    "bench.trace_overhead_s": "s",
}


def load_gtsp() -> SimpleNamespace:
    """Import numpy and gtsp from this checkout's src/, one thread each."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "gtsp" / "__init__.py").is_file():
        raise SystemExit(f"gtsp sources not found under {src}")
    sys.path.insert(0, str(src))
    import numpy

    import gtsp
    import gtsp.aco
    import gtsp.bench
    import gtsp.construct
    import gtsp.exact

    if Path(gtsp.__file__).resolve().parent != src / "gtsp":
        raise SystemExit(f"imported gtsp from {gtsp.__file__}, not from {src}")
    return SimpleNamespace(
        numpy=numpy, aco=gtsp.aco, bench=gtsp.bench, construct=gtsp.construct, exact=gtsp.exact
    )


# ---------------------------------------------------------------- inputs


def random_points(n: int, seed: int) -> list[tuple[int, int]]:
    """n distinct points of the 1000 x 1000 integer grid, a pure function of (n, seed)."""
    rng = random.Random(f"gtsp-bench:{n}:{seed}")
    return [(v % 1000, v // 1000) for v in rng.sample(range(1000 * 1000), n)]


def write_tsplib(path: Path, name: str, points) -> None:
    lines = [f"NAME : {name}", "TYPE : TSP", f"DIMENSION : {len(points)}"]
    lines += ["EDGE_WEIGHT_TYPE : EUC_2D", "NODE_COORD_SECTION"]
    lines += [f"{i} {x} {y}" for i, (x, y) in enumerate(points, start=1)]
    path.write_text("\n".join(lines + ["EOF"]) + "\n")


def read_points(path: Path) -> list[tuple[float, float]]:
    """Coordinates of a TSPLIB EUC_2D file, read without gtsp."""
    points, in_coords = [], False
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts == ["NODE_COORD_SECTION"]:
            in_coords = True
        elif parts == ["EOF"]:
            break
        elif in_coords and len(parts) == 3:
            points.append((float(parts[1]), float(parts[2])))
    return points


def closed_cost(points, nodes) -> int:
    """Tour cost from the coordinates: TSPLIB nearest-integer distances."""
    total = 0
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        dx, dy = points[a][0] - points[b][0], points[a][1] - points[b][1]
        total += int(math.floor(math.sqrt(dx * dx + dy * dy) + 0.5))
    return total


def make_sources(spec_list, seed: int) -> list[SimpleNamespace]:
    """The workload's input files with what the checks know about each."""
    recorded = json.loads(RECORDED_OPTIMA.read_text())
    sources = []
    for spec in spec_list:
        if spec == "eil51":
            cert = json.loads(EIL51_OPTIMUM.read_text())
            sources.append(SimpleNamespace(
                path=EIL51, points=read_points(EIL51), optimum=cert["cost"],
                clusters=sorted(sorted(c) for c in cert["clusters"]),
            ))
            continue
        points = random_points(spec, seed)
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"gen{spec}-s{seed}.tsp"
        write_tsplib(path, f"gen{spec}", points)
        sources.append(SimpleNamespace(
            path=path, points=points,
            optimum=recorded.get(str(spec), {}).get(str(seed)), clusters=None,
        ))
    return sources


# ---------------------------------------------------------------- solving and checking


def instance_index(w: dict, i: int) -> int:
    schedule = w.get("schedule", [])
    return schedule[i] if i < len(schedule) else 0


def solve(g, w: dict, inst, i: int, seed: int, clock):
    """Call i of the workload: (start, end, nodes, cost, colony RunResult or
    None), with start and end read from `clock`."""
    if w["solver"] == "colony":
        params = g.aco.AcoParams(
            num_ants=w["ants"],
            max_iterations=w["iterations"],
            seed=seed * 100_000 + i,
            variant=w["variants"][i % len(w["variants"])],
        )
        start = clock()
        result = g.aco.run(inst, params)
        end = clock()
        return start, end, list(result.best.nodes), result.best.cost, result
    start = clock()
    tour = g.exact.exact_solve(inst)
    end = clock()
    return start, end, list(tour.nodes), tour.cost, None


def steps(w: dict, inst) -> int:
    """Nominal solver steps of one call: ant steps, or the (p-1)! cluster orders."""
    if w["solver"] == "colony":
        return w["iterations"] * w["ants"] * (inst.p - 1)
    return math.factorial(inst.p - 1)


def check(g, w, src, inst, l_nn, nodes, cost, result) -> list[str]:
    """Every way this output is wrong; empty when it is right."""
    try:
        g.construct.validate_tour(inst, nodes)
    except g.construct.InvalidTourError as exc:
        return [f"invalid tour: {exc}"]
    bad = []
    if g.construct.tour_cost(inst, nodes) != cost:
        bad.append(f"tour_cost {g.construct.tour_cost(inst, nodes)} != reported {cost}")
    if closed_cost(src.points, nodes) != cost:
        bad.append(f"cost from coordinates {closed_cost(src.points, nodes)} != reported {cost}")
    if cost > l_nn:
        bad.append(f"cost {cost} above L_nn {l_nn}")
    if src.optimum is not None:
        if cost < src.optimum:
            bad.append(f"cost {cost} below the optimum {src.optimum}")
        if w["solver"] == "exact" and cost != src.optimum:
            bad.append(f"exact cost {cost} != optimum {src.optimum}")
    if result is not None:
        trace = list(result.trace)
        if result.iterations != w["iterations"] or len(trace) != w["iterations"]:
            bad.append(f"ran {result.iterations} iterations, budget {w['iterations']}")
        if any(b > a for a, b in zip(trace, trace[1:])) or (trace and trace[-1] != cost):
            bad.append("best-so-far trace increases or does not end at the cost")
    return bad


class Tally:
    """Attempted and failed operations, and why the first few failed."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0
        self.messages: list[str] = []

    def fail(self, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.messages) < 10:
            self.messages.append(message)


def load_rounds(g, sources, repeats: int, gauge: Gauge, tracer: Tracer | None = None):
    """Load every source `repeats` times, back to back; return the last
    round's instances and every round's timing, a round being the time to
    load all the workload's inputs once. A round drops the previous round's
    instances before it loads, as a process that loads once would."""
    rounds, insts = [], []
    for r in range(repeats):
        insts = []
        start = gauge.now()
        for k, src in enumerate(sources):
            if tracer is not None:
                tracer.run_id = -(1 + r * len(sources) + k)
            insts.append(g.bench.load_instance_file(src.path))
        end = gauge.now()
        rounds.append(SimpleNamespace(start=start, end=end, elapsed=end - start))
    return insts, rounds


def check_instances(sources, insts, tally: Tally) -> None:
    for src, inst in zip(sources, insts):
        tally.attempted += 1
        if src.clusters is not None and sorted(list(c) for c in inst.clusters) != src.clusters:
            tally.fail(f"{src.path.name}: clusters differ from the certified 11EIL51", True)


def run_calls(g, w, seed, sources, insts, l_nn, indices, seconds, tally, gauge, tracer=None):
    """Make the calls in `indices`, then more until `seconds` have passed;
    return the records of the calls whose output passed the checks, each
    timed by the gauge's clock."""
    records = []
    started = time.perf_counter()
    i = 0
    while i < len(indices) or time.perf_counter() - started < seconds:
        call = indices[i] if i < len(indices) else i
        k = instance_index(w, call)
        if tracer is not None:
            tracer.run_id = call
        tally.attempted += 1
        i += 1
        try:
            start, end, nodes, cost, result = solve(g, w, insts[k], call, seed, gauge.now)
        except Exception as exc:  # a refusal or crash is a failed operation, not the end of the run
            traceback.print_exc(file=sys.stderr)
            tally.fail(f"call {call} on {sources[k].path.name}: {type(exc).__name__}: {exc}", False)
            continue
        bad = check(g, w, sources[k], insts[k], l_nn[k], nodes, cost, result)
        if bad:
            tally.fail(f"call {call} on {sources[k].path.name}: " + "; ".join(bad), True)
            continue
        ref = l_nn[k] if w["ref"] == "nn" else sources[k].optimum
        records.append(SimpleNamespace(
            call=call, start=start, end=end, elapsed=end - start, cost=cost, ref=ref,
            l_nn=l_nn[k], result=result, p=insts[k].p,
        ))
    return records


# ---------------------------------------------------------------- metrics


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples
    beyond it. Below 21 samples that percentile is not above the median, so
    no tail is resolved and the median stands in (percentile 50)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(w, records, rounds, call_steps: int) -> tuple[dict, dict]:
    times = [r.scaled for r in records]
    setup_times = [x.scaled for x in rounds]
    fixed = [r for r in records if r.call < w["min_calls"] and r.ref]
    tail_value, tail_pct = tail(times)
    ratios = [100.0 * r.cost / r.ref for r in fixed]
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "solve_s": (statistics.median(times), len(times)),
        "solve_s_tail": (tail_value, len(times)),
        "steps_per_s": (call_steps / statistics.median(times), len(records)),
        "cost_ratio_pct": (statistics.fmean(ratios), len(ratios)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    extra = {
        "solve_s_tail_percentile": tail_pct,
        "wall_setup_s": statistics.median(x.elapsed for x in rounds),
        "wall_solve_s": statistics.median(r.elapsed for r in records),
        "cost_gap_pct": statistics.fmean(ratios) - 100.0,
        "calls": len(records),
    }
    return metrics, extra


def per_layer(w, tracer: Tracer, insts, traced, untraced, tally: Tally) -> tuple[dict, dict]:
    spans = tracer.summary()
    empty = {"dur": [], "self": [], "run": []}

    def rec(name):
        return spans.get(name, empty)

    def med(name, key="dur", scale=1.0):
        values = rec(name)[key]
        return median_or_zero(values) * scale, len(values)

    colony = [r for r in traced if r.result is not None]
    expected_steps = sum(r.result.iterations * r.result.params.num_ants * (r.p - 1) for r in colony)
    choose_calls = len(rec("aco.choose_next")["dur"])
    tally.attempted += 1
    if choose_calls and choose_calls != expected_steps:
        tally.fail(f"trace: {choose_calls} choose_next calls, {expected_steps} ant steps", False)

    # Per colony run: the self times of everything under aco.run plus its own
    # self time must add up to the aco.run span.
    by_run: dict[int, float] = {}
    for name, rec_ in spans.items():
        for own, run in zip(rec_["self"], rec_["run"]):
            by_run[run] = by_run.get(run, 0.0) + own
    runs = rec("aco.run")
    for dur, run in zip(runs["dur"], runs["run"]):
        tally.attempted += 1
        if abs(by_run[run] - dur) > 1e-6:
            tally.fail(f"trace: self times of run {run} add to {by_run[run]}, span is {dur}", False)

    improving = total_iters = 0
    for r in colony:
        previous = r.l_nn
        for cost in r.result.trace:
            improving += cost < previous
            previous = cost
            total_iters += 1

    overhead = median_or_zero([r.scaled for r in traced]) - median_or_zero(
        [r.scaled for r in untraced]
    )
    exact = [r for r in traced if r.result is None]
    # (value, samples): span-derived times are medians over that many spans.
    metrics = {
        "bench.load_instance_file.s": med("bench.load_instance_file"),
        "instance.parse_tsplib.s": med("instance.parse_tsplib"),
        "instance.euc2d_costs.s": med("instance.euc2d_costs"),
        "instance.cluster_instance.s": med("instance.cluster_instance"),
        "instance.cost_matrix_bytes": (max(i.costs.cost.nbytes for i in insts), len(insts)),
        "aco.choose_next.calls": (choose_calls, len(colony)),
        "aco.choose_next.us": med("aco.choose_next", scale=1e6),
        "aco.local_update.us": med("aco.local_update", scale=1e6),
        "aco.global_update.us": med("aco.global_update", scale=1e6),
        "aco.evaporation_reinit.us": med("aco.evaporation_reinit", scale=1e6),
        "aco.run.self_s": med("aco.run", "self"),
        "aco.improving_iter_frac": (improving / total_iters if total_iters else 0.0, total_iters),
        "construct.make_tour.calls": (len(rec("construct.make_tour")["dur"]), len(traced)),
        "construct.make_tour.us": med("construct.make_tour", scale=1e6),
        "construct.nn_reference_cost.s": med("construct.nn_reference_cost"),
        "exact.exact_solve.s": med("exact.exact_solve"),
        "exact.exact_solve.self_s": med("exact.exact_solve", "self"),
        "exact.best_tour_for_sequence.us": med("exact.best_tour_for_sequence", scale=1e6),
        "exact.orders": (sum(math.factorial(r.p - 1) for r in exact), len(exact)),
        "bench.trace_overhead_s": (overhead, len(traced)),
    }
    extra = {
        "spans": len(tracer.spans),
        "expected_ant_steps": expected_steps,
        "solve_s_traced": median_or_zero([r.scaled for r in traced]),
        "solve_s_untraced": median_or_zero([r.scaled for r in untraced]),
        "span_counts": {name: len(r["dur"]) for name, r in sorted(spans.items())},
    }
    return metrics, extra


# ---------------------------------------------------------------- report


def machine(numpy) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")
            info["caches"][label] = (index / "size").read_text().strip()
    except OSError:
        pass  # not Linux, or no cache information: leave what was found
    return info


def run_workload(g, name: str, w: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its report and return the result object."""
    tally = Tally()
    sources = make_sources(w["instances"], seed)
    tracer = Tracer() if trace else None
    gauge = Gauge(w["gauge"], w["gauge_every_s"])
    with gauge:
        with tracer.installed() if trace else contextlib.nullcontext():
            insts, rounds = load_rounds(g, sources, w["setup_repeats"], gauge, tracer)
        check_instances(sources, insts, tally)
        l_nn = [g.construct.nn_reference_cost(inst)[0] for inst in insts]
        if not trace:
            fixed = list(range(w["min_calls"]))
            records = run_calls(g, w, seed, sources, insts, l_nn, fixed, seconds, tally, gauge)
        else:
            with tracer.installed():
                traced = run_calls(
                    g, w, seed, sources, insts, l_nn, w["traced"], 0, tally, gauge, tracer
                )
            untraced = run_calls(g, w, seed, sources, insts, l_nn, w["traced"], 0, tally, gauge)
            records = traced + untraced
    gauge.scale(rounds + records)
    if not trace:
        if not records:
            raise SystemExit(f"{name}: no call succeeded; nothing to measure")
        metrics, extra = end_to_end(w, records, rounds, steps(w, insts[0]))
    else:
        metrics, extra = per_layer(w, tracer, insts, traced, untraced, tally)
        spans_file = OUT / f"spans-{name}-s{seed}.jsonl"
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_file)
        extra["spans_file"] = str(spans_file.relative_to(ROOT))

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(g.numpy),
        "settings": w,
        "program_defaults": {
            "aco_params": vars(g.aco.AcoParams()),
            "exact_sequence_cap": getattr(g.exact, "DEFAULT_SEQUENCE_CAP", None),
        },
        "inputs": [str(s.path.relative_to(ROOT)) for s in sources],
        "gauge": gauge.summary(),
        "metrics": {
            k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()
        },
        "fail_frac": tally.failed / tally.attempted,
        "failures": tally.messages,
        **extra,
    }
    print(json.dumps(report, indent=1))
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status

    g = load_gtsp()
    result = run_workload(
        g, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
