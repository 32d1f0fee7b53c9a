"""Solver dispatch and benchmark harness.

`solve` is the one entry point over the four algorithms (`ALGORITHMS`): it
runs and times exact, NN, ACS or RACS on one instance and returns the same
record for all four, `gtsp.aco.RunResult`, the one `gtsp.aco.run` returns.
Both `gtsp solve` and `run_experiment` call it and read that record.

The experiment protocol mirrors the usual benchmark setup: deterministic
algorithms run once, the ant colonies run `repetitions` times (default five)
under a wall clock budget (default `DEFAULT_TIME_MAX`, ten minutes), and each
table cell reports the best and the mean over those runs. An
`ExperimentConfig` holds its colony parameters as one `AcoParams`; a config
file gives them as flat keys made from the `AcoParams` field declarations
(`COLONY_KEYS`). Every key is checked by `gtsp.aco.check` when the config is
built, before any solver runs. Pin `max_iterations` instead of `time_max`
whenever reproducible output bytes matter; `scripts/benchmark.json` does.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import MISSING, InitVar, dataclass, field, replace
from functools import partial
from pathlib import Path

from .aco import PARAMS, VARIANTS, AcoParams, RunResult, check, declared, param, run
from .construct import nn_reference_cost
from .exact import DEFAULT_CELL_CAP, CellCapExceeded, exact_solve
from .instance import (
    GtspInstance,
    check_cluster_count,
    check_node_count,
    generate_instance,
    load_instance_file,
)

ALGORITHMS = ("exact", "nn", "acs", "racs")
DEFAULT_TIME_MAX = 600.0  # seconds per colony run: the benchmark's ten-minute budget


def solve(
    instance: GtspInstance, algo: str, params: AcoParams, cell_cap: int = DEFAULT_CELL_CAP
) -> RunResult:
    """Run one of `ALGORITHMS` on `instance`.

    The colonies run with `params` under the variant `algo`; exact and NN
    ignore `params` and leave the colony fields of the result None. Every
    algorithm is timed the same way: `elapsed` is the wall time of this call.
    Raises CellCapExceeded when the exact solver refuses.
    """
    started = time.perf_counter()
    if algo == "exact":
        result = RunResult(exact_solve(instance, cell_cap=cell_cap), 0.0)
    elif algo == "nn":
        result = RunResult(nn_reference_cost(instance)[1], 0.0)
    elif algo in VARIANTS:
        result = run(instance, replace(params, variant=algo))
    else:
        raise ValueError(f"unknown algorithm {algo!r}; known: {list(ALGORITHMS)}")
    result.elapsed = time.perf_counter() - started
    return result


@dataclass(frozen=True)
class GeneratorSpec:
    """A random instance, `generate_instance`'s arguments, each declared once
    with its bound and `gtsp gen` flag: the `gtsp gen` flags and the keys of
    a generator spec in `ExperimentConfig.instances` are made from these
    fields. A field without a default is required. `where` names the spec in
    an error (`instances[i]` in a config)."""

    nodes: int = param(bound=0, flag="--nodes", metavar="N")
    clusters: int = param(bound=0, flag="--clusters", metavar="P")
    seed: int = param(0, 0, "--seed", "S")
    where: InitVar[str] = ""

    def __post_init__(self, where: str) -> None:
        prefix = f"{where}." if where else ""
        for f, hint in GENERATOR:
            object.__setattr__(self, f.name, check(prefix + f.name, getattr(self, f.name), hint,
                                                   f.metadata["bound"]))
        check_node_count(self.nodes, prefix + "nodes")
        try:
            check_cluster_count(self.clusters, self.nodes)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}" if where else str(exc)) from None

    def generate(self):
        """The coordinates and instance of `generate_instance`."""
        return generate_instance(self.nodes, self.clusters, self.seed)


GENERATOR = declared(GeneratorSpec)
# the keys a generator spec must have and those it may leave out, in field order
_SPEC_REQUIRED = [f.name for f, _ in GENERATOR if f.default is MISSING]
_SPEC_OPTIONAL = [f.name for f, _ in GENERATOR if f.default is not MISSING]


# config key -> (field, type) of each colony parameter: the AcoParams fields
# declared with a `gtsp solve` flag, in field order
COLONY_KEYS = {f.metadata["key"] or f.name: (f, h) for f, h in PARAMS if f.metadata["flag"]}


@dataclass
class ExperimentConfig:
    """Everything one benchmark run needs; mirrors the JSON config file.

    A config's own keys are the fields before `params`, each declared with
    `param` and checked by `__post_init__` with `check` under its key. The
    colony keys (`COLONY_KEYS`) are the flat keys of `params`; `from_dict`
    checks each under its key and builds `params` from them, with `time_max`
    defaulting to `DEFAULT_TIME_MAX` even when `max_iterations` is set. So a
    bad value fails when the config loads, before any solver runs.
    """

    instances: list = param(())  # file paths (str) or generator specs, kept as `GeneratorSpec`
    algorithms: list[str] = param(ALGORITHMS, ALGORITHMS)
    repetitions: int = param(5, 1)
    seeds: list[int] | None = param(None, 0)
    cell_cap: int = param(DEFAULT_CELL_CAP, 1)
    output: str | None = param(None)
    params: AcoParams = field(default_factory=partial(AcoParams, time_max=DEFAULT_TIME_MAX))

    def __post_init__(self) -> None:
        for f, hint in OWN_KEYS:
            setattr(self, f.name, check(f.name, getattr(self, f.name), hint, f.metadata["bound"]))
        if not self.instances:
            raise ValueError("config lists no instances")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"algorithms must list each algorithm once, got {self.algorithms}")
        if self.output is not None and self.output.rpartition("/")[2] in ("", ".", ".."):
            raise ValueError(f"output must name a file, got {self.output!r}")
        specs = []
        for i, spec in enumerate(self.instances):
            if isinstance(spec, dict) and spec.keys() - set(_SPEC_OPTIONAL) == set(_SPEC_REQUIRED):
                spec = GeneratorSpec(**spec, where=f"instances[{i}]")
            elif not isinstance(spec, (str, GeneratorSpec)):
                raise ValueError(f"instances[{i}] must be a path or a generator spec with keys"
                                 f" {', '.join(_SPEC_REQUIRED)} and optionally"
                                 f" {', '.join(_SPEC_OPTIONAL)}, got {spec!r}")
            specs.append(spec)
        self.instances = specs
        if self.seeds is not None and len(self.seeds) < self.repetitions:
            raise ValueError(f"{self.repetitions} repetitions need {self.repetitions} seeds,"
                             f" got {len(self.seeds)}")
        if self.params.time_max is None and self.params.max_iterations is None:
            raise ValueError("need a stopping rule: set time_max and/or max_iterations")

    def rep_seeds(self) -> list[int]:
        if self.seeds is not None:
            return [int(s) for s in self.seeds[: self.repetitions]]
        return [self.params.seed + i for i in range(self.repetitions)]

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = data.keys() - {f.name for f, _ in OWN_KEYS} - COLONY_KEYS.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        colony = {f.name: check(key, data[key], hint, f.metadata["bound"])
                  for key, (f, hint) in COLONY_KEYS.items() if key in data}
        own = {key: value for key, value in data.items() if key not in COLONY_KEYS}
        cfg = cls(**own, params=AcoParams(**{"time_max": DEFAULT_TIME_MAX, **colony}))
        if base_dir is not None:
            cfg.instances = [str(base_dir / s) if isinstance(s, str) else s for s in cfg.instances]
            if cfg.output is not None:
                cfg.output = str(base_dir / cfg.output)
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        data = json.loads(path.read_text())
        return cls.from_dict(data, base_dir=path.parent)


# the config's own keys: the fields of ExperimentConfig before `params`, in order
OWN_KEYS = declared(ExperimentConfig)[:-1]


@dataclass
class AlgoResult:
    """Per-algorithm cell of a report row."""

    costs: list[int] = field(default_factory=list)
    elapsed: list[float] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    error: str | None = None

    @property
    def best(self) -> int | None:
        return min(self.costs) if self.costs else None

    @property
    def mean(self) -> float | None:
        return sum(self.costs) / len(self.costs) if self.costs else None

    @property
    def mean_elapsed(self) -> float | None:
        return sum(self.elapsed) / len(self.elapsed) if self.elapsed else None

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "costs": list(self.costs),
            "best": self.best,
            "mean": self.mean,
            "iterations": list(self.iterations),
            "seeds": list(self.seeds),
            "error": self.error,
        }
        if include_elapsed:
            out["elapsed"] = list(self.elapsed)
            out["mean_elapsed"] = self.mean_elapsed
        return out


@dataclass
class RunReport:
    """One table row: an instance and its per-algorithm results."""

    problem: str
    nc: int
    n: int
    optimum: int | None
    results: dict[str, AlgoResult]

    def to_dict(self, include_elapsed: bool = True) -> dict:
        return {
            "problem": self.problem,
            "nc": self.nc,
            "n": self.n,
            "optimum": self.optimum,
            "results": {
                algo: cell.to_dict(include_elapsed) for algo, cell in self.results.items()
            },
        }


def sidecar_optimum(path: str | Path) -> int | None:
    """Known optimum from `<instance-file>.opt`, if present.

    Raises ValueError when the file does not start with a non-negative
    integer.
    """
    opt_path = Path(str(path) + ".opt")
    if not opt_path.exists():
        return None
    tokens = opt_path.read_text().split()
    if not tokens:
        raise ValueError(f"{opt_path.name} is empty")
    try:
        optimum = int(tokens[0])
    except ValueError:
        optimum = -1  # refused below, with the negative ones
    if optimum < 0:
        raise ValueError(f"{opt_path.name}: {tokens[0]!r} is not a non-negative integer optimum")
    return optimum


def _error_text(exc: Exception) -> str:
    """The message of `exc`, naming an allocation that failed as out of memory."""
    return f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)


def run_experiment(config: ExperimentConfig) -> list[RunReport]:
    """Run every configured algorithm on every instance.

    Every cell goes through `solve`. Deterministic algorithms run once; the
    colonies run `repetitions` times, once per seed of `rep_seeds()`.
    Unreadable instances, those whose tour sums overflow int64 and those that
    run out of memory while they load are reported on stderr and skipped; an
    unreadable optimum sidecar is reported on stderr and the row kept without
    an optimum; an exact-solver refusal, or a solver that runs out of memory,
    leaves a dash and its error in that cell.
    """
    reports: list[RunReport] = []
    for spec in config.instances:
        try:
            instance = load_instance_file(spec) if isinstance(spec, str) else spec.generate()[1]
        except (OSError, ValueError, MemoryError) as exc:
            label = spec if isinstance(spec, str) else vars(spec)
            print(f"gtsp bench: skipping {label!r}: {_error_text(exc)}", file=sys.stderr)
            continue
        optimum = None
        if isinstance(spec, str):
            try:
                optimum = sidecar_optimum(spec)
            except (OSError, ValueError) as exc:
                print(f"gtsp bench: ignoring the optimum of {spec!r}: {exc}", file=sys.stderr)
        results: dict[str, AlgoResult] = {}
        for algo in config.algorithms:
            cell = results[algo] = AlgoResult()
            for seed in config.rep_seeds():
                try:
                    result = solve(instance, algo, replace(config.params, seed=seed),
                                   config.cell_cap)
                except (CellCapExceeded, MemoryError) as exc:
                    cell.error = _error_text(exc)
                    break
                cell.costs.append(result.best.cost)
                cell.elapsed.append(result.elapsed)
                if result.params is None:
                    break  # exact and NN are deterministic: one run
                cell.iterations.append(result.iterations)
                cell.seeds.append(seed)
        reports.append(
            RunReport(
                problem=instance.name,
                nc=instance.p,
                n=instance.n,
                optimum=optimum,
                results=results,
            )
        )
    return reports


def output_paths(out_base: str | Path) -> tuple[Path, Path]:
    """The `.csv` and `.json` files of output base `out_base`: the suffix is
    appended, not `with_suffix`, so a dotted name like "run.v2" keeps its dot."""
    base = str(Path(out_base))
    return Path(base + ".csv"), Path(base + ".json")


def emit_table(
    reports: list[RunReport],
    out_base: str | Path | None = None,
    include_elapsed: bool = True,
) -> str:
    """Render the comparison table; optionally persist `<out>.csv`/`<out>.json`.

    Within a row, every algorithm matching the lowest best cost is starred.
    Output bytes are a pure function of the reports.
    """
    if not reports:
        raise ValueError("no reports to emit")
    algorithms = list(reports[0].results)
    text = _text_table(reports, algorithms)
    if out_base is not None:
        csv_path, json_path = output_paths(out_base)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(_csv_table(reports, algorithms, include_elapsed))
        payload = {"reports": [r.to_dict(include_elapsed) for r in reports]}
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return text


def _cell_text(cell: AlgoResult, starred: bool) -> str:
    if cell.error is not None or cell.best is None:
        return "-"
    star = "*" if starred else ""
    if len(cell.costs) == 1:
        return f"{cell.best}{star}"
    return f"{cell.best}{star} (mean {cell.mean:g})"


def _text_table(reports: list[RunReport], algorithms: list[str]) -> str:
    header = ["Problem", "nc", "n", "Opt.val."] + [a.upper() for a in algorithms]
    rows = [header]
    for rep in reports:
        bests = [rep.results[a].best for a in algorithms if rep.results[a].best is not None]
        winner = min(bests) if bests else None
        row = [
            rep.problem,
            str(rep.nc),
            str(rep.n),
            str(rep.optimum) if rep.optimum is not None else "n/a",
        ]
        for algo in algorithms:
            cell = rep.results[algo]
            row.append(_cell_text(cell, starred=cell.best is not None and cell.best == winner))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _csv_table(reports: list[RunReport], algorithms: list[str], include_elapsed: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["problem", "nc", "n", "optimum"]
    for algo in algorithms:
        header += [f"{algo}_best", f"{algo}_mean"]
        if include_elapsed:
            header.append(f"{algo}_mean_elapsed")
    writer.writerow(header)
    for rep in reports:
        row = [rep.problem, rep.nc, rep.n, "" if rep.optimum is None else rep.optimum]
        for algo in algorithms:
            cell = rep.results[algo]
            row += ["" if cell.best is None else cell.best,
                    "" if cell.mean is None else cell.mean]
            if include_elapsed:
                row.append("" if cell.mean_elapsed is None else cell.mean_elapsed)
        writer.writerow(row)
    return buf.getvalue()
