"""Solver dispatch and benchmark harness.

`solve` is the one entry point over the four algorithms (`ALGORITHMS`): it
runs and times exact, NN, ACS or RACS on one instance and returns the same
record for all four, `gtsp.aco.RunResult`, the one `gtsp.aco.run` returns.
Both `gtsp solve` and `run_experiment` call it and read that record.

The experiment protocol mirrors the usual benchmark setup: deterministic
algorithms run once, the ant colonies run `repetitions` times (default five)
under a wall clock budget (default `DEFAULT_TIME_MAX`, ten minutes), and each
table cell reports the best and the mean over those runs. The colony keys of
`ExperimentConfig` are made from the `AcoParams` field declarations, and every
key is checked by `gtsp.aco.check` when the config is built, before any solver
runs. Pin `max_iterations` instead of `time_max` whenever reproducible output
bytes matter; `scripts/benchmark.json` does.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import MISSING, InitVar, dataclass, field, fields, replace
from pathlib import Path

from .aco import PARAMS, VARIANTS, AcoParams, RunResult, check, declared, param, run
from .construct import nn_reference_cost
from .exact import DEFAULT_CELL_CAP, CellCapExceeded, exact_solve
from .instance import (
    GtspInstance,
    check_cluster_count,
    cluster_instance,
    euc2d_costs,
    generate_instance,
    parse_clustered,
    parse_set_partition,
    parse_tsplib,
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
        for f, hint in GENERATOR:
            check(f"{where}.{f.name}" if where else f.name, getattr(self, f.name), hint,
                  f.metadata["bound"])
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


def _with_colony_keys(cls):
    """`dataclass(cls)` that also takes each of `COLONY_KEYS` as an init-only
    argument after the fields of `cls`. A key defaults to its `AcoParams`
    default, or to the class attribute of that name when `cls` sets one.
    `__post_init__` receives the keys in order; they are kept only in the
    `AcoParams` it builds."""
    for key, (f, hint) in COLONY_KEYS.items():
        cls.__annotations__[key] = InitVar[hint]
        setattr(cls, key, vars(cls).get(key, f.default))
    cls = dataclass(cls)
    for key in COLONY_KEYS:
        delattr(cls, key)
    return cls


@_with_colony_keys
class ExperimentConfig:
    """Everything one benchmark run needs; mirrors the JSON config file.

    Its keys are its own fields plus `COLONY_KEYS`, all declared with `param`.
    `__post_init__` checks each one with `check` under its key, so a bad value
    fails when the config loads, before any solver runs. The colony keys are
    kept only as `params` (seeded with `base_seed`).
    """

    instances: list = param()  # file paths (str) or generator specs (`GeneratorSpec` keys)
    algorithms: list[str] = param(ALGORITHMS, ALGORITHMS)
    repetitions: int = param(5, 1)
    seeds: list[int] | None = param(None, 0)
    cell_cap: int = param(DEFAULT_CELL_CAP, 1)
    output: str | None = param(None)
    params: AcoParams = field(init=False)
    time_max = DEFAULT_TIME_MAX  # a config's default budget, even when max_iterations is set

    def __post_init__(self, *colony) -> None:
        for f, hint in declared(ExperimentConfig):
            setattr(self, f.name, check(f.name, getattr(self, f.name), hint, f.metadata["bound"]))
        if not self.instances:
            raise ValueError("config lists no instances")
        for i, spec in enumerate(self.instances):
            if isinstance(spec, dict) and spec.keys() - set(_SPEC_OPTIONAL) == set(_SPEC_REQUIRED):
                GeneratorSpec(**spec, where=f"instances[{i}]")
            elif not isinstance(spec, str):
                raise ValueError(f"instances[{i}] must be a path or a generator spec with keys"
                                 f" {', '.join(_SPEC_REQUIRED)} and optionally"
                                 f" {', '.join(_SPEC_OPTIONAL)}, got {spec!r}")
        if self.seeds is not None and len(self.seeds) < self.repetitions:
            raise ValueError(f"{self.repetitions} repetitions need {self.repetitions} seeds,"
                             f" got {len(self.seeds)}")
        values = {f.name: check(key, value, hint, f.metadata["bound"])
                  for (key, (f, hint)), value in zip(COLONY_KEYS.items(), colony)}
        if values["time_max"] is None and values["max_iterations"] is None:
            raise ValueError("need a stopping rule: set time_max and/or max_iterations")
        self.params = AcoParams(**values)

    def rep_seeds(self) -> list[int]:
        if self.seeds is not None:
            return [int(s) for s in self.seeds[: self.repetitions]]
        return [self.params.seed + i for i in range(self.repetitions)]

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        known = {f.name for f in fields(cls) if f.init} | set(COLONY_KEYS)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
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


def load_instance_file(
    path: str | Path,
    clusters: int | None = None,
    cluster_file: str | Path | None = None,
) -> GtspInstance:
    """Load a clustered instance, or cluster a raw TSPLIB file on the fly.

    A file containing a GTSP_SET_SECTION is taken as already clustered, and
    `clusters` must then be None; otherwise the center-based procedure
    partitions it into `clusters` sets (default one fifth of the nodes).
    `cluster_file` substitutes the set section of another clustered file,
    of which only the headers and sets are read; `clusters` must then be
    None too.
    """
    path = Path(path)
    if cluster_file is not None and clusters is not None:
        raise ValueError(f"--clusters {clusters} given together with a cluster file;"
                         " the partition comes from one or the other")
    text = path.read_text()
    if cluster_file is not None:
        base_coords = parse_tsplib(text)
        name, n, clusters = parse_set_partition(Path(cluster_file).read_text())
        if n != len(base_coords):
            raise ValueError(
                f"cluster file covers {n} nodes but {path.name} has {len(base_coords)}"
            )
        return GtspInstance(name=name or path.stem, costs=euc2d_costs(base_coords),
                            clusters=clusters)
    if "GTSP_SET_SECTION" in text.upper():
        if clusters is not None:
            raise ValueError(f"--clusters {clusters} given, but {path.name} is already"
                             " clustered; the flag applies to raw TSPLIB files only")
        return parse_clustered(text, name=path.stem)
    coords = parse_tsplib(text)
    return cluster_instance(coords, euc2d_costs(coords), m=clusters, name=path.stem)


def sidecar_optimum(path: str | Path) -> int | None:
    """Known optimum from `<instance-file>.opt`, if present.

    Raises ValueError when the file does not start with an integer.
    """
    opt_path = Path(str(path) + ".opt")
    if not opt_path.exists():
        return None
    tokens = opt_path.read_text().split()
    if not tokens:
        raise ValueError(f"{opt_path.name} is empty")
    try:
        return int(tokens[0])
    except ValueError:
        raise ValueError(f"{opt_path.name}: {tokens[0]!r} is not an integer optimum") from None


def _resolve_instance(spec) -> GtspInstance:
    if isinstance(spec, str):
        return load_instance_file(spec)
    return GeneratorSpec(**spec).generate()[1]


def run_experiment(config: ExperimentConfig, log=sys.stderr) -> list[RunReport]:
    """Run every configured algorithm on every instance.

    Every cell goes through `solve`. Deterministic algorithms run once; the
    colonies run `repetitions` times, once per seed of `rep_seeds()`.
    Unreadable instances, and those whose tour sums overflow int64, are
    reported on `log` and skipped; an unreadable optimum sidecar is reported
    on `log` and the row kept without an optimum; an exact-solver refusal
    leaves a dash in that cell.
    """
    reports: list[RunReport] = []
    for spec in config.instances:
        try:
            instance = _resolve_instance(spec)
            instance.check_tour_sums()
        except (OSError, ValueError) as exc:
            print(f"gtsp bench: skipping {spec!r}: {exc}", file=log)
            continue
        optimum = None
        if isinstance(spec, str):
            try:
                optimum = sidecar_optimum(spec)
            except (OSError, ValueError) as exc:
                print(f"gtsp bench: ignoring the optimum of {spec!r}: {exc}", file=log)
        results: dict[str, AlgoResult] = {}
        for algo in config.algorithms:
            cell = results[algo] = AlgoResult()
            for seed in config.rep_seeds():
                try:
                    result = solve(instance, algo, replace(config.params, seed=seed),
                                   config.cell_cap)
                except CellCapExceeded as exc:
                    cell.error = str(exc)
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
        out_base = Path(out_base)
        out_base.parent.mkdir(parents=True, exist_ok=True)
        out_base.with_suffix(".csv").write_text(_csv_table(reports, algorithms, include_elapsed))
        payload = {"reports": [r.to_dict(include_elapsed) for r in reports]}
        out_base.with_suffix(".json").write_text(json.dumps(payload, indent=2, sort_keys=True))
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
