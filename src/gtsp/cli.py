"""Command line interface.

Subcommands: `solve` one instance with one algorithm, `bench` a configured
experiment, `cluster` a raw TSPLIB file into a clustered instance file, and
`gen` a random instance. Exit codes: 0 success, 1 usage error (an output path
that cannot be written included), 2 instance error, 3 solver refusal. `solve`
reports an allocation that fails as out of memory: exit 2 while the instance
loads, 3 while the solver runs.

`solve` and `bench` both run their solvers through `gtsp.bench.solve`. The
colony flags of `solve` are made from the `AcoParams` field declarations
(flag, metavar, type, default), in field order, and are checked by `AcoParams`
before the instance is read, for every `--algo`; with neither `--time-max` nor
`--max-iters`, a colony gets the benchmark budget `DEFAULT_TIME_MAX`. The
flags of `gen` are made the same way from the `gtsp.bench.GeneratorSpec`
fields, which also declare the generator-spec keys of a `bench` config.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from dataclasses import MISSING
from pathlib import Path

from .aco import AcoParams, base_type
from .bench import (
    ALGORITHMS,
    COLONY_KEYS,
    DEFAULT_TIME_MAX,
    GENERATOR,
    ExperimentConfig,
    GeneratorSpec,
    emit_table,
    load_instance_file,
    run_experiment,
    solve,
)
from .exact import CellCapExceeded
from .instance import cluster_instance, euc2d_costs, format_clustered, parse_tsplib

EXIT_USAGE = 1
EXIT_INSTANCE = 2
EXIT_REFUSAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gtsp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve_cmd = sub.add_parser("solve", help="solve one instance with one algorithm")
    solve_cmd.set_defaults(handler=_cmd_solve)
    solve_cmd.add_argument("file", help="TSPLIB or clustered instance file")
    solve_cmd.add_argument("--algo", required=True, choices=ALGORITHMS)
    _add_flags(solve_cmd, COLONY_KEYS.values())
    group = solve_cmd.add_mutually_exclusive_group()
    group.add_argument("--clusters", type=int, default=None, metavar="M",
                       help="cluster a raw TSPLIB file into M sets")
    group.add_argument("--cluster-file", default=None, metavar="F",
                       help="take the set partition from clustered file F")
    solve_cmd.add_argument("--out", default=None, metavar="PATH")
    solve_cmd.add_argument("--format", default="text", choices=["json", "csv", "text"])

    bench = sub.add_parser("bench", help="run a configured experiment")
    bench.set_defaults(handler=_cmd_bench)
    bench.add_argument("--config", required=True, metavar="FILE")

    cluster = sub.add_parser("cluster", help="write a clustered instance file")
    cluster.set_defaults(handler=_cmd_cluster)
    cluster.add_argument("file", help="TSPLIB file with EUC_2D coordinates")
    cluster.add_argument("--out", required=True, metavar="PATH")
    cluster.add_argument("--clusters", type=int, default=None, metavar="M")

    gen = sub.add_parser("gen", help="generate a random Euclidean instance")
    gen.set_defaults(handler=_cmd_gen)
    _add_flags(gen, GENERATOR)
    gen.add_argument("--out", default=None, metavar="PATH")

    return parser


def _add_flags(cmd, declared_fields) -> None:
    """One flag per declared `(field, type)`, with the flag, metavar and
    default of its declaration; a field without a default is a required flag."""
    for f, hint in declared_fields:
        required = f.default is MISSING
        cmd.add_argument(f.metadata["flag"], dest=f.name, type=base_type(hint),
                         required=required, default=None if required else f.default,
                         metavar=f.metadata["metavar"])


def _cannot_write(cmd: str, path, exc: OSError) -> int:
    print(f"gtsp {cmd}: cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _unwritable(path: str) -> OSError | None:
    """The error writing file `path` would meet, found without creating or
    truncating it: a missing parent directory, a directory in its place or no
    write permission. None when it can be written."""
    p = Path(path)
    if p.is_dir():
        code = errno.EISDIR
    elif not p.parent.is_dir():
        code = errno.ENOTDIR if p.parent.exists() else errno.ENOENT
    elif not os.access(p if p.exists() else p.parent, os.W_OK):
        code = errno.EACCES
    else:
        return None
    return OSError(code, os.strerror(code), path)


def _write_output(cmd: str, text: str, out: str | None) -> int:
    """Print `text`, or write it to file `out`; an unwritable `out` is exit 1."""
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text)
    except OSError as exc:
        return _cannot_write(cmd, out, exc)
    return 0


def _format_solution(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = sorted(record)
        writer.writerow(keys)
        writer.writerow(
            [" ".join(map(str, record[k])) if isinstance(record[k], list) else record[k]
             for k in keys]
        )
        return buf.getvalue()
    lines = [f"{k}: {record[k]}" for k in sorted(record)]
    return "\n".join(lines)


def _out_of_memory(doing: str, exc: MemoryError, status: int) -> int:
    """Report an allocation that failed while `doing`, without a traceback."""
    print(f"gtsp solve: out of memory {doing}: {exc}", file=sys.stderr)
    return status


def _cmd_solve(args) -> int:
    values = {f.name: getattr(args, f.name) for f, _ in COLONY_KEYS.values()}
    if values["time_max"] is None and values["max_iterations"] is None:
        values["time_max"] = DEFAULT_TIME_MAX
    try:
        params = AcoParams(**values)
    except ValueError as exc:
        print(f"gtsp solve: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is not None and (exc := _unwritable(args.out)):  # before the solver runs
        return _cannot_write("solve", args.out, exc)
    try:
        instance = load_instance_file(
            args.file, clusters=args.clusters, cluster_file=args.cluster_file
        )
        instance.check_tour_sums()  # CostOverflowError, a ValueError, for every algorithm
    except (OSError, ValueError) as exc:
        print(f"gtsp solve: {exc}", file=sys.stderr)
        return EXIT_INSTANCE
    except MemoryError as exc:
        return _out_of_memory(f"loading {args.file}", exc, EXIT_INSTANCE)
    try:
        result = solve(instance, args.algo, params)
    except CellCapExceeded as exc:
        print(f"gtsp solve: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except MemoryError as exc:
        return _out_of_memory(f"running {args.algo} on {instance.name}", exc, EXIT_REFUSAL)
    record = {"problem": instance.name, "algo": args.algo, **result.to_dict()}
    return _write_output("solve", _format_solution(record, args.format), args.out)


def _cmd_bench(args) -> int:
    try:
        config = ExperimentConfig.from_file(args.config)
    except (OSError, TypeError, ValueError) as exc:  # TypeError: no instances key
        print(f"gtsp bench: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.output is not None:
        try:  # before any solver runs, not after the last one
            Path(config.output).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write("bench", config.output, exc)
    reports = run_experiment(config)
    if not reports:
        print("gtsp bench: no instance could be loaded", file=sys.stderr)
        return EXIT_INSTANCE
    try:
        text = emit_table(reports, out_base=config.output)
    except OSError as exc:
        return _cannot_write("bench", config.output, exc)
    sys.stdout.write(text)
    return 0


def _cmd_cluster(args) -> int:
    try:
        text = Path(args.file).read_text()
        coords = parse_tsplib(text)
        instance = cluster_instance(coords, euc2d_costs(coords), m=args.clusters,
                                    name=Path(args.file).stem)
    except (OSError, ValueError) as exc:
        print(f"gtsp cluster: {exc}", file=sys.stderr)
        return EXIT_INSTANCE
    text = format_clustered(instance.name, coords, instance.clusters)
    if status := _write_output("cluster", text, args.out):
        return status
    print(f"wrote {instance.name} ({instance.p} clusters, {instance.n} nodes) to {args.out}")
    return 0


def _cmd_gen(args) -> int:
    try:
        coords, instance = GeneratorSpec(**{f.name: getattr(args, f.name)
                                            for f, _ in GENERATOR}).generate()
    except ValueError as exc:
        print(f"gtsp gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _write_output("gen", format_clustered(instance.name, coords, instance.clusters),
                         args.out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
