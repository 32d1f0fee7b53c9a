"""Command line interface.

Subcommands: `solve` one instance with one algorithm, `bench` a configured
experiment, `cluster` a raw TSPLIB file into a clustered instance file (a
clustered input is an instance error), and `gen` a random instance. Exit
codes: 0 success, 1 usage error (an output path that cannot be written
included), 2 instance error, 3 solver refusal. An allocation that fails is
reported as out of memory: exit 2 while an instance loads or is generated,
3 while a `solve` solver runs; `bench` skips the instance or leaves a dash
in the solver's cell. `--clusters` below 2 is a usage error before the file
is read.

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
    output_paths,
    run_experiment,
    solve,
)
from .exact import CellCapExceeded
from .instance import _read_file, format_clustered

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
    group.add_argument("--clusters", type=_cluster_count, default=None, metavar="M",
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
    cluster.add_argument("--clusters", type=_cluster_count, default=None, metavar="M")

    gen = sub.add_parser("gen", help="generate a random Euclidean instance")
    gen.set_defaults(handler=_cmd_gen)
    _add_flags(gen, GENERATOR)
    gen.add_argument("--out", default=None, metavar="PATH")

    return parser


def _cluster_count(text: str) -> int:
    """A `--clusters` value: an integer of at least 2. Whether it is at most
    n depends on the file, an instance error."""
    try:
        m = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if m < 2:
        raise argparse.ArgumentTypeError(f"cluster count m={m} must be at least 2")
    return m


def _add_flags(cmd, declared_fields) -> None:
    """One flag per declared `(field, type)`, with the flag, metavar and
    default of its declaration; a field without a default is a required flag."""
    for f, hint in declared_fields:
        required = f.default is MISSING
        cmd.add_argument(f.metadata["flag"], dest=f.name, type=base_type(hint),
                         required=required, default=None if required else f.default,
                         metavar=f.metadata["metavar"])


def _fail(cmd: str, message: str, status: int) -> int:
    """Report an error of `gtsp cmd` on stderr, without a traceback."""
    print(f"gtsp {cmd}: {message}", file=sys.stderr)
    return status


def _cannot_write(cmd: str, path, exc: OSError) -> int:
    return _fail(cmd, f"cannot write {path}: {exc}", EXIT_USAGE)


def _unwritable(path: str | Path) -> OSError | None:
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


def _csv_cell(value):
    """A record value as one CSV cell: a list space-separated, a dict as JSON."""
    if isinstance(value, list):
        return " ".join(map(str, value))
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return value


def _text_value(value) -> str:
    """A record value for the text format: a string as it is, anything else as JSON."""
    return value if isinstance(value, str) else json.dumps(value, sort_keys=True)


def _format_solution(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = sorted(record)
        writer.writerow(keys)
        writer.writerow([_csv_cell(record[k]) for k in keys])
        return buf.getvalue()
    return "\n".join(f"{k}: {_text_value(record[k])}" for k in sorted(record))


def _cmd_solve(args) -> int:
    values = {f.name: getattr(args, f.name) for f, _ in COLONY_KEYS.values()}
    if values["time_max"] is None and values["max_iterations"] is None:
        values["time_max"] = DEFAULT_TIME_MAX
    try:
        params = AcoParams(**values)
    except ValueError as exc:
        return _fail("solve", str(exc), EXIT_USAGE)
    if args.out is not None and (exc := _unwritable(args.out)):  # before the solver runs
        return _cannot_write("solve", args.out, exc)
    try:
        instance = load_instance_file(
            args.file, clusters=args.clusters, cluster_file=args.cluster_file
        )
    except (OSError, ValueError) as exc:
        return _fail("solve", str(exc), EXIT_INSTANCE)
    except MemoryError as exc:
        return _fail("solve", f"out of memory loading {args.file}: {exc}", EXIT_INSTANCE)
    try:
        result = solve(instance, args.algo, params)
    except CellCapExceeded as exc:
        return _fail("solve", str(exc), EXIT_REFUSAL)
    except MemoryError as exc:
        return _fail("solve", f"out of memory running {args.algo} on {instance.name}: {exc}",
                     EXIT_REFUSAL)
    record = {"problem": instance.name, "algo": args.algo, **result.to_dict()}
    return _write_output("solve", _format_solution(record, args.format), args.out)


def _cmd_bench(args) -> int:
    try:
        config = ExperimentConfig.from_file(args.config)
    except (OSError, ValueError) as exc:
        return _fail("bench", f"bad config: {exc}", EXIT_USAGE)
    if config.output is not None:
        try:  # before any solver runs, not after the last one
            Path(config.output).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write("bench", config.output, exc)
        for path in output_paths(config.output):
            if exc := _unwritable(path):
                return _cannot_write("bench", path, exc)
    reports = run_experiment(config)
    if not reports:
        return _fail("bench", "no instance could be loaded", EXIT_INSTANCE)
    try:
        text = emit_table(reports, out_base=config.output)
    except OSError as exc:
        return _cannot_write("bench", config.output, exc)
    sys.stdout.write(text)
    return 0


def _cmd_cluster(args) -> int:
    try:
        coords, instance = _read_file(Path(args.file), args.clusters, raw_only=True)
    except (OSError, ValueError) as exc:
        return _fail("cluster", str(exc), EXIT_INSTANCE)
    except MemoryError as exc:
        return _fail("cluster", f"out of memory loading {args.file}: {exc}", EXIT_INSTANCE)
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
        return _fail("gen", str(exc), EXIT_USAGE)
    except MemoryError as exc:
        return _fail("gen", f"out of memory generating {args.nodes} nodes: {exc}", EXIT_INSTANCE)
    return _write_output("gen", format_clustered(instance.name, coords, instance.clusters),
                         args.out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
