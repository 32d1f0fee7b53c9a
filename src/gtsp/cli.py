"""Command line interface.

Subcommands: `solve` one instance with one algorithm, `bench` a configured
experiment, `cluster` a raw TSPLIB file into a clustered instance file, and
`gen` a random instance. Exit codes: 0 success, 1 usage error, 2 instance
error, 3 solver refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

from .aco import AcoParams, run
from .bench import ExperimentConfig, emit_table, load_instance_file, run_experiment
from .construct import nn_reference_cost
from .exact import CellCapExceeded, exact_solve
from .instance import (
    ParseError,
    cluster_instance,
    default_cluster_count,
    euc2d_costs,
    format_clustered,
    generate_instance,
    parse_tsplib,
)

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

    solve = sub.add_parser("solve", help="solve one instance with one algorithm")
    solve.add_argument("file", help="TSPLIB or clustered instance file")
    solve.add_argument("--algo", required=True, choices=["exact", "nn", "acs", "racs"])
    solve.add_argument("--time-max", type=float, default=None, metavar="S")
    solve.add_argument("--max-iters", type=int, default=None, metavar="K")
    solve.add_argument("--seed", type=int, default=0, metavar="N")
    solve.add_argument("--ants", type=int, default=10, metavar="M")
    solve.add_argument("--beta", type=float, default=5.0, metavar="B")
    solve.add_argument("--rho", type=float, default=0.5, metavar="R")
    solve.add_argument("--q0", type=float, default=0.5, metavar="Q")
    group = solve.add_mutually_exclusive_group()
    group.add_argument("--clusters", type=int, default=None, metavar="M",
                       help="cluster a raw TSPLIB file into M sets")
    group.add_argument("--cluster-file", default=None, metavar="F",
                       help="take the set partition from clustered file F")
    solve.add_argument("--out", default=None, metavar="PATH")
    solve.add_argument("--format", default="text", choices=["json", "csv", "text"])

    bench = sub.add_parser("bench", help="run a configured experiment")
    bench.add_argument("--config", required=True, metavar="FILE")

    cluster = sub.add_parser("cluster", help="write a clustered instance file")
    cluster.add_argument("file", help="TSPLIB file with EUC_2D coordinates")
    cluster.add_argument("--out", required=True, metavar="PATH")
    cluster.add_argument("--clusters", type=int, default=None, metavar="M")

    gen = sub.add_parser("gen", help="generate a random Euclidean instance")
    gen.add_argument("--nodes", type=int, required=True, metavar="N")
    gen.add_argument("--clusters", type=int, required=True, metavar="P")
    gen.add_argument("--seed", type=int, default=0, metavar="S")
    gen.add_argument("--out", default=None, metavar="PATH")

    return parser


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


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


def _cmd_solve(args) -> int:
    try:
        instance = load_instance_file(
            args.file, clusters=args.clusters, cluster_file=args.cluster_file
        )
        instance.check_tour_sums()  # CostOverflowError, a ValueError, for every algorithm
    except (OSError, ValueError) as exc:
        print(f"gtsp solve: {exc}", file=sys.stderr)
        return EXIT_INSTANCE

    record: dict = {"problem": instance.name, "algo": args.algo}
    if args.algo == "exact":
        started = time.perf_counter()
        try:
            tour = exact_solve(instance)
        except CellCapExceeded as exc:
            print(f"gtsp solve: {exc}", file=sys.stderr)
            return EXIT_REFUSAL
        record.update(cost=tour.cost, nodes=list(tour.nodes),
                      elapsed_seconds=time.perf_counter() - started)
    elif args.algo == "nn":
        started = time.perf_counter()
        cost, tour = nn_reference_cost(instance)
        record.update(cost=cost, nodes=list(tour.nodes),
                      elapsed_seconds=time.perf_counter() - started)
    else:
        time_max = args.time_max
        if time_max is None and args.max_iters is None:
            time_max = 600.0  # the benchmark default budget
        try:
            params = AcoParams(
                beta=args.beta, rho=args.rho, q0=args.q0, num_ants=args.ants,
                time_max=time_max, max_iterations=args.max_iters,
                seed=args.seed, variant=args.algo,
            )
        except ValueError as exc:
            print(f"gtsp solve: {exc}", file=sys.stderr)
            return EXIT_USAGE
        result = run(instance, params)
        record.update(result.to_dict())
        record["nodes"] = record.pop("tour")["nodes"]
    _write_output(_format_solution(record, args.format), args.out)
    return 0


def _cmd_bench(args) -> int:
    try:
        config = ExperimentConfig.from_file(args.config)
    except (OSError, ValueError) as exc:
        print(f"gtsp bench: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    reports = run_experiment(config)
    if not reports:
        print("gtsp bench: no instance could be loaded", file=sys.stderr)
        return EXIT_INSTANCE
    text = emit_table(reports, out_base=config.output)
    sys.stdout.write(text)
    return 0


def _cmd_cluster(args) -> int:
    try:
        text = Path(args.file).read_text()
        coords = parse_tsplib(text)
        m = args.clusters if args.clusters is not None else default_cluster_count(len(coords))
        instance = cluster_instance(coords, euc2d_costs(coords), m=m, name=Path(args.file).stem)
    except (OSError, ValueError) as exc:
        print(f"gtsp cluster: {exc}", file=sys.stderr)
        return EXIT_INSTANCE
    Path(args.out).write_text(format_clustered(instance.name, coords, instance.clusters))
    print(f"wrote {instance.name} ({instance.p} clusters, {instance.n} nodes) to {args.out}")
    return 0


def _cmd_gen(args) -> int:
    try:
        coords, instance = generate_instance(args.nodes, args.clusters, args.seed)
    except ValueError as exc:
        print(f"gtsp gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = format_clustered(instance.name, coords, instance.clusters)
    _write_output(text, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "cluster": _cmd_cluster,
        "gen": _cmd_gen,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
