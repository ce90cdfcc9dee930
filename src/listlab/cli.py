"""Compare MTF, TRANS, FC and VFC on request sequences, and verify them on small instances.

Subcommands:
  run     serve corpus files, a built-in demo instance, or a generated
          workload with the selected engines; print a comparison table and
          optionally write CSV and an SVG chart
  chart   rebuild the SVG chart from a previously written CSV
  verify  exhaustively cross-check the engines against the oracles on small
          instances

Exit codes: 0 success, 1 configuration or input error, 2 verification found
a violated property, 3 an engine broke an internal invariant: a full-model
total below n, a lost, invented or repeated symbol, or verify's walk
disagreeing with a rerun.
"""

import argparse
import re
import sys
from collections import Counter
from pathlib import Path

from .algorithms import AlgorithmKind, VfcPolicy, run_algorithm
from .chart import render_bar_chart
from .corpus import (
    DEFAULT_STRIP_BYTES,
    ListOrderPolicy,
    RunLengths,
    Uniform,
    Zipf,
    derive_list,
    generate_sequence,
    load_file,
    preprocess,
)
from .listcore import CostModel, ListLabError, RequestSequence
from .oracle import MAX_ENUM_LIST, MAX_ENUM_SEQ, verify_engines
from .report import ComparisonRow, format_table, rows_from_csv, rows_to_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY_FAILED = 2
EXIT_INTERNAL = 3

DEMO_NAME = "demo"
DEMO_SEQUENCE = (1, 2, 2, 3, 3, 3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="listlab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run engines over inputs and compare totals")
    run.add_argument(
        "paths",
        nargs="*",
        help="corpus files (raw bytes), labelled by basename, or by the path as given when basenames collide",
    )
    run.add_argument("--demo", action="store_true", help="include the built-in 3-element demo instance")
    run.add_argument("--generate", metavar="DIST", help="synthetic workload: uniform, zipf[:EXP] or runs[:MEAN]")
    run.add_argument("--alphabet-size", type=int, default=8, help="alphabet size for --generate")
    run.add_argument("--length", type=int, default=10000, help="request count for --generate")
    algos_help = "comma-separated subset of mtf,trans,fc,vfc; outputs label vfc with its policy in brackets"
    run.add_argument("--algos", default="mtf,trans,fc,vfc", help=algos_help)
    run.add_argument("--cost-model", choices=["full", "partial"], default="full")
    policy_help = "VFC batch trigger: literal (the window holds the request) or strict (it holds only repeats)"
    run.add_argument("--vfc-policy", choices=["literal", "strict"], default="literal", help=policy_help)
    run.add_argument("--list-order", choices=["first-occurrence", "byte-value"], default="first-occurrence")
    run.add_argument("--limit", type=int, help="truncate every request sequence to its first N requests")
    strip = ",".join(f"{b:02x}" for b in sorted(DEFAULT_STRIP_BYTES))
    run.add_argument("--strip-bytes", default=strip, help="hex bytes removed by preprocessing (%(default)s)")
    run.add_argument("--csv", metavar="PATH", help="write the long-form CSV here")
    run.add_argument("--chart", metavar="PATH", help="write an SVG comparison chart here")
    run.add_argument("--seed", type=int, default=0, help="seed for --generate")
    run.add_argument("--trace", action="store_true", help="print one line per engine step")

    chart = sub.add_parser("chart", help="render the SVG chart from a long-form CSV")
    chart.add_argument("--from-csv", required=True, metavar="PATH")
    chart.add_argument("--out", required=True, metavar="PATH")

    verify = sub.add_parser("verify", help="cross-check engines against the oracles")
    size_help = f"list size m, 1..{MAX_ENUM_LIST}; every instance starts from the list 1..m (%(default)s)"
    verify.add_argument("--max-list-size", type=int, default=3, help=size_help)
    length_help = f"longest request sequence, 0..{MAX_ENUM_SEQ}; all shorter ones are checked too (%(default)s)"
    verify.add_argument("--max-seq-len", type=int, default=6, help=length_help)
    verify.add_argument("--cost-model", choices=["full", "partial"], default="full")

    return parser


def _parse_algos(spec: str) -> list[AlgorithmKind]:
    names = [token.strip() for token in spec.split(",") if token.strip()]
    if not names:
        raise ValueError("--algos: at least one algorithm must be selected")
    valid = [kind.value for kind in AlgorithmKind]
    for k, name in enumerate(names):
        if name not in valid:
            raise ValueError(f"--algos: unknown algorithm {name!r} (use {', '.join(valid)})")
        if name in names[:k]:  # it would run twice under one label
            raise ValueError(f"--algos: {name!r} is given twice")
    return [AlgorithmKind(name) for name in names]


def _parse_strip(spec: str) -> frozenset[int]:
    tokens = spec.replace(",", " ").split()
    for token in tokens:
        if not re.fullmatch("[0-9a-fA-F]{1,2}", token):
            raise ValueError(f"--strip-bytes: {token!r} is not a hex byte value in 00..ff")
    return frozenset(int(t, 16) for t in tokens)


def _parse_distribution(spec: str):
    name, _, arg = spec.partition(":")
    if name == "uniform":
        if arg:
            raise ValueError(f"--generate {spec!r}: uniform takes no argument, got {arg!r}")
        return Uniform()
    if name not in ("zipf", "runs"):
        raise ValueError(f"unknown distribution {spec!r} (use uniform, zipf[:EXP], runs[:MEAN])")
    make = Zipf if name == "zipf" else RunLengths
    try:  # the constructors only store their argument; generate_sequence checks its range
        return make(float(arg)) if arg else make()
    except ValueError:
        raise ValueError(f"--generate {spec!r}: {arg!r} is not a number") from None


def _gather_inputs(args) -> list[tuple[str, RequestSequence]]:
    strip = _parse_strip(args.strip_bytes)
    inputs: list[tuple[str, RequestSequence]] = []
    if args.demo:
        inputs.append((DEMO_NAME, DEMO_SEQUENCE))
    texts = [load_file(path) for path in args.paths]
    basenames = Counter(text.source_name for text in texts)
    for path, text in zip(args.paths, texts):
        label = text.source_name if basenames[text.source_name] == 1 else path
        inputs.append((label, preprocess(text, strip)))
    if args.generate:
        dist = _parse_distribution(args.generate)
        alphabet = list(range(args.alphabet_size))
        label = f"{args.generate}-a{args.alphabet_size}-n{args.length}-s{args.seed}"
        inputs.append((label, generate_sequence(alphabet, args.length, dist, args.seed)))
    if not inputs:
        raise ValueError("no inputs: give file paths, --demo, or --generate")
    return _distinct_labels(inputs)


def _distinct_labels(inputs: list[tuple[str, RequestSequence]]) -> list[tuple[str, RequestSequence]]:
    """Suffix ``#2``, ``#3``, ... to a label that an earlier input already
    has (the same path given twice, a file named like the demo), because
    the CSV reader folds neighbouring rows with one label into one row."""
    distinct: dict[str, RequestSequence] = {}
    for label, sequence in inputs:
        unique, k = label, 1
        while unique in distinct:
            k += 1
            unique = f"{label}#{k}"
        distinct[unique] = sequence
    return list(distinct.items())


def cmd_run(args) -> int:
    algorithms = _parse_algos(args.algos)
    model = CostModel(args.cost_model)
    policy = VfcPolicy(args.vfc_policy)
    list_order = ListOrderPolicy(args.list_order)
    if args.limit is not None and args.limit < 1:
        raise ValueError("--limit must be at least 1")

    rows: list[ComparisonRow] = []
    for name, sequence in _gather_inputs(args):
        sequence = sequence[: args.limit]  # all of it without --limit
        state, n = derive_list(sequence, list_order), len(sequence)
        costs: dict[str, int] = {}
        for kind in algorithms:
            report = run_algorithm(kind, state, sequence, model, policy, keep_trace=args.trace)
            costs[report.label] = report.total_cost
            if args.trace:
                print(f"# trace file={name} algo={report.label}")
                for i, step in enumerate(report.steps, start=1):
                    print(
                        f"step={i} request={step.request} pos={step.position_before} "
                        f"cost={step.cost_charged} consumed={step.requests_consumed}"
                    )
            if model is CostModel.FULL and report.total_cost < n:
                raise RuntimeError(f"{report.label} on {name} charged {report.total_cost} for {n} requests "
                                   "(below the full-model lower bound)")
        rows.append(ComparisonRow(name, n, len(state), model, costs))

    print(format_table(rows), end="")
    if args.csv:
        Path(args.csv).write_text(rows_to_csv(rows), encoding="utf-8", newline="")
        print(f"wrote {args.csv}")
    if args.chart:
        Path(args.chart).write_text(render_bar_chart(rows), encoding="utf-8", newline="")
        print(f"wrote {args.chart}")
    return EXIT_OK


def cmd_chart(args) -> int:
    rows = rows_from_csv(Path(args.from_csv).read_text(encoding="utf-8"))
    Path(args.out).write_text(render_bar_chart(rows), encoding="utf-8", newline="")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    model = CostModel(args.cost_model)
    report = verify_engines(args.max_list_size, args.max_seq_len, model)
    print(
        "note: the offline optimum is restricted to free exchanges; it upper-bounds "
        "the unrestricted optimum, which keeps every check below one-sided"
    )
    for line in report.summary_lines():
        print(line)
    if report.passed:
        print(f"all checks passed ({report.instances} instances)")
        return EXIT_OK
    print("verification FAILED", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code else EXIT_OK
    handlers = {"run": cmd_run, "chart": cmd_chart, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (ListLabError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as err:  # a broken invariant (see the module docstring)
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
