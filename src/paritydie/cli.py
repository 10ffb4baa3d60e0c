"""Command-line front end: enumeration, chain reports, simulation, tests, scenarios.

Output goes to stdout as JSON (default) or CSV (``--format csv``);
diagnostics go to stderr.  Exit codes: 0 success, 1 usage error, 2
input-data error, 3 numeric-range error.  Given fixed seed flags, identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .chain import chain_report
from .core import MutationRule, Parity
from .enumeration import DepthRangeError, path_distribution
from .montecarlo import batch, derive_seed, simulate_path
from .serialize import fraction_fields, fraction_pair
from .stats import RunThresholdError, fairness_report, scenario, sequential_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RANGE = 3

# Previously published probabilities for the three-roll experiment.  The
# enumerator disagrees with the EEE/EEO/OOE/OOO rows under every rule here;
# the table command exists to put both side by side, so these constants are
# for display and mismatch marking only.
PUBLISHED_NONSTANDARD_TABLE = {
    "EEE": Fraction(7, 27),
    "EEO": Fraction(2, 27),
    "EOE": Fraction(1, 12),
    "EOO": Fraction(1, 12),
    "OEE": Fraction(1, 12),
    "OEO": Fraction(1, 12),
    "OOE": Fraction(2, 27),
    "OOO": Fraction(7, 27),
}


class SequenceParseError(ValueError):
    """A toss-stream text contained a symbol that is not part of the format."""

    def __init__(self, position: int, symbol: str):
        self.position = position
        self.symbol = symbol
        super().__init__(f"invalid toss symbol {symbol!r} at position {position}")


def parse_sequence(text: str) -> list[Parity]:
    """Parse a toss stream: 'E'/'O' in any case; whitespace ignored; '#' comments.

    A '#' starts a comment running to the end of the line.  Any other symbol
    is an error naming its 1-based position in the raw text.
    """
    tosses: list[Parity] = []
    in_comment = False
    for position, symbol in enumerate(text, start=1):
        if symbol == "\n":
            in_comment = False
            continue
        if in_comment:
            continue
        if symbol == "#":
            in_comment = True
            continue
        if symbol.isspace():
            continue
        upper = symbol.upper()
        if upper == "E":
            tosses.append(Parity.EVEN)
        elif upper == "O":
            tosses.append(Parity.ODD)
        else:
            raise SequenceParseError(position, symbol)
    return tosses


def format_sequence(tosses: Sequence[Parity]) -> str:
    return "".join(parity.char for parity in tosses)


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a probability: {text!r}") from None


def _rule_flag(text: str) -> MutationRule:
    try:
        return MutationRule.from_name(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _print_json(payload: dict) -> None:
    # Exact tails of long streams hold integers past the 4300-digit str() limit
    # that Python 3.10.7+ sets by default; lift it while printing.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(payload, indent=2))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _print_csv(header: list[str], rows: list[list]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _fraction_row(value: Fraction) -> list:
    return [value.numerator, value.denominator, float(value)]


def _cmd_table(args) -> int:
    enumerated = path_distribution(args.rule, 3).entries
    standard = path_distribution(MutationRule.NO_MUTATION, 3).entries
    published = PUBLISHED_NONSTANDARD_TABLE
    sequences = sorted(published)
    if args.format == "csv":
        _print_csv(
            [
                "sequence",
                "standard_numerator",
                "standard_denominator",
                "enumerated_numerator",
                "enumerated_denominator",
                "enumerated_decimal",
                "published_numerator",
                "published_denominator",
                "match",
            ],
            [
                [
                    sequence,
                    *fraction_pair(standard[sequence]),
                    *_fraction_row(enumerated[sequence]),
                    *fraction_pair(published[sequence]),
                    enumerated[sequence] == published[sequence],
                ]
                for sequence in sequences
            ],
        )
        return EXIT_OK
    rows = [
        {
            "sequence": sequence,
            "standard": fraction_fields(standard[sequence]),
            "enumerated": fraction_fields(enumerated[sequence]),
            "published": fraction_fields(published[sequence]),
            "match": enumerated[sequence] == published[sequence],
        }
        for sequence in sequences
    ]
    _print_json(
        {
            "rule": args.rule.value,
            "rows": rows,
            "mismatches": [row["sequence"] for row in rows if not row["match"]],
        }
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    distribution = path_distribution(args.rule, args.depth)
    if args.format == "csv":
        _print_csv(
            ["sequence", "numerator", "denominator", "decimal"],
            [
                [sequence, *_fraction_row(probability)]
                for sequence, probability in sorted(distribution.entries.items())
            ],
        )
    else:
        _print_json(distribution.to_jsonable())
    return EXIT_OK


def _cmd_chain(args) -> int:
    report = chain_report(args.rule)
    section = args.report
    if args.format == "csv":
        if section == "verdict":
            verdict = report["verdict"]
            _print_csv(
                ["ergodic", "aperiodic", "explanation"],
                [[verdict["ergodic"], verdict["aperiodic"], verdict["explanation"]]],
            )
        elif section == "classes":
            _print_csv(
                ["class", "states", "closed", "absorbing"],
                [
                    [
                        index,
                        " ".join("".join(map(str, s)) for s in entry["states"]),
                        entry["closed"],
                        entry["absorbing"],
                    ]
                    for index, entry in enumerate(report["classes"])
                ],
            )
        elif section == "matrix":
            states = ["".join(map(str, s)) for s in report["states"]]
            rows = [
                [states[i], states[j], numerator, denominator, numerator / denominator]
                for i, row in enumerate(report["matrix"])
                for j, (numerator, denominator) in enumerate(row)
                if numerator
            ]
            _print_csv(["from", "to", "numerator", "denominator", "decimal"], rows)
        elif section == "absorption":
            rows = [
                [
                    " ".join("".join(map(str, s)) for s in entry["states"]),
                    *entry["probability"].values(),
                    entry["expected_steps"]["decimal"] if entry["expected_steps"] else "",
                    *entry["even_share"].values(),
                ]
                for entry in report["absorption"]["entries"]
            ]
            _print_csv(
                [
                    "states",
                    "probability_numerator",
                    "probability_denominator",
                    "probability_decimal",
                    "expected_steps_decimal",
                    "share_numerator",
                    "share_denominator",
                    "share_decimal",
                ],
                rows,
            )
        else:
            print(
                "error: csv output requires --report verdict|classes|matrix|absorption",
                file=sys.stderr,
            )
            return EXIT_USAGE
        return EXIT_OK
    if section == "full":
        _print_json(report)
    elif section == "matrix":
        _print_json(
            {"rule": report["rule"], "states": report["states"], "matrix": report["matrix"]}
        )
    else:
        _print_json({"rule": report["rule"], section: report[section]})
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.emit:
        if args.runs < 1:
            raise ValueError(f"run count must be at least 1, got {args.runs}")
        for index in range(args.runs):
            run = simulate_path(args.rule, args.tosses, derive_seed(args.seed, index))
            print(run.sequence())
        return EXIT_OK
    summary = batch(args.rule, args.tosses, args.runs, args.seed)
    if args.format == "csv":
        _print_csv(
            ["even_count", "count", "frequency"],
            [
                [k, c, c / summary.runs]
                for k, c in sorted(summary.even_counts.items())
            ],
        )
    else:
        _print_json(summary.to_jsonable())
    return EXIT_OK


def _cmd_test(args) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.input).read_text(encoding="utf-8")
    tosses = parse_sequence(text)
    if not tosses:
        print("error: the input contains no tosses", file=sys.stderr)
        return EXIT_DATA
    # CSV prints only the sequential records, so it skips the exact tail
    report = fairness_report(tosses, args.p0, args.alpha, exact=args.format == "json")
    sequential = sequential_report(
        tosses, args.p0, args.alpha, args.t_min, args.run_threshold,
        two_sided=not args.one_sided, bonferroni=args.bonferroni,
    )
    if args.format == "csv":
        _print_csv(
            ["t", "even_count", "z", "flag"],
            [
                [record.t, record.even_count, record.z, int(record.flagged)]
                for record in sequential.records
            ],
        )
    else:
        _print_json(
            {"report": report.to_jsonable(), "sequential": sequential.to_jsonable()}
        )
    return EXIT_OK


def _cmd_scenario(args) -> int:
    tosses = scenario(args.id)
    text = format_sequence(tosses)
    if args.emit:
        print(text)
        return EXIT_OK
    payload = {
        "id": args.id,
        "n": len(tosses),
        "even_count": sum(parity is Parity.EVEN for parity in tosses),
        "sequence": text,
    }
    if args.format == "csv":
        _print_csv(
            ["id", "n", "even_count", "sequence"],
            [[payload["id"], payload["n"], payload["even_count"], payload["sequence"]]],
        )
    else:
        _print_json(payload)
    return EXIT_OK


def _add_rule(parser) -> None:
    parser.add_argument(
        "--rule",
        type=_rule_flag,
        default=MutationRule.PARITY_COPY,
        help="mutation rule: none, copy or increment (default copy)",
    )


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (default json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="paritydie", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    table = commands.add_parser(
        "table",
        help="compare enumerated three-roll probabilities with the published table",
    )
    _add_rule(table)
    _add_format(table)
    table.set_defaults(handler=_cmd_table)

    enumerate_cmd = commands.add_parser(
        "enumerate", help="exact probability of every parity sequence of a given depth"
    )
    _add_rule(enumerate_cmd)
    _add_format(enumerate_cmd)
    enumerate_cmd.add_argument(
        "--depth", type=int, default=3, help="sequence length (default 3)"
    )
    enumerate_cmd.set_defaults(handler=_cmd_enumerate)

    chain = commands.add_parser(
        "chain", help="build and classify the configuration chain"
    )
    _add_rule(chain)
    _add_format(chain)
    chain.add_argument(
        "--report",
        choices=("full", "verdict", "classes", "matrix", "absorption"),
        default="full",
        help="which section to emit (default full)",
    )
    chain.set_defaults(handler=_cmd_chain)

    simulate = commands.add_parser("simulate", help="seeded Monte Carlo batches")
    _add_rule(simulate)
    _add_format(simulate)
    simulate.add_argument(
        "--tosses", type=int, default=3, help="tosses per run (default 3)"
    )
    simulate.add_argument(
        "--runs", type=int, default=10000, help="independent runs (default 10000)"
    )
    simulate.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    simulate.add_argument(
        "--emit",
        action="store_true",
        help="print one toss sequence per run instead of the summary",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    test = commands.add_parser(
        "test", help="fixed-sample and sequential fairness tests of a toss stream"
    )
    _add_format(test)
    test.add_argument(
        "--input",
        default="-",
        help="toss-stream file, or - for stdin (default -)",
    )
    test.add_argument(
        "--p0",
        type=_fraction_flag,
        default=Fraction(1, 2),
        help="null even-toss probability (default 0.5)",
    )
    test.add_argument(
        "--alpha", type=float, default=0.05, help="test level (default 0.05)"
    )
    test.add_argument(
        "--t-min",
        type=int,
        default=10,
        dest="t_min",
        help="first prefix length the detectors evaluate (default 10)",
    )
    test.add_argument(
        "--run-threshold",
        type=int,
        default=None,
        dest="run_threshold",
        help="run length that triggers the run detector (default: derived from p0)",
    )
    test.add_argument(
        "--one-sided",
        action="store_true",
        help="flag only upper-tail z exceedances",
    )
    test.add_argument(
        "--bonferroni",
        action="store_true",
        help="divide alpha by the number of prefixes tested",
    )
    test.set_defaults(handler=_cmd_test)

    scenario_cmd = commands.add_parser(
        "scenario", help="one of the three 100-toss orderings with 58 evens"
    )
    _add_format(scenario_cmd)
    scenario_cmd.add_argument(
        "--id", type=int, choices=(1, 2, 3), required=True, help="scenario number"
    )
    scenario_cmd.add_argument(
        "--emit", action="store_true", help="print the raw toss string only"
    )
    scenario_cmd.set_defaults(handler=_cmd_scenario)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``paritydie ... | head``): stop quietly, and
        # point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SequenceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DepthRangeError, RunThresholdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
