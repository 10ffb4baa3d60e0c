"""Command-line front end: enumeration, chain reports, simulation, tests, scenarios.

Output goes to stdout as JSON (default) or CSV (``--format csv``);
diagnostics go to stderr.  Exit codes: 0 success, 1 usage error, 2
input-data error, 3 numeric-range error.  A toss stream that is not valid
UTF-8, holds a symbol other than E/O, holds no tosses or cannot be read
exits 2.  Given fixed seed flags, identical invocations produce
byte-identical output.

Each report is built once, as its JSON payload.  JSON is printed exactly as
``json.dumps(payload, indent=2)`` prints it; the handler hands over its list
of flat rows, if any, apart from the payload, and the rows are encoded at C
speed a chunk at a time.  Every CSV except ``test``'s is the payload's rows
flattened, so JSON and CSV cells agree by construction.  ``test`` checks
every flag and the stream before the exact tail or any output, then writes
each sequential record as the replay yields it and never holds them all.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import re
import sys
from collections import deque
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from .chain import chain_report
from .core import MutationRule, Parity
from .enumeration import path_distribution
from .montecarlo import batch, derive_seed, simulate_path
from .serialize import fraction_fields
from .stats import SequentialReport, fairness_report, prefix_rows, scenario

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


# A comment, tosses among whitespace, or any other symbol.  ``\s`` and
# ``str.split`` both take whitespace as ``str.isspace`` does.
_TOKEN = re.compile(r"#[^\n]*|([EOeo\s]+)|(.)", re.DOTALL)
_PARITY = {"E": Parity.EVEN, "e": Parity.EVEN, "O": Parity.ODD, "o": Parity.ODD}


class SequenceParseError(ValueError):
    """A toss-stream text contained a symbol that is not part of the format."""

    def __init__(self, position: int, symbol: str):
        self.position = position
        self.symbol = symbol
        if "\udc80" <= symbol <= "\udcff":
            # a byte that is not UTF-8, decoded with errors="surrogateescape"
            message = f"can't decode byte {ord(symbol) - 0xDC00:#04x} at position {position}"
        else:
            message = f"invalid toss symbol {symbol!r} at position {position}"
        super().__init__(message)


def parse_sequence(text: str) -> list[Parity]:
    """Parse a toss stream: 'E'/'O' in any case; whitespace ignored; '#' comments.

    One pass of ``_TOKEN``: a '#' comment runs to the end of the line; any other
    symbol is an error naming its 1-based position in the raw text.
    """
    tosses: list[Parity] = []
    for match in _TOKEN.finditer(text):
        if match[2]:
            raise SequenceParseError(match.start() + 1, match[2])
        if match[1]:
            tosses += map(_PARITY.__getitem__, "".join(match[1].split()))
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


# Stands in a payload where its row list goes; ``_print_json`` writes the rows there.
_ROWS = "\0rows"
# Rows given to the C encoder at a time, so a streamed row list is never held whole.
_CHUNK_ROWS = 4096


def _dumps_rows(rows: list, level: int) -> str:
    """Rows as ``json.dumps(indent=2)`` writes a list's items ``level`` deep, in one C-encoder call.

    The rows are encoded with the separator that goes between the items of
    one row; then each ``},<sep>{`` between two rows is given its own lines.
    JSON strings never hold a raw newline, so every newline is a separator.
    """
    outer = "\n" + "  " * (level + 1)
    inner = outer + "  "
    text = json.dumps(rows, separators=("," + inner, ": "))[2:-2]
    text = text.replace("}," + inner + "{", outer + "}," + outer + "{" + inner)
    return outer + "{" + inner + text + outer + "}"


def _print_json(payload: dict, rows: Iterable[dict] | None = None) -> None:
    """Print ``json.dumps(payload, indent=2)``, with ``rows`` where ``_ROWS`` stands.

    With ``indent`` set, ``json`` encodes in pure Python.  The rows, flat
    and non-empty dicts, go to the C encoder instead, ``_CHUNK_ROWS`` at a
    time.  ``_ROWS`` must be a value in a dict of the payload, and its text
    must appear nowhere else in it.
    """
    # Exact tails of long streams hold integers past the 4300-digit str() limit
    # that Python 3.10.7+ sets by default; lift it while printing.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload, indent=2)
        if rows is None:
            sys.stdout.write(text + "\n")
            return
        head, _, tail = text.partition(json.dumps(_ROWS))
        line = head[head.rfind("\n") + 1 :]
        level = (len(line) - len(line.lstrip(" "))) // 2
        sys.stdout.write(head + "[")
        rows, separator = iter(rows), ""
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            sys.stdout.write(separator + _dumps_rows(chunk, level))
            separator = ","
        sys.stdout.write(("\n" + "  " * level if separator else "") + "]" + tail + "\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _print_csv(header: list[str], rows: Iterable[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _states_cell(states) -> str:
    return " ".join("".join(map(str, state)) for state in states)


def _matrix_rows(report: dict):
    states = ["".join(map(str, state)) for state in report["states"]]
    return (
        [states[i], states[j], numerator, denominator, numerator / denominator]
        for i, row in enumerate(report["matrix"])
        for j, (numerator, denominator) in enumerate(row)
        if numerator
    )


def _pair(fields: dict) -> list:
    return [fields["numerator"], fields["denominator"]]


# The chain report's CSV sections, each a header and a row builder over the
# section's JSON payload.  ``--report full`` has no CSV form.
_CHAIN_CSV = {
    "verdict": (
        ["ergodic", "aperiodic", "explanation"],
        lambda report: [
            [report["verdict"][key] for key in ("ergodic", "aperiodic", "explanation")]
        ],
    ),
    "classes": (
        ["class", "states", "closed", "absorbing"],
        lambda report: (
            [index, _states_cell(entry["states"]), entry["closed"], entry["absorbing"]]
            for index, entry in enumerate(report["classes"])
        ),
    ),
    "matrix": (["from", "to", "numerator", "denominator", "decimal"], _matrix_rows),
    "absorption": (
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
        lambda report: (
            [
                _states_cell(entry["states"]),
                *entry["probability"].values(),
                entry["expected_steps"]["decimal"] if entry["expected_steps"] else "",
                *entry["even_share"].values(),
            ]
            for entry in report["absorption"]["entries"]
        ),
    ),
}

# Every report's CSV form, keyed by subcommand or by ``chain`` section: its
# rows are the JSON payload's rows flattened, so the two formats agree cell
# by cell.
_CSV = {
    "table": (
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
        lambda report: (
            [
                row["sequence"],
                *_pair(row["standard"]),
                *row["enumerated"].values(),
                *_pair(row["published"]),
                row["match"],
            ]
            for row in report["rows"]
        ),
    ),
    "enumerate": (
        ["sequence", "numerator", "denominator", "decimal"],
        lambda report: map(dict.values, report["entries"]),
    ),
    "simulate": (
        ["even_count", "count", "frequency"],
        lambda report: (
            [k, c, c / report["runs"]] for k, c in report["even_counts"].items()
        ),
    ),
    "scenario": (["id", "n", "even_count", "sequence"], lambda report: [report.values()]),
    **_CHAIN_CSV,
}

# Each handler returns its report's JSON payload, which ``run`` writes as JSON
# or, through ``_CSV``, as CSV.  A handler with a row list to stream returns a
# pair instead: the JSON payload with ``_ROWS`` in the list's place, or the
# CSV header, and then the rows.  A handler that writes its own output
# (``--emit``) or refuses returns an exit code.


def _cmd_table(args):
    enumerated = path_distribution(args.rule, 3).entries
    standard = path_distribution(MutationRule.NO_MUTATION, 3).entries
    published = PUBLISHED_NONSTANDARD_TABLE
    rows = [
        {
            "sequence": sequence,
            "standard": fraction_fields(standard[sequence]),
            "enumerated": fraction_fields(enumerated[sequence]),
            "published": fraction_fields(published[sequence]),
            "match": enumerated[sequence] == published[sequence],
        }
        for sequence in sorted(published)
    ]
    return {
        "rule": args.rule.value,
        "rows": rows,
        "mismatches": [row["sequence"] for row in rows if not row["match"]],
    }


def _cmd_enumerate(args):
    payload = path_distribution(args.rule, args.depth).to_jsonable()
    if args.format == "csv":
        return payload
    entries, payload["entries"] = payload["entries"], _ROWS
    return payload, entries


def _cmd_chain(args):
    section = args.report
    if args.format == "csv" and section not in _CHAIN_CSV:
        print(f"error: csv output requires --report {'|'.join(_CHAIN_CSV)}", file=sys.stderr)
        return EXIT_USAGE
    report = chain_report(args.rule)
    keys = ("rule", "states", "matrix") if section == "matrix" else ("rule", section)
    return report if section == "full" else {key: report[key] for key in keys}


def _cmd_simulate(args):
    if args.emit:
        if args.runs < 1:
            raise ValueError(f"run count must be at least 1, got {args.runs}")
        for index in range(args.runs):
            run = simulate_path(args.rule, args.tosses, derive_seed(args.seed, index))
            print(run.sequence())
        return EXIT_OK
    return batch(args.rule, args.tosses, args.runs, args.seed).to_jsonable()


def _check_test_flags(args) -> None:
    """Refuse ``test`` flag values out of range, naming the flag, before any output.

    ``--p0`` is checked as the float the replay uses, so a value that rounds
    to 0 or 1, or lies past the largest float, is refused here too.
    """
    try:
        p0 = float(args.p0)
    except OverflowError:
        p0 = float("inf") if args.p0 > 0 else float("-inf")
    if not 0 < p0 < 1:
        raise ValueError(f"--p0 must lie strictly in (0, 1) as a float, got {p0}")
    if not 0 < args.alpha < 1:
        raise ValueError(f"--alpha must lie strictly in (0, 1), got {args.alpha}")
    if not args.alpha / 2:
        raise ValueError(f"--alpha {args.alpha} is too small: half of it underflows to 0")
    if args.t_min < 1:
        raise ValueError(f"--t-min must be at least 1, got {args.t_min}")
    if args.run_threshold is not None and args.run_threshold < 1:
        raise ValueError(f"--run-threshold must be at least 1, got {args.run_threshold}")


def _cmd_test(args):
    _check_test_flags(args)
    if args.input == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.input).read_text(encoding="utf-8", errors="surrogateescape")
    tosses = parse_sequence(text)
    if not tosses:
        print("error: the input contains no tosses", file=sys.stderr)
        return EXIT_DATA
    # the Bonferroni level is alpha over the prefixes tested, so only now can it be checked
    tests = max(len(tosses) - args.t_min + 1, 1)
    if args.bonferroni and not args.alpha / tests / (1 if args.one_sided else 2):
        raise ValueError(f"--alpha {args.alpha} is too small for --bonferroni over {tests} prefixes")
    replay = partial(
        prefix_rows, tosses, args.p0, args.alpha, args.t_min,
        two_sided=not args.one_sided, bonferroni=args.bonferroni,
    )
    run_threshold, run_events, rows = replay(args.run_threshold)
    if args.format == "csv":
        return ["t", "even_count", "z", "flag"], (
            [t, evens, z, int(z_flag or run_flag)] for t, evens, z, z_flag, run_flag in rows
        )
    # JSON writes first_rejection and run_events before the records: one pass
    # finds and fills them, and a second replay streams the records.
    first_rejection = next((t for t, _, _, z_flag, run_flag in rows if z_flag or run_flag), None)
    deque(rows, maxlen=0)
    # The exact tail comes only now, after every check: it is quadratic in the stream length.
    report = fairness_report(tosses, args.p0, args.alpha)
    sequential = SequentialReport(
        args.p0, args.alpha, args.t_min, run_threshold, not args.one_sided,
        args.bonferroni, (), tuple(run_events), first_rejection,
    ).to_jsonable()
    sequential["records"] = _ROWS
    records = (
        {"t": t, "even_count": evens, "z": z, "z_flag": z_flag, "run_flag": run_flag}
        for t, evens, z, z_flag, run_flag in replay(run_threshold)[2]
    )
    return {"report": report.to_jsonable(), "sequential": sequential}, records


def _cmd_scenario(args):
    tosses = scenario(args.id)
    text = format_sequence(tosses)
    if args.emit:
        print(text)
        return EXIT_OK
    return {
        "id": args.id,
        "n": len(tosses),
        "even_count": sum(parity is Parity.EVEN for parity in tosses),
        "sequence": text,
    }


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
        choices=("full", *_CHAIN_CSV),
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
    """Parse arguments, dispatch, write the handler's report, map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.handler(args)
        if isinstance(result, dict) and args.format == "csv":
            # only ``chain`` has ``--report``; it names the CSV section
            header, rows = _CSV[getattr(args, "report", args.command)]
            _print_csv(header, rows(result))
        elif isinstance(result, dict):
            _print_json(result)
        elif isinstance(result, tuple):
            (_print_csv if args.format == "csv" else _print_json)(*result)
        sys.stdout.flush()
        return result if isinstance(result, int) else EXIT_OK
    except BrokenPipeError:
        # The reader went away (``paritydie ... | head``): stop quietly, and
        # point stdout at devnull so the flush at exit cannot fail again.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    except (SequenceParseError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
