import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import paritydie
from paritydie import (
    MutationRule,
    Parity,
    exact_binomial_tail,
    path_distribution,
    scenario,
    sequential_report,
    simulate_path,
)
from paritydie.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_USAGE,
    _json_text,
    format_sequence,
    parse_sequence,
    run,
)
from paritydie.montecarlo import derive_seed

E, O = Parity.EVEN, Parity.ODD


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_sequence_basics():
    assert parse_sequence("EEO") == [E, E, O]
    assert parse_sequence("e o\n# comment\nE") == [E, O, E]
    assert parse_sequence("") == []
    assert parse_sequence("# all comment\n") == []


def test_parse_sequence_comment_runs_to_end_of_line():
    assert parse_sequence("E # ignored XYZ\nO") == [E, O]


def test_parse_sequence_error_position():
    with pytest.raises(ValueError) as err:
        parse_sequence("EXO")
    assert err.value.position == 2
    assert "position 2" in str(err.value)
    with pytest.raises(ValueError):
        parse_sequence("EE 9")


def test_enumerate_json(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--rule", "copy", "--depth", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["depth"] == 3
    entries = {e["sequence"]: Fraction(e["numerator"], e["denominator"]) for e in payload["entries"]}
    assert entries == path_distribution(MutationRule.PARITY_COPY, 3).entries
    assert all("decimal" in e for e in payload["entries"])


def test_enumerate_csv(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--format", "csv", "--depth", "2")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "sequence,numerator,denominator,decimal"
    assert len(lines) == 5
    assert lines[1].startswith("EE,1,3,")


def test_table_marks_the_published_discrepancy(capsys):
    code, out, _ = invoke(capsys, "table", "--rule", "copy")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mismatches"] == ["EEE", "EEO", "OOE", "OOO"]
    rows = {row["sequence"]: row for row in payload["rows"]}
    assert all(row["standard"]["numerator"] == 1 and row["standard"]["denominator"] == 8 for row in payload["rows"])
    assert rows["EOE"]["match"] is True
    assert rows["EEE"]["enumerated"] == {"numerator": 1, "denominator": 4, "decimal": 0.25}
    assert rows["EEE"]["published"] == {"numerator": 7, "denominator": 27, "decimal": 7 / 27}


def test_chain_verdicts(capsys):
    code, out, _ = invoke(capsys, "chain", "--rule", "none", "--report", "verdict")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"]["ergodic"] is True

    code, out, _ = invoke(capsys, "chain", "--rule", "copy", "--report", "verdict")
    assert json.loads(out)["verdict"] == {
        "ergodic": False,
        "aperiodic": True,
        "witness": [[3, 0, 0], [0, 0, 3]],
        "explanation": "(3, 0, 0) cannot reach (0, 0, 3)",
    }

    code, out, _ = invoke(capsys, "chain", "--rule", "increment", "--report", "verdict")
    assert json.loads(out)["verdict"]["ergodic"] is True


def test_chain_full_and_sections(capsys):
    _, full, _ = invoke(capsys, "chain", "--rule", "copy")
    payload = json.loads(full)
    assert set(payload) == {"rule", "states", "matrix", "classes", "verdict", "absorption"}
    _, absorption_out, _ = invoke(capsys, "chain", "--rule", "copy", "--report", "absorption")
    assert json.loads(absorption_out)["absorption"] == payload["absorption"]
    _, matrix_csv, _ = invoke(capsys, "chain", "--rule", "copy", "--report", "matrix", "--format", "csv")
    assert matrix_csv.splitlines()[0] == "from,to,numerator,denominator,decimal"
    code, _, err = invoke(capsys, "chain", "--format", "csv")
    assert code == EXIT_USAGE
    assert "csv output requires" in err


def test_scenario_emit_round_trips(capsys):
    code, out, _ = invoke(capsys, "scenario", "--id", "1", "--emit")
    assert code == EXIT_OK
    assert out == "E" * 58 + "O" * 42 + "\n"
    assert parse_sequence(out) == scenario(1)


def test_scenario_json(capsys):
    code, out, _ = invoke(capsys, "scenario", "--id", "3")
    payload = json.loads(out)
    assert payload == {
        "id": 3,
        "n": 100,
        "even_count": 58,
        "sequence": format_sequence(scenario(3)),
    }


def test_simulate_summary_is_deterministic(capsys):
    args = ("simulate", "--tosses", "3", "--runs", "200", "--seed", "42")
    code, first, _ = invoke(capsys, *args)
    assert code == EXIT_OK
    _, second, _ = invoke(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["runs"] == 200
    assert sum(payload["even_counts"].values()) == 200


def test_simulate_emit_matches_library(capsys):
    code, out, _ = invoke(capsys, "simulate", "--tosses", "5", "--runs", "3", "--seed", "7", "--emit")
    assert code == EXIT_OK
    expected = [
        simulate_path(MutationRule.PARITY_COPY, 5, derive_seed(7, i)).sequence()
        for i in range(3)
    ]
    assert out.splitlines() == expected


def test_simulate_csv(capsys):
    code, out, _ = invoke(capsys, "simulate", "--tosses", "2", "--runs", "50", "--seed", "1", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "even_count,count,frequency"
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 50


def test_test_subcommand_file_input(tmp_path, capsys):
    stream = tmp_path / "tosses.txt"
    stream.write_text("# scenario one\n" + "E" * 58 + "O" * 42 + "\n")
    code, out, _ = invoke(capsys, "test", "--input", str(stream))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["z"] == 1.6
    assert payload["report"]["even_count"] == 58
    assert payload["sequential"]["first_rejection"] == 10
    exact = payload["report"]["p_value_exact"]
    assert Fraction(exact["numerator"], exact["denominator"]) == Fraction(
        10554032587174879289417799775, 158456325028528675187087900672
    )


def test_test_subcommand_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("EO" * 42 + "E" * 16))
    code, out, _ = invoke(capsys, "test")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["sequential"]["first_rejection"] == 94
    assert payload["sequential"]["run_events"] == [
        {"start": 85, "length": 16, "parity": "E"}
    ]


def test_test_subcommand_csv_records(tmp_path, capsys):
    stream = tmp_path / "tosses.txt"
    stream.write_text("E" * 20)
    code, out, _ = invoke(capsys, "test", "--input", str(stream), "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t,even_count,z,flag"
    assert lines[1].split(",")[0] == "10"
    assert lines[1].endswith(",1")


def test_test_subcommand_flags(tmp_path, capsys):
    stream = tmp_path / "tosses.txt"
    stream.write_text("O" * 20)
    code, out, _ = invoke(
        capsys, "test", "--input", str(stream), "--one-sided", "--run-threshold", "30"
    )
    assert code == EXIT_OK
    assert json.loads(out)["sequential"]["first_rejection"] is None


def test_test_subcommand_tiny_alpha(tmp_path, capsys):
    stream = tmp_path / "tosses.txt"
    stream.write_text("E" * 58 + "O" * 42)
    code, out, _ = invoke(capsys, "test", "--input", str(stream), "--alpha", "1e-17")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["reject"] is False
    assert payload["sequential"]["first_rejection"] == 10  # the 58-toss run


@pytest.mark.parametrize("flags", [["--alpha", "5e-324"], ["--alpha", "1e-322", "--bonferroni"]])
def test_test_subcommand_alpha_that_underflows(tmp_path, capsys, flags):
    # the tail level (alpha/2, or alpha/2 over the prefixes tested) rounds to 0
    stream = tmp_path / "scenario1.txt"
    assert run(["scenario", "--id", "1", "--emit"]) == EXIT_OK
    stream.write_text(capsys.readouterr().out)
    code, _, err = invoke(capsys, "test", "--input", str(stream), *flags)
    assert code == EXIT_RANGE
    assert "alpha" in err


def test_test_subcommand_p0_near_one(tmp_path, capsys):
    stream = tmp_path / "tosses.txt"
    stream.write_text("E" * 30)
    code, out, _ = invoke(capsys, "test", "--input", str(stream), "--p0", "9999/10000")
    assert code == EXIT_OK
    assert json.loads(out)["sequential"]["run_threshold"] == 69075
    code, _, err = invoke(capsys, "test", "--input", str(stream), "--p0", "99999/100000")
    assert code == EXIT_RANGE
    assert "--run-threshold" in err
    code, _, _ = invoke(
        capsys, "test", "--input", str(stream), "--p0", "99999/100000", "--run-threshold", "5"
    )
    assert code == EXIT_OK


def test_test_subcommand_twenty_thousand_tosses(tmp_path, capsys):
    n, evens, p0 = 20_000, 10_100, Fraction(1, 2)
    stream = tmp_path / "tosses.txt"
    stream.write_text("EO" * (n - evens) + "E" * (2 * evens - n))
    code, out, _ = invoke(capsys, "test", "--input", str(stream))
    assert code == EXIT_OK
    # the exact tail's 6,000-digit integers are past the default str() limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out)["report"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert (report["n"], report["even_count"]) == (n, evens)
    exact = report["p_value_exact"]
    tail = Fraction(exact["numerator"], exact["denominator"])
    assert tail == 1 - exact_binomial_tail(n, n - evens + 1, 1 - p0)


def test_test_subcommand_csv_skips_the_exact_tail(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the CSV report prints no exact tail")

    monkeypatch.setattr("paritydie.stats.exact_binomial_tail", refuse)
    stream = tmp_path / "tosses.txt"
    stream.write_text("E" * 20)
    assert invoke(capsys, "test", "--input", str(stream), "--format", "csv")[0] == EXIT_OK
    for p0 in ("0", "3/2"):
        code = invoke(capsys, "test", "--input", str(stream), "--format", "csv", "--p0", p0)[0]
        assert code == EXIT_RANGE


def test_exit_codes(tmp_path, capsys):
    assert invoke(capsys, "enumerate", "--bogus")[0] == EXIT_USAGE
    assert invoke(capsys, "scenario", "--id", "9")[0] == EXIT_USAGE
    assert invoke(capsys, "nonsense")[0] == EXIT_USAGE

    bad = tmp_path / "bad.txt"
    bad.write_text("EXO")
    code, _, err = invoke(capsys, "test", "--input", str(bad))
    assert code == EXIT_DATA
    assert "position 2" in err
    assert invoke(capsys, "test", "--input", str(tmp_path / "missing.txt"))[0] == EXIT_DATA
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    assert invoke(capsys, "test", "--input", str(empty))[0] == EXIT_DATA

    assert invoke(capsys, "enumerate", "--depth", "0")[0] == EXIT_RANGE
    assert invoke(capsys, "enumerate", "--depth", "99")[0] == EXIT_RANGE
    assert invoke(capsys, "simulate", "--tosses", "-1")[0] == EXIT_RANGE
    assert invoke(capsys, "simulate", "--runs", "0")[0] == EXIT_RANGE


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_undecodable_toss_stream_is_a_data_error(tmp_path, capsys, monkeypatch, via):
    raw = b"EE\xffOO"
    if via == "file":
        stream = tmp_path / "tosses.txt"
        stream.write_bytes(raw)
        argv = ["test", "--input", str(stream)]
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        argv = ["test"]
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_DATA
    assert out == ""
    assert "can't decode byte 0xff" in err


def test_undecodable_byte_reads_the_same_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    # the console script's stdin decodes with surrogateescape, as --input does
    raw = b"EE\xffOO"
    stream = tmp_path / "tosses.txt"
    stream.write_bytes(raw)
    from_file = invoke(capsys, "test", "--input", str(stream))
    monkeypatch.setattr(
        "sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
    )
    from_stdin = invoke(capsys, "test")
    assert from_file == from_stdin == (EXIT_DATA, "", "error: can't decode byte 0xff at position 3\n")


@pytest.mark.parametrize(
    "flags",
    [
        ["--t-min", "0"],
        ["--run-threshold", "0"],
        ["--alpha", "nan"],
        ["--alpha", "1.5"],
        ["--p0", "0"],
        ["--p0", "3/2"],
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_test_flag_out_of_range_names_the_flag(tmp_path, capsys, flags, fmt):
    stream = tmp_path / "tosses.txt"
    stream.write_text("EO" * 8)
    code, out, err = invoke(capsys, "test", "--input", str(stream), "--format", fmt, *flags)
    assert code == EXIT_RANGE
    assert out == ""  # refused before the CSV header
    assert err.startswith(f"error: {flags[0]} ")


@pytest.mark.parametrize(
    "p0, shown", [("1e-400", "0.0"), ("0.99999999999999999999", "1.0"), ("1e400", "inf")]
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_test_p0_at_the_float_edges_names_the_flag(tmp_path, capsys, p0, shown, fmt):
    # exact in (0, 1) or far past it, but 0, 1 or beyond range as the float the replay uses
    stream = tmp_path / "tosses.txt"
    stream.write_text("EO" * 8)
    code, out, err = invoke(capsys, "test", "--input", str(stream), "--format", fmt, "--p0", p0)
    assert (code, out) == (EXIT_RANGE, "")
    assert err == f"error: --p0 must lie strictly in (0, 1) as a float, got {shown}\n"
    assert len(err) < 120


@pytest.mark.parametrize(
    "flags",
    [["--alpha", "5e-324"], ["--alpha", "5e-324", "--one-sided"], ["--p0", "99999/100000"]],
)
def test_test_csv_refuses_before_its_header(tmp_path, capsys, flags):
    # refusals the library makes, past the flag checks
    stream = tmp_path / "tosses.txt"
    stream.write_text("E" * 30)
    code, out, _ = invoke(capsys, "test", "--input", str(stream), "--format", "csv", *flags)
    assert (code, out) == (EXIT_RANGE, "")


def test_test_csv_streams_every_prefix(tmp_path, capsys):
    stream = tmp_path / "tosses.txt"
    stream.write_text("EEO" * 400)
    code, out, _ = invoke(capsys, "test", "--input", str(stream), "--format", "csv")
    assert code == EXIT_OK
    report = sequential_report(parse_sequence("EEO" * 400))
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "even_count", "z", "flag"]
    assert rows[1:] == [
        [str(r.t), str(r.even_count), repr(r.z), str(int(r.flagged))] for r in report.records
    ]

def _states(states):
    return " ".join("".join(map(str, state)) for state in states)


def _chain_matrix_rows(payload):
    states = [_states([state]) for state in payload["states"]]
    return [
        [states[i], states[j], numerator, denominator, numerator / denominator]
        for i, row in enumerate(payload["matrix"])
        for j, (numerator, denominator) in enumerate(row)
        if numerator
    ]


# command line -> the CSV rows its JSON payload implies, cell by cell
_CSV_FROM_JSON = {
    ("table",): lambda payload: [
        [
            row["sequence"],
            row["standard"]["numerator"],
            row["standard"]["denominator"],
            *row["enumerated"].values(),
            row["published"]["numerator"],
            row["published"]["denominator"],
            row["match"],
        ]
        for row in payload["rows"]
    ],
    ("enumerate", "--depth", "4"): lambda payload: [
        list(entry.values()) for entry in payload["entries"]
    ],
    ("chain", "--report", "verdict"): lambda payload: [
        [payload["verdict"][key] for key in ("ergodic", "aperiodic", "explanation")]
    ],
    ("chain", "--report", "classes"): lambda payload: [
        [index, _states(entry["states"]), entry["closed"], entry["absorbing"]]
        for index, entry in enumerate(payload["classes"])
    ],
    ("chain", "--report", "matrix"): _chain_matrix_rows,
    ("chain", "--report", "absorption"): lambda payload: [
        [
            _states(entry["states"]),
            *entry["probability"].values(),
            entry["expected_steps"]["decimal"] if entry["expected_steps"] else None,
            *entry["even_share"].values(),
        ]
        for entry in payload["absorption"]["entries"]
    ],
    ("simulate", "--tosses", "6", "--runs", "300", "--seed", "5"): lambda payload: [
        [int(even), count, count / payload["runs"]]
        for even, count in payload["even_counts"].items()
    ],
}
_RULE_FREE = {
    ("scenario", "--id", "3"): lambda payload: [list(payload.values())],
    ("test",): lambda payload: [
        [record["t"], record["even_count"], record["z"], int(record["z_flag"] or record["run_flag"])]
        for record in payload["sequential"]["records"]
    ],
}


_AGREEMENT_CASES = [
    ([*command, "--rule", rule.value], json_to_rows)
    for rule in MutationRule
    for command, json_to_rows in _CSV_FROM_JSON.items()
] + [(list(command), json_to_rows) for command, json_to_rows in _RULE_FREE.items()]


@pytest.mark.parametrize(
    "argv, json_to_rows", _AGREEMENT_CASES, ids=[" ".join(argv) for argv, _ in _AGREEMENT_CASES]
)
def test_json_and_csv_agree(capsys, monkeypatch, argv, json_to_rows):
    outputs = {}
    for output_format in ("json", "csv"):
        stdin = io.StringIO(format_sequence(scenario(3)))
        monkeypatch.setattr("sys.stdin", stdin)
        code, outputs[output_format], _ = invoke(capsys, *argv, "--format", output_format)
        assert code == EXIT_OK
    header, *rows = csv.reader(io.StringIO(outputs["csv"]))
    expected = [
        ["" if value is None else str(value) for value in row]
        for row in json_to_rows(json.loads(outputs["json"]))
    ]
    assert rows == expected
    assert rows and all(len(row) == len(header) for row in rows)


def test_chain_csv_full_names_exactly_the_csv_sections(capsys):
    code, out, err = invoke(capsys, "chain", "--format", "csv", "--report", "full")
    assert code == EXIT_USAGE
    assert out == ""
    sections = err.strip().rsplit("--report ", 1)[1].split("|")
    assert sections == ["verdict", "classes", "matrix", "absorption"]
    for section in sections:
        assert invoke(capsys, "chain", "--format", "csv", "--report", section)[0] == EXIT_OK


def test_help_exits_cleanly(capsys):
    assert invoke(capsys, "--help")[0] == EXIT_OK
    assert invoke(capsys, "enumerate", "--help")[0] == EXIT_OK


def test_closed_pipe_stops_quietly():
    src = Path(paritydie.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    process = subprocess.Popen(
        [sys.executable, "-m", "paritydie", "simulate", "--tosses", "40", "--runs", "100000", "--emit"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = process.stdout.readline()
    process.stdout.close()
    _, err = process.communicate(timeout=60)
    assert len(first.strip()) == 40
    assert process.returncode == EXIT_OK
    assert err == b""


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(4300, 4400).map(lambda digits: -(10**digits) - 7),  # past the str() limit
    st.floats(),  # nan and the infinities included
    st.text(),
    st.sampled_from(["},\n  {", "}, {", "{", "}", "[{", "}]", "Grüße, 世界  "]),
)
_FLAT_ROWS = st.lists(st.dictionaries(st.text(), _JSON_SCALARS, min_size=1), min_size=1)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
        _FLAT_ROWS,
        _FLAT_ROWS.flatmap(
            lambda rows: st.integers(0, len(rows)).map(lambda i: rows[:i] + [{}] + rows[i:])
        ),
    ),
    max_leaves=40,
)


@given(_JSON_TREES)
def test_json_writer_matches_json_dumps(value):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert _json_text(value) == json.dumps(value, indent=2)
        # the same tree one level down, as payloads hold their rows
        assert _json_text({"rows": value}) == json.dumps({"rows": value}, indent=2)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
