"""Reference fingerprints of request outputs, and the comparison against them.

An output is split into its exact part and its float part.  The exact part
(integers, numerator/denominator pairs, strings, booleans, seeded counts,
and the position of every float) is hashed and must match exactly.  The
float part is kept as four sums and must match within a relative tolerance,
so a change that moves floats in their last digits (say, a different normal
CDF) still passes, while an off-by-one numerator or a changed seeded count
does not.

CLI output is parsed by format first (JSON, CSV, or one toss string per line
for ``--emit``), so the check is about values, not bytes.  Library results
are walked generically: dataclasses and named tuples by field, dicts sorted
by key, sequences in order.
"""

from __future__ import annotations

import array
import csv
import dataclasses
import enum
import hashlib
import io
import itertools
import json
import math
import operator
import re
from fractions import Fraction

REL_TOL = 1e-9
ABS_TOL = 1e-12

_INT = re.compile(r"-?\d+\Z")
_FLOAT_CHARS = re.compile(r"[.eEn]")


# Pseudo-random weights in [1, 2), one per float position (period 4096),
# so the weighted sum pins each float to its place.
_WEIGHTS = [1.0 + ((i * 2654435761) % 4096) / 4096 for i in range(4096)]


class Fingerprint:
    """Streams exact tokens into a hash and collects floats for four sums."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self._tokens: list[str] = []
        self._floats: list[float] = []

    def token(self, text: str) -> None:
        self._tokens.append(text)
        if len(self._tokens) >= 4096:
            self._flush()

    def blob(self, tag: str, data: bytes) -> None:
        """Hash a large exact value without copying it into the token stream."""
        self._flush()
        self._hash.update(tag.encode() + b"%d:" % len(data))
        self._hash.update(data)

    def numbers(self, values) -> None:
        """Add floats; non-finite ones go to the exact part instead."""
        if all(map(math.isfinite, values)):
            self._floats.extend(values)
            self.token("f%d" % len(values))
            return
        for value in values:
            if math.isfinite(value):
                self._floats.append(value)
                self.token("f")
            else:
                self.token("F" + repr(value))

    def _flush(self) -> None:
        self._hash.update("\x1f".join(self._tokens).encode())
        self._hash.update(b"\x1e")
        self._tokens.clear()

    def result(self) -> dict:
        self._flush()
        floats = self._floats
        return {
            "exact": self._hash.hexdigest(),
            "floats": [
                len(floats),
                math.fsum(floats),
                math.fsum(map(operator.mul, itertools.cycle(_WEIGHTS), floats)),
                math.fsum(map(abs, floats)),
            ],
        }


def _walk(value, fp: Fingerprint) -> None:
    kind = type(value)
    if kind is bool:
        fp.token("b1" if value else "b0")
    elif kind is int:
        fp.token("i%d" % value)
    elif kind is float:
        fp.numbers((value,))
    elif kind is str:
        fp.token("s" + value)
    elif value is None:
        fp.token("n")
    elif kind is Fraction:
        fp.token("q%d/%d" % (value.numerator, value.denominator))
    elif isinstance(value, enum.Enum):
        _walk(value.value, fp)
    elif isinstance(value, dict):
        fp.token("{%d" % len(value))
        for key_text, item in sorted((_key_text(k), v) for k, v in value.items()):
            fp.token("k" + key_text)
            _walk(item, fp)
    elif dataclasses.is_dataclass(value):
        names = _field_names(kind)
        fp.token("{%d" % len(names))
        for name in names:
            fp.token("k" + name)
            _walk(getattr(value, name), fp)
    elif isinstance(value, (list, tuple)):
        fp.token("[%d" % len(value))
        if len(value) > 1 and dataclasses.is_dataclass(value[0]) and set(map(type, value)) == {type(value[0])}:
            _walk_records(value, fp)
        else:
            for item in value:
                _walk(item, fp)
    else:
        raise TypeError(f"cannot fingerprint a {kind.__name__}")


def _walk_records(records, fp: Fingerprint) -> None:
    """A run of same-type dataclass records, column by column.

    Same information as walking each record, at C speed for the long
    prefix-record lists of the sequential report.
    """
    names = _field_names(type(records[0]))
    fp.token("R" + ",".join(names))
    for name in names:
        column = list(map(operator.attrgetter(name), records))
        types = set(map(type, column))
        if types == {int} and -(2**63) <= min(column) and max(column) < 2**63:
            fp.blob("I", array.array("q", column).tobytes())
        elif types == {bool}:
            fp.blob("B", bytes(column))
        elif types == {float}:
            fp.numbers(column)
        else:
            for item in column:
                _walk(item, fp)


_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(kind: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(kind)
    if names is None:
        names = _FIELD_NAMES[kind] = tuple(sorted(f.name for f in dataclasses.fields(kind)))
    return names


def _key_text(key) -> str:
    """Dict keys as text; tuple-like keys (die configurations) by their items."""
    if isinstance(key, enum.Enum):
        key = key.value
    if isinstance(key, tuple):
        return "(" + ",".join(_key_text(k) for k in key) + ")"
    return str(key)


def _csv_cell(cell: str):
    if _INT.match(cell):
        return int(cell)
    if _FLOAT_CHARS.search(cell):
        try:
            return float(cell)
        except ValueError:
            pass
    return cell


def parse_cli_output(argv: list[str], text: str):
    """Turn CLI stdout into values according to the format the argv asks for."""
    if not text:
        return ""
    if "--emit" in argv:
        return text.splitlines()
    if "csv" in argv:
        return [[_csv_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text))]
    return json.loads(text)


def fingerprint(value) -> dict:
    fp = Fingerprint()
    _walk(value, fp)
    return fp.result()


def fingerprint_output(request: dict, code: int, output) -> dict:
    """Reference record of one request's exit code and output."""
    if request["op"] != "lib":
        argv = request["argv2"] if request["op"] == "pipe" and code == 0 else request["argv"]
        output = parse_cli_output(argv, output)
    return {"exit": code, **fingerprint(output)}


def compare(reference: dict, got: dict) -> list[str]:
    """Reasons the two records disagree; empty when they match."""
    problems = []
    if got["exit"] != reference["exit"]:
        problems.append(f"exit code {got['exit']} != {reference['exit']}")
    if got["exact"] != reference["exact"]:
        problems.append("exact fields differ")
    count, *sums = got["floats"]
    ref_count, *ref_sums = reference["floats"]
    if count != ref_count:
        problems.append(f"{count} floats != {ref_count}")
    else:
        scale = REL_TOL * ref_sums[2] + ABS_TOL
        for name, value, ref, factor in zip(("sum", "weighted sum", "magnitude"), sums, ref_sums, (1, 2, 1)):
            if not abs(value - ref) <= factor * scale:
                problems.append(f"float {name} {value!r} != {ref!r}")
    return problems
