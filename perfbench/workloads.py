"""Request catalogues, seeded request lists, and request execution.

Every workload is a fixed list of *slots*.  A slot is a list of candidate
requests of about the same cost; the workload seed picks one candidate per
slot and then shuffles the list.  Costs are therefore fixed by the slots and
only the inputs vary with the seed, which keeps run-to-run spread small while
different seeds still issue different requests.  The union of all slot
candidates is the workload's catalogue; ``capture.py`` records a reference
output for every catalogue entry, so any seed can be checked.

A request is a plain dict (JSON-serialisable):

- ``op``: ``"cli"`` (``paritydie.cli.run(argv)`` with captured stdout),
  ``"pipe"`` (two CLI calls, the first one's stdout fed to the second's
  stdin) or ``"lib"`` (a library function the CLI does not expose);
- ``argv`` / ``argv2`` for CLI calls, ``stdin`` naming a generated stream;
- ``fn`` and ``args`` for library calls;
- ``expect_exit``: the documented exit code of a deliberate failure, else
  ``None``;
- ``key``: the request's identity in the reference files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys

WORKLOADS = ("exact", "simulate", "stream")
RULES = ("none", "copy", "increment")
FORMATS = ("json", "csv")
P0S = ("1/2", "1/3")
# Even shares below and above 1/2, so the exact upper tail summed by
# ``exact_binomial_tail`` is sometimes long and sometimes short.
LOW_BIASES = (0.40, 0.45)
HIGH_BIASES = (0.55, 0.60)
STREAM_SEEDS = range(4)
MASTER_SEEDS = range(4)

# Exit codes of the documented failures, as the CLI documents them:
# 1 usage error, 2 input-data error, 3 numeric-range error.
EXIT_USAGE, EXIT_DATA, EXIT_RANGE = 1, 2, 3

# Sized for the public absorption sampler: ``copy`` freezes after about 5.5
# tosses; ``none`` and ``increment`` never freeze, so their runs stop here.
NON_FREEZING_MAX_STEPS = 10


def _key(request: dict) -> str:
    op = request["op"]
    if op == "lib":
        args = ", ".join(f"{k}={v}" for k, v in request["args"].items())
        return f"lib {request['fn']}({args})"
    text = "cli " + " ".join(request["argv"])
    if request.get("stdin"):
        text += " < " + request["stdin"]
    if op == "pipe":
        text += " | " + " ".join(request["argv2"])
    return text


def _request(op: str, expect_exit: int | None = None, **fields) -> dict:
    request = {"op": op, **fields, "expect_exit": expect_exit}
    request["key"] = _key(request)
    return request


def cli(*argv: str, stdin: str | None = None, expect_exit: int | None = None) -> dict:
    return _request("cli", expect_exit, argv=list(argv), stdin=stdin)


def pipe(argv: list[str], argv2: list[str]) -> dict:
    return _request("pipe", argv=argv, argv2=argv2)


def lib(fn: str, **args) -> dict:
    return _request("lib", fn=fn, args=args)


def stream_name(n: int, bias: float, seed: int) -> str:
    return f"stream(n={n},bias={bias},seed={seed})"


def bad_stream_name(seed: int) -> str:
    return f"badstream(seed={seed})"


def _parse_name(name: str) -> tuple[str, dict]:
    kind, _, rest = name.partition("(")
    fields = dict(part.split("=") for part in rest.rstrip(")").split(","))
    return kind, fields


def _stream_chars(n: int, bias: float, seed: int) -> list[str]:
    """``n`` tosses, exactly ``round(n * bias)`` of them even, in seeded order.

    The even count is fixed by ``n`` and ``bias`` alone, so the length of
    the exact tail a ``test`` sums, and with it the request's cost, does not
    depend on the seed; the seed only orders the tosses.
    """
    evens = round(n * bias)
    chars = ["E"] * evens + ["O"] * (n - evens)
    random.Random(f"{n}:{bias}:{seed}").shuffle(chars)
    return chars


def stream_text(name: str) -> str:
    """The toss-stream file a stream name stands for.

    Lines of 60 symbols, every fifth line in lower case, with a comment
    header and a trailing comment, so ``parse_sequence`` sees every part of
    the format.
    """
    kind, fields = _parse_name(name)
    seed = int(fields["seed"])
    if kind == "badstream":
        chars = _stream_chars(50, 0.5, seed)
        chars.insert(10 + 7 * seed, "X")
    else:
        chars = _stream_chars(int(fields["n"]), float(fields["bias"]), seed)
    lines = [f"# {name}"]
    for row, start in enumerate(range(0, len(chars), 60)):
        line = "".join(chars[start : start + 60])
        lines.append(line.lower() if row % 5 == 4 else line)
    return "\n".join(lines) + "\n# end\n"


def stream_tosses(name: str) -> list:
    from paritydie.core import Parity

    _, fields = _parse_name(name)
    chars = _stream_chars(int(fields["n"]), float(fields["bias"]), int(fields["seed"]))
    return [Parity.EVEN if c == "E" else Parity.ODD for c in chars]


def _failures(bogus_rule_argv: list[str]) -> list[list[dict]]:
    return [
        [cli("enumerate", "--rule", r, "--depth", "21", expect_exit=EXIT_RANGE) for r in RULES],
        [cli("test", stdin=bad_stream_name(s), expect_exit=EXIT_DATA) for s in STREAM_SEEDS],
        [cli(*bogus_rule_argv, "--rule", "bogus", expect_exit=EXIT_USAGE)],
    ]


def _probes(*layers: str) -> list[list[dict]]:
    """Tiny requests into layers a workload otherwise leaves idle.

    Each workload carries the probes for its idle layers, so every per-layer
    time is measured on every workload: near zero where the layer is idle,
    never a constant 0.
    """
    table = {
        "chain": [cli("chain", "--rule", "none", "--report", "verdict")],
        "enumeration": [
            lib("imbalance_distribution", rule="none", steps=2),
            lib("config_distribution", rule="none", steps=2),
        ],
        "montecarlo": [
            cli("simulate", "--rule", "none", "--tosses", "3", "--runs", "10"),
            cli("simulate", "--rule", "none", "--tosses", "1000", "--runs", "1"),
            cli("simulate", "--rule", "none", "--tosses", "5", "--runs", "2", "--emit"),
            lib("absorption_frequencies", rule="copy", runs=10, master_seed=0),
        ],
        "stats": [cli("test", stdin=stream_name(20, 0.5, 0))],
    }
    return [[request] for layer in layers for request in table[layer]]


CHAIN_VARIANTS = [("json", s) for s in ("full", "verdict", "classes", "matrix", "absorption")] + [
    ("csv", s) for s in ("verdict", "classes", "matrix", "absorption")
]


def _chain(rule: str, fmt: str, section: str) -> dict:
    return cli("chain", "--rule", rule, "--report", section, "--format", fmt)


def _exact_slots() -> list[list[dict]]:
    slots = []
    # Depths 11 and 12 only under copy, the rule with the most live states
    # per prefix, to keep a pass short; every rule runs at depths 6-10.
    # Formats alternate by slot: the JSON of depth 12 sets the peak memory.
    depths = [(d, r) for d in range(6, 11) for r in RULES] + [(11, "copy"), (12, "copy")]
    for index, (depth, rule) in enumerate(depths):
        fmt = FORMATS[index % 2]
        slots.append([cli("enumerate", "--rule", rule, "--depth", str(depth), "--format", fmt)])
    imbalance = [(20, r) for r in RULES] + [(59, r) for r in RULES] + [(98, "none")]
    for base, rule in imbalance:
        slots.append([lib("imbalance_distribution", rule=rule, steps=base + j) for j in range(3)])
    for rule in RULES:
        slots += [[_chain(rule, fmt, section)] for fmt, section in CHAIN_VARIANTS]
        slots += [[_chain(rule, fmt, section) for fmt, section in CHAIN_VARIANTS]] * 9
        slots += [[cli("table", "--rule", rule, "--format", f)] for f in FORMATS]
        for base in (20, 40, 60, 80, 98):
            slots.append([lib("config_distribution", rule=rule, steps=base + j) for j in range(3)])
    return slots + _failures(["enumerate", "--depth", "8"]) + _probes("montecarlo", "stats")


def _simulate(rule: str, tosses: int, runs: int, seed: int, fmt: str) -> dict:
    return cli(
        "simulate", "--rule", rule, "--tosses", str(tosses), "--runs", str(runs),
        "--seed", str(seed), "--format", fmt,
    )


def _simulate_slots() -> list[list[dict]]:
    slots = []
    for runs, rule in zip((10_000, 15_000, 20_000), RULES):
        # many short runs: per-run seeding dominates
        slots.append([_simulate(rule, 3, runs, s, f) for s in MASTER_SEEDS for f in FORMATS])
    for runs, rule in zip((10_000, 15_000, 20_000), ("copy", "increment", "none")):
        slots.append([lib("absorption_frequencies", rule=rule, runs=runs, master_seed=s) for s in MASTER_SEEDS])
    for index, (tosses, runs) in enumerate((t, r) for t in (1000, 3000, 5000) for r in (20, 50, 100)):
        # few long runs: per-toss stepping dominates
        for rule in (RULES[index % 3], RULES[(index + 1) % 3]):
            slots.append([_simulate(rule, tosses, runs, s, f) for s in MASTER_SEEDS for f in FORMATS])
    for tosses in (20, 50, 100):
        for runs in (20, 50, 100):
            for rule in RULES * 3:
                slots.append(
                    [
                        cli("simulate", "--rule", rule, "--tosses", str(tosses), "--runs", str(runs), "--seed", str(s), "--emit")
                        for s in MASTER_SEEDS
                    ]
                )
    return slots + _failures(["simulate", "--tosses", "3", "--runs", "10"]) + _probes("chain", "enumeration", "stats")


def _test(n: int, p0: str, bias: float, seed: int, fmt: str) -> dict:
    return cli("test", "--p0", p0, "--format", fmt, stdin=stream_name(n, bias, seed))


def _stream_slots() -> list[list[dict]]:
    slots = []
    for n, bias, p0 in ((100_000, 0.47, "1/2"), (300_000, 0.53, "1/3")):
        slots.append([lib("sequential_report", stream=stream_name(n, bias, s), p0=p0) for s in STREAM_SEEDS])
    # Each slot fixes p0, the even share (which sets the length of the exact
    # tail) and the format (JSON costs a 1500-toss test about a fifth more
    # than CSV); the seed picks the stream.
    shares = [(p0, b) for b in LOW_BIASES + HIGH_BIASES for p0 in P0S]
    for n, count, first_format in ((1500, 10, 0), (1000, 8, 1)):
        for index in range(count):
            p0, bias = shares[index % len(shares)]
            fmt = FORMATS[(index + first_format) % len(FORMATS)]
            slots.append([_test(n, p0, bias, s, fmt) for s in STREAM_SEEDS])
    slots.append([_test(3000, "1/3", 0.55, s, "json") for s in STREAM_SEEDS])
    # The short tests hold the median, so every (p0, share, format) runs
    # the same number of times at each length whatever the seed.
    kinds = [(p0, b, f) for p0 in P0S for b in LOW_BIASES + HIGH_BIASES for f in FORMATS]
    for n, copies in ((300, 15), (100, 55)):
        for index in range(copies):
            p0, bias, fmt = kinds[index % len(kinds)]
            slots.append([_test(n, p0, bias, s, fmt) for s in STREAM_SEEDS])
    for scenario_id in ("1", "2", "3"):
        for fmt in FORMATS:
            slots.append([pipe(["scenario", "--id", scenario_id, "--emit"], ["test", "--format", fmt])])
    return slots + _failures(["chain"]) + _probes("chain", "enumeration", "montecarlo")


SLOTS = {"exact": _exact_slots, "simulate": _simulate_slots, "stream": _stream_slots}

# One warm-up list per workload: it loads every module the workload uses
# and fills lazy tables (the montecarlo sampler cache for every rule).
WARMUP = {
    "exact": [cli("chain", "--rule", "copy"), cli("enumerate", "--depth", "3")],
    "simulate": [cli("simulate", "--rule", r, "--tosses", "3", "--runs", "10") for r in RULES],
    "stream": [pipe(["scenario", "--id", "3", "--emit"], ["test"])],
}


def catalogue(workload: str) -> list[dict]:
    """Every request the workload can issue, each once, in a fixed order."""
    seen: dict[str, dict] = {}
    for slot in SLOTS[workload]():
        for request in slot:
            seen.setdefault(request["key"], request)
    return list(seen.values())


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's request list for ``seed``; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    requests = [rng.choice(slot) for slot in SLOTS[workload]()]
    rng.shuffle(requests)
    return requests


def digest(requests: list[dict]) -> str:
    keys = json.dumps([request["key"] for request in requests])
    return hashlib.sha256(keys.encode()).hexdigest()[:16]


LIB_MODULES = {
    "imbalance_distribution": "enumeration",
    "config_distribution": "enumeration",
    "absorption_frequencies": "montecarlo",
    "sequential_report": "stats",
}


def prepare(request: dict):
    """Build a request's inputs outside the timed region.

    CLI requests get their stdin text; library requests get keyword
    arguments with rules, rationals and toss lists already built.
    """
    if request["op"] != "lib":
        return stream_text(request["stdin"]) if request.get("stdin") else ""
    from fractions import Fraction

    from paritydie.core import MutationRule

    args = dict(request["args"])
    if "rule" in args:
        args["rule"] = MutationRule.from_name(args["rule"])
    if "steps" in args:
        args["max_depth"] = args["steps"]
    if "stream" in args:
        args["sequence"] = stream_tosses(args.pop("stream"))
        args["p0"] = Fraction(args["p0"])
    if request["fn"] == "absorption_frequencies" and args["rule"] is not MutationRule.PARITY_COPY:
        args["max_steps"] = NON_FREEZING_MAX_STEPS
    return args


def _run_cli(argv: list[str], stdin_text: str) -> tuple[int, str]:
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = sys.modules["paritydie.cli"].run(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def execute(request: dict, prepared) -> tuple[int, object]:
    """Issue one request through the public entry points; returns (exit code, output).

    CLI output is the captured stdout text; a library call returns 0 and its
    result object.  Functions are looked up at call time, so wrappers
    installed by the tracer see every call.  A pipe runs its second call
    only when the first succeeded.
    """
    op = request["op"]
    if op == "lib":
        module = sys.modules["paritydie." + LIB_MODULES[request["fn"]]]
        return 0, getattr(module, request["fn"])(**prepared)
    code, out = _run_cli(request["argv"], prepared)
    if op == "pipe" and code == 0:
        code, out = _run_cli(request["argv2"], out)
    return code, out
