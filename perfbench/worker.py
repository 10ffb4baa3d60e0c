"""One fresh benchmark process: ``setup`` or ``run`` one workload.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE

``setup`` imports ``paritydie`` and answers the workload's warm-up requests,
then exits; the parent times it from the outside.  ``run`` does the same
warm-up, then issues the seeded request list in whole passes, one request
after another (closed loop, one client), until SECONDS have been measured
and at least MIN_PASSES passes made.
Each request is timed alone; its inputs are built before and its output is
checked against the reference after the timed region.  With TRACE=1 one
more pass runs under the tracer.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import gc
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# Each request's latency is its median over the passes (see run.py), so
# every request is timed at least this often, spread over the run.
MIN_PASSES = 4


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work, about 1 ms.

    It is timed before every request and after the last one of a pass, so
    run.py can express each latency relative to how fast this CPU ran the
    interpreter at that moment.  Neighbours on a shared host slow different
    kinds of code by different factors, so the loop takes about equal time
    in the three kinds the workloads spend theirs in: bytecode dispatch over
    small ints and a dict, ``Fraction`` arithmetic, and big-int products.
    It uses no paritydie code: a change to the program cannot move it.
    """
    start = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(2000):
        key = i * 7919 % 257
        total += table.get(key, 0)
        table[key] = total & 0xFFFF
    third = Fraction(1, 3)
    share = Fraction(0)
    for i in range(100):
        share += third**i
    base, modulus = 3**1200, 7**1300 + 1
    product = 1
    for _ in range(15):
        product = product * base % modulus
    return perf_counter() - start


def _import_program() -> None:
    import paritydie
    import paritydie.cli  # noqa: F401  (not imported by the package itself)

    if not Path(paritydie.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"paritydie was imported from {paritydie.__file__}, not from {SRC}")


def setup(workload: str) -> None:
    _import_program()
    for request in workloads.WARMUP[workload]:
        code, _ = workloads.execute(request, workloads.prepare(request))
        if code != 0:
            raise SystemExit(f"warm-up request {request['key']!r} exited {code}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Imported here: ``setup`` is what set-up time measures, so it loads
    # only what the warm-up needs.
    import json
    import resource
    import statistics

    import check

    def issue(request, tracer=None, request_id=None) -> tuple[float, list[str]]:
        """Time one request and check it; returns (seconds, problems)."""
        gc.collect()
        if tracer is not None:
            tracer.begin_request(request_id)
        start = perf_counter()
        code, output = workloads.execute(request, inputs[request["key"]])
        elapsed = perf_counter() - start
        reference = references.get(request["key"])
        if reference is None:
            problems = ["no reference output"]
        else:
            problems = check.compare(reference, check.fingerprint_output(request, code, output))
        if request["expect_exit"] is not None and code != request["expect_exit"]:
            problems.append(f"documented exit code {request['expect_exit']}, got {code}")
        return elapsed, problems

    references = json.loads((ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
    requests = workloads.generate(workload, seed)
    _import_program()
    setup(workload)
    inputs = {request["key"]: workloads.prepare(request) for request in requests}
    gc.collect()
    gc.freeze()

    passes: list[list[float]] = []
    references_s: list[list[float]] = []
    failures: list[str] = []
    while len(passes) < MIN_PASSES or sum(map(sum, passes)) < seconds:
        latencies, loops = [], []
        for request in requests:
            loops.append(reference_loop())
            elapsed, problems = issue(request)
            latencies.append(elapsed)
            if problems:
                failures.append(f"{request['key']}: {'; '.join(problems)}")
        loops.append(reference_loop())
        passes.append(latencies)
        references_s.append(loops)
    result = {
        "passes": passes,
        "reference_s": references_s,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced_seconds = 0.0
        try:
            for request_id, request in enumerate(requests):
                elapsed, problems = issue(request, tracer, request_id)
                traced_seconds += elapsed
                if problems:
                    failures.append(f"traced {request['key']}: {'; '.join(problems)}")
        finally:
            tracer.uninstall()
        trace_dir = ROOT / ".bench_build" / "perfbench"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(trace_file)
        result["layers"] = tracing.layer_metrics(tracer)
        result["tracing_overhead_s"] = traced_seconds - statistics.median(map(sum, passes))
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def main(argv: list[str]) -> None:
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        setup(workload)
        return
    import json

    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
    sys.stdout.write(json.dumps(run(workload, seed, seconds, trace)) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
