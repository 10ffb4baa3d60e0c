"""paritydie benchmark: one closed-loop client issuing a seeded request list.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Workloads: ``exact``, ``simulate``
and ``stream`` (see ``perfbench/README.md``).  The benchmark

1. generates the workload's request list from ``--seed`` and prints its
   digest, so two runs can show they issued the same requests;
2. times fresh interpreters that import ``paritydie`` and answer the
   warm-up requests, before and after step 3, and reports the median as
   ``setup_s``;
3. runs the request list in one fresh worker process, in whole passes,
   until ``--seconds`` of request time are measured, checking every output
   against ``perfbench/reference/<workload>.json``;
4. with ``--trace 1``, runs one more pass under the layer tracer and
   reports the per-layer metrics instead of the end-to-end ones.

Every metric is printed by name with its unit, with the check verdict; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed SETUP_RUNS times before the measured run and as many
# times after it, so a burst of load from elsewhere cannot cover them all.
SETUP_RUNS = 6
# Every child process must end within this many seconds of the start.
BUDGET_S = 170
# Latencies are reported for a CPU on which worker.reference_loop takes
# this long.  The loop is timed next to every request; a request's latency
# is its wall time scaled by REFERENCE_S over the loop's local time.
REFERENCE_S = 1e-3
# Reference-loop samples each side of a request that set its local time.
REFERENCE_WINDOW = 4


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def _worker(deadline: float, *args: str) -> subprocess.CompletedProcess:
    """Run worker.py to completion; a child still running at ``deadline`` is killed."""
    try:
        return subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1),
            check=False,
        )
    except subprocess.TimeoutExpired:
        _fail(f"worker {' '.join(args)} did not finish within {BUDGET_S} s")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def time_setup(workload: str, deadline: float) -> list[float]:
    """Wall times of fresh interpreters answering the warm-up requests,
    scaled to the reference CPU speed.

    One untimed start comes first, so byte-code and file caches are warm
    for every timed one.  The reference loop is timed in this process
    before each start and after the last; the starts of one call take a
    second or two, so the median of those samples is the CPU's speed for
    all of them.
    """
    times, loops = [], []
    for index in range(SETUP_RUNS + 1):
        loops.append(worker.reference_loop())
        start = time.perf_counter()
        done = _worker(deadline, "setup", workload)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            _fail(f"setup process failed ({done.returncode}): {done.stderr.strip()}")
        if index:
            times.append(elapsed)
    loops.append(worker.reference_loop())
    scale = REFERENCE_S / statistics.median(loops)
    return [elapsed * scale for elapsed in times]


def scaled_pass(latencies: list[float], loops: list[float]) -> list[float]:
    """One pass's latencies at the reference CPU speed.

    ``loops[i]`` is the reference loop timed just before request ``i``
    (``loops[-1]`` after the last request).  Request ``i`` is scaled by the
    median of the samples within REFERENCE_WINDOW of it, so the speed of
    the CPU over the surrounding fraction of a second cancels out, and a
    single interrupted sample does not.
    """
    scaled = []
    for index, elapsed in enumerate(latencies):
        nearby = loops[max(index - REFERENCE_WINDOW + 1, 0) : index + REFERENCE_WINDOW + 1]
        scaled.append(elapsed * REFERENCE_S / statistics.median(nearby))
    return scaled


def end_to_end(result: dict, setup_times: list[float]) -> dict:
    """End-to-end metrics from the untraced passes.

    The CPU of a shared host runs the same code up to half again slower in
    phases of seconds to minutes, so each latency is first scaled to the
    reference speed (``scaled_pass``).  A request's latency is then its
    median over the passes, so a burst during one pass does not move it.
    Throughput is the list length over the sum of those latencies.
    """
    passes = [scaled_pass(*pair) for pair in zip(result["passes"], result["reference_s"])]
    latencies = [statistics.median(times) for times in zip(*passes)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(result: dict) -> dict:
    values = {**result["layers"], "tracing_overhead_s": result["tracing_overhead_s"]}
    return {name: (values[name], unit) for name, unit in tracing.LAYER_UNITS.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "paritydie" / "__init__.py").is_file():
        _fail(f"no paritydie sources under {ROOT / 'src'}; run from a source checkout")
    if not (HERE / "reference" / f"{args.workload}.json").is_file():
        _fail(f"no reference outputs for {args.workload}")

    requests = workloads.generate(args.workload, args.seed)
    info = metadata()
    print(f"perfbench: workload={args.workload} seed={args.seed} requests={len(requests)} "
          f"digest={workloads.digest(requests)}")
    print("metadata: " + " ".join(f"{k}={v}" for k, v in info.items()))

    deadline = time.monotonic() + BUDGET_S
    setup_times = time_setup(args.workload, deadline)
    done = _worker(deadline, "run", args.workload, str(args.seed), repr(args.seconds), str(args.trace))
    setup_times += time_setup(args.workload, deadline)
    if done.returncode != 0:
        _fail(f"worker failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])

    passes = len(result["passes"])
    attempted = len(requests) * (passes + args.trace)
    failed = len(result["failures"])
    e2e = end_to_end(result, setup_times)
    print(f"latency samples: {len(requests)} requests, each the median of {passes} passes")
    loops = [t for pass_loops in result["reference_s"] for t in pass_loops]
    wall = [statistics.median(times) for times in zip(*result["passes"])]
    print(f"reference loop: median {statistics.median(loops) * 1e3:.4f} ms "
          f"(scaled to {REFERENCE_S * 1e3:g} ms); unscaled wall latency p50 "
          f"{statistics.median(wall) * 1e3:.4f} ms, p90 "
          f"{statistics.quantiles(wall, n=10, method='inclusive')[8] * 1e3:.4f} ms")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<40} {value:14.4f} {unit}")
    print(f"  {'error_rate':<40} {failed / attempted:14.4f} ratio")
    metrics = e2e
    if args.trace:
        metrics = per_layer(result)
        print(f"per-layer (one traced pass, spans in {result['trace_file']}):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:14.4f} {unit}")
    for line in result["failures"][:20]:
        print(f"  mismatch: {line}")
    print(f"check: {'PASS' if not failed else 'FAIL'} ({attempted - failed}/{attempted} requests match)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
