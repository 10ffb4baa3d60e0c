"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json

import check
import tracing
import worker  # puts the checkout's src/ on sys.path
import workloads

REFERENCE_DIR = worker.ROOT / "perfbench" / "reference"


def _references(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


# -- seeded generation -----------------------------------------------------


def test_generation_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 7)
        assert first == workloads.generate(workload, 7)
        assert workloads.digest(first) == workloads.digest(workloads.generate(workload, 7))
        assert workloads.digest(first) != workloads.digest(workloads.generate(workload, 8))


def test_every_generated_request_has_a_reference():
    for workload in workloads.WORKLOADS:
        references = _references(workload)
        assert {r["key"] for r in workloads.catalogue(workload)} == set(references)
        for seed in range(5):
            requests = workloads.generate(workload, seed)
            assert len(requests) >= 100
            assert all(r["key"] in references for r in requests)


def test_stream_text_round_trips_through_the_parser():
    from paritydie.cli import parse_sequence

    name = workloads.stream_name(300, 0.45, 2)
    parsed = parse_sequence(workloads.stream_text(name))
    assert parsed == workloads.stream_tosses(name)
    assert len(parsed) == 300


# -- documented failures ----------------------------------------------------

DOCUMENTED = {"--depth 21": 3, "badstream": 2, "--rule bogus": 1}


def _documented_exit(key: str) -> int | None:
    return next((code for marker, code in DOCUMENTED.items() if marker in key), None)


def test_documented_failures_expect_their_exit_codes():
    for workload in workloads.WORKLOADS:
        references = _references(workload)
        for request in workloads.catalogue(workload):
            expected = _documented_exit(request["key"])
            assert request["expect_exit"] == expected, request["key"]
            if expected is not None:
                assert references[request["key"]]["exit"] == expected


def test_each_workload_issues_every_documented_failure():
    for workload in workloads.WORKLOADS:
        requests = workloads.generate(workload, 3)
        failing = [_documented_exit(r["key"]) for r in requests if r["expect_exit"] is not None]
        assert sorted(failing) == [1, 2, 3]
        assert len(failing) / len(requests) < 0.05


def test_documented_failure_exit_codes_hold_when_issued():
    for request in workloads.catalogue("stream"):
        if request["expect_exit"] is not None:
            code, _ = workloads.execute(request, workloads.prepare(request))
            assert code == request["expect_exit"], request["key"]


# -- checker ------------------------------------------------------------------

PAYLOAD = {
    "rule": "copy",
    "entries": [
        {"sequence": "EE", "numerator": 1, "denominator": 4, "decimal": 0.25},
        {"sequence": "EO", "numerator": 1, "denominator": 12, "decimal": 1 / 12},
    ],
    "even_counts": {"0": 2493, "1": 5012, "2": 2495},
}


def _changed(edit) -> dict:
    payload = json.loads(json.dumps(PAYLOAD))
    edit(payload)
    return payload


def _record(value) -> dict:
    return {"exit": 0, **check.fingerprint(value)}


def _verdict(payload) -> list[str]:
    return check.compare(_record(PAYLOAD), _record(payload))


def test_checker_accepts_identical_output():
    assert _verdict(_changed(lambda p: None)) == []


def test_checker_rejects_numerator_off_by_one():
    def edit(p):
        p["entries"][1]["numerator"] += 1

    assert "exact fields differ" in _verdict(_changed(edit))


def test_checker_rejects_changed_seeded_count():
    def edit(p):
        p["even_counts"]["1"] += 1

    assert "exact fields differ" in _verdict(_changed(edit))


def test_checker_accepts_float_jitter_within_tolerance():
    def edit(p):
        p["entries"][1]["decimal"] *= 1 + 1e-13
        p["entries"][0]["decimal"] *= 1 - 1e-13

    assert _verdict(_changed(edit)) == []


def test_checker_rejects_float_change_beyond_tolerance():
    def edit(p):
        p["entries"][1]["decimal"] *= 1 + 1e-6

    assert _verdict(_changed(edit))


def test_checker_rejects_swapped_floats():
    def edit(p):
        first, second = p["entries"]
        first["decimal"], second["decimal"] = second["decimal"], first["decimal"]

    assert _verdict(_changed(edit))


def test_checker_parses_csv_cells_by_type():
    text = "sequence,numerator,decimal,match\nEEO,1,0.25,True\n"
    assert check.parse_cli_output(["enumerate", "--format", "csv"], text) == [
        ["sequence", "numerator", "decimal", "match"],
        ["EEO", 1, 0.25, "True"],
    ]


def test_checker_rejects_one_edited_prefix_record():
    from paritydie.stats import PrefixRecord

    records = tuple(PrefixRecord(t, t // 2, 0.5 * t, t % 3 == 0, False) for t in range(1, 50))
    edited = records[:10] + (PrefixRecord(11, 6, 5.5, False, False),) + records[11:]
    assert check.compare(_record(records), _record(records)) == []
    assert check.compare(_record(records), _record(edited))


def test_program_output_matches_reference_and_mutation_is_caught():
    request = workloads.cli("chain", "--rule", "copy", "--report", "absorption", "--format", "json")
    reference = _references("exact")[request["key"]]
    code, out = workloads.execute(request, workloads.prepare(request))
    assert check.compare(reference, check.fingerprint_output(request, code, out)) == []
    mutated = out.replace('"numerator": 1,', '"numerator": 2,', 1)
    assert mutated != out
    assert check.compare(reference, check.fingerprint_output(request, code, mutated))


# -- tracing ------------------------------------------------------------------


def _span(span_id, parent, start, end, leaf=0.0):
    return [span_id, parent, 0, f"s{span_id}", start, end, leaf]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(0, None, 0.0, 10.0, leaf=1.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 6.0, leaf=0.25),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 0.75]


def test_covered_merges_overlapping_children():
    assert tracing.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (8.0, 12.0)]) == 6.0


def test_tracer_counts_calls_and_restores_bindings():
    import paritydie
    from paritydie import cli, enumeration

    worker.setup("exact")
    original = enumeration.transitions
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert enumeration.transitions is not original
        assert cli.path_distribution is paritydie.path_distribution
        request = workloads.cli("enumerate", "--rule", "copy", "--depth", "4")
        tracer.begin_request(0)
        code, _ = workloads.execute(request, workloads.prepare(request))
    finally:
        tracer.uninstall()
    assert code == 0
    assert enumeration.transitions is original
    metrics = tracing.layer_metrics(tracer)
    assert metrics["core.transitions.calls"] > 0
    assert metrics["enumeration.path_distribution.entries"] == 16
    assert metrics["serialize.fraction_fields.calls"] == 16
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names == ["cli.run", "enumeration.path_distribution"]
    assert set(tracing.LAYER_UNITS) - {"tracing_overhead_s"} == set(metrics)


def test_benchmark_json_lists_what_the_benchmark_reports():
    import run

    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    passes = [[0.002, 0.5], [0.003, 0.4], [0.001, 0.6]]
    loops = [[run.REFERENCE_S] * 3] * 3
    e2e = run.end_to_end({"passes": passes, "reference_s": loops, "peak_rss_kb": 2048}, [0.1, 0.3, 0.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: unit for k, (_, unit) in e2e.items()}
    assert e2e["setup_s"][0] == 0.2
    assert e2e["requests_per_s"][0] == 2 / 0.502
    assert e2e["peak_rss_mb"][0] == 2.0


def test_latencies_are_scaled_by_the_nearby_reference_loop():
    import run

    reference = run.REFERENCE_S
    # The CPU runs at half speed around the first request, full speed later;
    # one interrupted sample (10x) in the window does not move the median.
    loops = [2 * reference, 2 * reference, 10 * reference] + [reference] * 12
    latencies = [0.010] * 14
    scaled = run.scaled_pass(latencies, loops)
    assert scaled[0] == 0.005
    assert scaled[-1] == 0.010
