"""Tests of the benchmark's own machinery.

Run with: python3 -m pytest perfbench/tests
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, layer_metric_names  # noqa: E402

from enchain import geometry, posets, toric  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(50, 0, -1)]
    value, percentile = run.tail(samples)
    assert value == 40.0 and percentile == 80.0
    assert sum(1 for s in samples if s > value) == 10
    assert run.tail(list(range(11))) == (0, 100 / 11)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_median_band_centres_on_the_median():
    assert run.median_band([3, 1, 2], band=0) == 2
    assert run.median_band([4, 1, 3, 2], band=0) == 2.5
    samples = list(range(50))  # central fifth: 20..29
    assert run.median_band(samples) == 24.5 == statistics.median(samples)
    skewed = [1] * 20 + [10] * 10 + [100] * 20
    assert run.median_band(skewed) == 10


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(5)

    def outer():
        clock.advance(1)
        inner_traced()
        clock.advance(2)
        inner_traced()
        clock.advance(3)

    def numbers():
        for k in range(3):
            clock.advance(0.5)
            yield k

    inner_traced = tracer.wrap(inner, "m.inner")
    outer_traced = tracer.wrap(outer, "m.outer")
    numbers_traced = tracer.wrap(numbers, "m.numbers")
    with tracer.span("root"):
        outer_traced()
        for _ in numbers_traced():
            clock.advance(10)  # consumer time, not the generator's
    layers = tracer.layer_metrics({name: ("calls", "self_s", "items") for name in ("m.inner", "m.outer", "m.numbers")})
    assert layers["m.outer.self_s"] == 6
    assert layers["m.inner.self_s"] == 10 and layers["m.inner.calls"] == 2
    assert layers["m.numbers.self_s"] == 1.5 and layers["m.numbers.items"] == 3
    root_duration = tracer.duration[0]
    assert root_duration == 16 + 1.5 + 30
    assert sum(tracer.self_times()) == root_duration


def test_rebinding_sees_calls_through_imported_names():
    poset = posets.poset_from_covers(2, [(1, 2)])
    original = geometry.count_dilation
    tracer = Tracer()
    tracer.install()
    try:
        assert toric.count_dilation is geometry.count_dilation is not original
        toric.hilbert_certificate(poset, max_m=3)
        geometry.hstar_and_gamma(poset)  # imports peak_polynomials inside the function
    finally:
        tracer.uninstall()
    assert geometry.count_dilation is original and toric.count_dilation is original
    layers = tracer.layer_metrics()
    assert layers["geometry.count_dilation.calls"] == 3 + 3  # m = 1..3, then 0..2
    assert layers["geometry.count_dilation.repeat_frac"] == 2 / 6
    assert layers["partitions.peak_polynomials.calls"] == 1


def small_battery_requests():
    return [request for request in worker.build_requests("battery4", 0, 0) if request[2].n <= 2]


def test_planted_wrong_reference_is_a_failure():
    with open(worker.REFERENCES, encoding="utf-8") as handle:
        references = json.load(handle)
    requests = small_battery_requests()
    runner = worker.request_runner("battery4", worker.import_enchain())
    clean = worker.run_pass("battery4", requests, runner, references)
    assert clean["failed"] == 0 and clean["checks"] > 0

    key = requests[0][1]
    planted = dict(references, **{key: dict(references[key], volume=references[key]["volume"] + 1)})
    result = worker.run_pass("battery4", requests, runner, planted)
    assert result["failed"] == 1 and result["failed"] / result["attempted"] > 0
    assert "volume" in result["failures"][0]


def test_verdicts_skip_skipped_checks_and_measured_relation():
    row = {
        "poset": {"naturally_labeled": True},
        "alarms": [],
        "gamma_left_peak": True,
        "enriched_relation": {"holds": False},
        "groebner": {"buchberger": "skipped", "hilbert_pass": True},
        "triangulation": "skipped",
        "narrow_left_peak_equals_descent": None,
    }
    _, found, problems = checks.check_outputs("battery5", [row])
    assert found == 3 and problems == []
    row["groebner"]["buchberger"] = "fail"
    _, found, problems = checks.check_outputs("battery5", [row])
    assert found == 4 and problems == ["verdict groebner.buchberger = 'fail'"]


def test_generator_matches_library_and_classes():
    for n in range(1, 6):
        ours = {frozenset(inputs.covers(b)) for b in inputs.natural_posets(n)}
        theirs = {frozenset(p.covers()) for p in posets.all_natural_posets(n)}
        assert ours == theirs
    assert [len(inputs.iso_classes(n)) for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]


def test_inputs_depend_only_on_seed():
    assert inputs.pass_inputs("battery5", 3, 1) == inputs.pass_inputs("battery5", 3, 1)
    assert inputs.pass_inputs("facts6", 3, 0) != inputs.pass_inputs("facts6", 4, 0)
    battery4 = inputs.pass_inputs("battery4", 5, 0)
    assert len(battery4) == 50
    assert sorted(battery4) == sorted(inputs.pass_inputs("battery4", 6, 0))


def test_benchmark_json_lists_what_the_runs_print():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    for metric in bench["end_to_end"]:
        assert (metric["unit"], metric["better"]) == run.END_TO_END[metric["name"]]
    traced = layer_metric_names() + ["trace_overhead_frac", "trace_accounted_frac"]
    assert [m["name"] for m in bench["per_layer"]] == traced
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
