"""Tests of the host-time benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import compare
import run
from spans import SpanRecorder, self_times
from workloads import Config


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(240) == 95      # 12 runs beyond p95
    assert run.tail_percentile(200) == 95      # exactly 10 beyond
    assert run.tail_percentile(199) == 90      # 9 beyond p95 is too few
    assert run.tail_percentile(24) == 50
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(10_000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 95) == 95
    assert run.percentile([7.0], 99) == 7.0


def test_self_time_subtracts_direct_children():
    spans = [("run", 0.0, 10.0, -1, 0),
             ("jvm.interp", 1.0, 9.0, 0, 0),
             ("aos.tick", 2.0, 5.0, 1, 0),
             ("aos.listeners", 2.5, 3.0, 2, 0),
             ("aos.tick", 6.0, 7.0, 1, 0)]
    layers = self_times(spans)
    assert layers["run"]["self_s"] == 2.0
    assert layers["jvm.interp"]["self_s"] == 4.0
    assert layers["aos.tick"] == {"self_s": 3.5, "total_s": 4.0, "calls": 2}
    assert layers["aos.listeners"]["self_s"] == 0.5
    assert sum(layer["self_s"] for layer in layers.values()) == 10.0


def test_reentered_layer_is_timed_and_counted_once():
    spans = [("compiler.oracle", 0.0, 4.0, -1, 0),
             ("compiler.oracle", 1.0, 2.0, 0, 0)]
    assert self_times(spans)["compiler.oracle"] == {
        "self_s": 4.0, "total_s": 4.0, "calls": 1}


class _Layer:
    def work(self, n):
        return n * 2


def test_recorder_patches_counts_and_restores():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    original = _Layer.work
    recorder.patch(_Layer, "work", "layer", count=lambda result: result)
    assert _Layer.work is original
    with recorder.active(), recorder.span("run"):
        assert _Layer().work(3) == 6
    assert [(name, parent) for name, _s, _e, parent, _r
            in recorder.take()] == [("run", -1), ("layer", 0)]
    assert _Layer.work is original
    _Layer().work(5)  # not recorded
    recorder.run = 1
    with recorder.active():
        _Layer().work(1)
    assert [(name, parent, run) for name, _s, _e, parent, run
            in recorder.take()] == [("layer", -1, 1)]
    assert recorder.counts == {"layer": 8}


def _unit(config, fingerprint, outcome="same", run_s=0.1, speed=1.0):
    return {"program": "jess", "config": config, "fingerprint": fingerprint,
            "outcome": outcome, "setup_s": 0.01, "run_s": run_s,
            "speed": speed}


def test_typical_pass_takes_each_units_median_in_reference_seconds():
    passes = [{"peak_rss_mb": 30.0,
               "units": [_unit("cins", None, run_s=1.0),
                         _unit("static", None, run_s=2.0)]},
              {"units": [_unit("cins", None, run_s=9.0),  # a stall
                         _unit("static", None, run_s=4.0, speed=0.5)]},
              {"units": [_unit("cins", None, run_s=1.2),
                         {"program": "jess", "error": "boom"}]}]
    assert run.typical(passes, "run_s") == pytest.approx(1.2 + 2.0)
    assert run.end_to_end(passes[:1])["run_ms_geomean"] == \
        pytest.approx((1000.0 * 2000.0) ** 0.5)


PINS = {"runs": {"jess@0.05#0": [0, 10, 2, 100, 5]}, "analyses": {}}


def test_injected_fingerprint_mismatch_counts_as_failed():
    good, bad = [0, 10, 2, 100, 5], [0, 10, 2, 99, 5]
    record = {"scale": 0.05, "offset": 0,
              "units": [_unit("cins", good), _unit("static", bad),
                        {"program": "jess", "config": "fixed:3",
                         "error": "ExecutionError: boom"}]}
    verdict = run.check("startup", [record], PINS)
    assert (verdict["attempted"], verdict["failed"]) == (3, 2)
    assert "99" in verdict["problems"][0]


def test_outcome_drift_between_passes_counts_as_failed():
    good = [0, 10, 2, 100, 5]
    passes = [{"scale": 0.05, "offset": 0,
               "units": [_unit("cins", good, outcome)]}
              for outcome in ("a", "a", "b")]
    verdict = run.check("startup", passes, PINS)
    assert (verdict["attempted"], verdict["failed"]) == (3, 1)


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]


@pytest.mark.parametrize("change, expected", [
    ([value * 0.9 for value in PARENT], "improved"),
    # 9/10 wins, but a median gap inside the parent's IQR.
    ([value - 0.01 for value in PARENT[:9]] + [10.5], "unchanged"),
    ([value * 1.2 for value in PARENT], "regressed"),
    ([value * 0.9 for value in PARENT[:9]], "unresolved"),  # 9 pairs
])
def test_compare_verdicts(change, expected):
    assert compare.verdict(PARENT, change, "lower", 0.1) == expected


def test_compare_calls_a_wide_parent_spread_unresolved():
    parent = [8.0, 12.0] * 5
    assert compare.verdict(parent, [10.0] * 10, "lower", 0.1) == "unresolved"


@pytest.mark.xfail(strict=True, reason="known bug: the planned deopt "
                   "strategy enters an inlined body through a guard-free "
                   "preexist elision when the receiver resolves elsewhere")
def test_planned_deopt_preserves_program_meaning():
    import worker
    planned = Config("cins", 1, (("speculation_enabled", True),
                                 ("deopt_planning_enabled", True),
                                 ("deopt_strategy", "planned")))
    unit = worker.run_unit("javac", 0.05, 0, planned, None)
    with open(run.PINS_PATH) as handle:
        pins = json.load(handle)
    assert unit["fingerprint"] == pins["runs"]["javac@0.05#0"]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_benchmark_metric(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    with open(run.BENCHMARK_PATH) as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    for workload in run.WORKLOADS:
        for metric in section:
            name = metric["name"]
            printed = result["metrics"][f"{workload}.{name}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
            assert f"  {name} " in proc.stdout
            if name == "trace.reconcile_frac":
                # Self times plus the unattributed remainder make up the
                # traced time.
                assert abs(printed["value"]) < 0.01
