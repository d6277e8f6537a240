"""Tests for the repro.telemetry subsystem.

Covers the three contract points of the telemetry design:

* **zero overhead** -- a traced run and an untraced run of the same
  configuration are cycle-identical (the event-sink guarantee);
* **schema validity** -- exported Chrome traces carry the required
  trace-event keys with non-negative, per-track monotone timestamps;
* **measurement honesty** -- per-component span totals reconcile exactly
  with :class:`~repro.aos.cost_accounting.CostAccounting`.
"""

import json
from types import SimpleNamespace

import pytest

from repro.aos.cost_accounting import (AOS_COMPONENTS, APP, COMPILATION,
                                       LISTENERS, CostAccounting)
from repro.aos.runtime import AdaptiveRuntime
from repro.experiments.runner import run_single
from repro.jvm.costs import to_centi
from repro.policies import make_policy
from repro.telemetry import (TelemetryRecorder, component_totals, reconcile,
                             summarize, to_chrome_trace, write_chrome_trace)
from repro.workloads.spec import build_benchmark

SCALE = 0.05


def traced_run(benchmark="jess", family="hybrid1", depth=3, scale=SCALE):
    """One instrumented run; returns (runtime, result, snapshot)."""
    recorder = TelemetryRecorder(label=f"{benchmark}/{family}/max{depth}")
    generated = build_benchmark(benchmark, scale=scale)
    runtime = AdaptiveRuntime(generated.program, make_policy(family, depth),
                              sinks=[recorder])
    result = runtime.run()
    return runtime, result, recorder.snapshot()


@pytest.fixture(scope="module")
def jess_traced():
    return traced_run()


def watching(recorder, clock=0.0):
    """``recorder`` attached to a stand-in for the machine it watches."""
    recorder.machine = SimpleNamespace(clock=to_centi(clock),
                                       accounting=CostAccounting())
    return recorder


class TestRecorder:
    def test_span_records_clock_interval(self):
        recorder = watching(TelemetryRecorder(), clock=10.0)
        recorder.begin("c1", "work", detail="x")
        recorder.machine.clock = to_centi(25.0)
        recorder.end(extra=1)
        (span,) = recorder.spans
        assert (span.begin, span.end) == (10.0, 25.0)
        assert span.duration == 15.0
        assert span.args == {"detail": "x", "extra": 1}

    def test_self_cycles_uses_component_delta(self):
        recorder = watching(TelemetryRecorder())
        accounting = recorder.machine.accounting
        accounting.charge(LISTENERS, to_centi(100.0))
        recorder.begin(LISTENERS, "work")
        recorder.begin("scheduler", "wake")  # no accounting track
        accounting.charge(LISTENERS, to_centi(40.0))
        recorder.end()
        recorder.end()
        wake, work = recorder.spans
        assert (wake.name, wake.self_cycles) == ("wake", 0.0)
        assert (work.name, work.self_cycles) == ("work", 40.0)

    def test_explicit_self_cycles_wins(self):
        recorder = watching(TelemetryRecorder())
        recorder.begin("c1", "work")
        recorder.end(self_cycles=7.0)
        assert recorder.spans[0].self_cycles == 7.0

    def test_counters_and_gauges(self):
        recorder = watching(TelemetryRecorder())
        recorder.count("n", 2.0)
        recorder.count("n")
        recorder.gauge("g", 5.0)
        recorder.gauge("g", 3.0)
        assert recorder.counters["n"] == 3.0
        assert recorder.gauges["g"] == 3.0
        assert [v for _t, v in recorder.counter_series["n"]] == [2.0, 3.0]
        assert [v for _t, v in recorder.counter_series["g"]] == [5.0, 3.0]

    def test_snapshot_closes_open_spans_and_is_frozen(self):
        recorder = watching(TelemetryRecorder(label="x"), clock=1.0)
        recorder.begin("c1", "dangling")
        recorder.machine.clock = to_centi(9.0)
        snapshot = recorder.snapshot()
        assert snapshot.label == "x"
        assert snapshot.total_cycles == 9.0
        assert snapshot.spans[0].end == 9.0
        recorder.count("later")
        assert "later" not in snapshot.counters


class TestZeroOverheadContract:
    def test_traced_run_is_cycle_identical(self):
        untraced = run_single("jess", "hybrid1", 3, scale=SCALE)
        recorder = TelemetryRecorder()
        traced = run_single("jess", "hybrid1", 3, scale=SCALE,
                            sinks=[recorder])
        assert traced.total_cycles == untraced.total_cycles
        assert traced.component_cycles == untraced.component_cycles
        assert traced.opt_compilations == untraced.opt_compilations
        assert len(recorder.spans) > 0  # ...and it actually recorded

    def test_traced_run_is_cycle_identical_with_osr_and_invalidation(self):
        # javac loads classes late (invalidation) and compress runs long
        # monomorphic loops (OSR); jess at tiny scale covers neither.
        untraced = run_single("javac", "fixed", 2, scale=SCALE)
        traced = run_single("javac", "fixed", 2, scale=SCALE,
                            sinks=[TelemetryRecorder()])
        assert traced.total_cycles == untraced.total_cycles


class TestSummaryReconciliation:
    def test_span_totals_equal_cost_accounting(self, jess_traced):
        runtime, _result, snapshot = jess_traced
        accounting = runtime.accounting.snapshot(runtime.machine.clock)
        totals = component_totals(snapshot)
        for component in AOS_COMPONENTS:
            assert totals.get(component, 0.0) == pytest.approx(
                accounting[component], rel=1e-9, abs=1e-6), component
        assert totals[APP] == pytest.approx(accounting[APP], rel=1e-9)

    def test_reconcile_accepts_run_result(self, jess_traced):
        _runtime, result, snapshot = jess_traced
        ok, rows, rendered = reconcile(snapshot, result.component_cycles)
        assert ok
        assert {row["component"] for row in rows} == set(
            result.component_cycles)
        assert "reconciliation" in rendered

    def test_reconcile_detects_disagreement(self, jess_traced):
        _runtime, result, snapshot = jess_traced
        skewed = dict(result.component_cycles)
        skewed[COMPILATION] += 0.5 * snapshot.total_cycles
        ok, _rows, _rendered = reconcile(snapshot, skewed)
        assert not ok

    def test_summarize_renders_components(self, jess_traced):
        _runtime, _result, snapshot = jess_traced
        rows, rendered = summarize(snapshot)
        by_component = {row["component"]: row for row in rows}
        assert by_component[LISTENERS]["spans"] > 0
        assert by_component[APP]["cycles"] > 0
        assert "Telemetry component summary" in rendered

    def test_per_compile_spans_carry_method_details(self, jess_traced):
        _runtime, result, snapshot = jess_traced
        compiles = [s for s in snapshot.spans if s.name == "opt_compile"]
        assert len(compiles) == result.opt_compilations
        for span in compiles:
            assert span.args["method"]
            assert span.args["inlined_bytecodes"] > 0
            assert span.args["inline_nodes"] >= 1
            assert span.args["guards"] >= 0
            assert span.args["reason"] in ("hot", "osr", "missing_edge")


class TestChromeTraceExport:
    REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")

    def test_events_satisfy_schema(self, jess_traced):
        _runtime, _result, snapshot = jess_traced
        events = to_chrome_trace(snapshot)["traceEvents"]
        assert events
        for event in events:
            for key in self.REQUIRED_KEYS:
                assert key in event, f"{key} missing from {event}"
            assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_timestamps_monotone_per_track(self, jess_traced):
        _runtime, _result, snapshot = jess_traced
        events = to_chrome_trace(snapshot)["traceEvents"]
        per_track = {}
        for event in events:
            per_track.setdefault((event["pid"], event["tid"]),
                                 []).append(event["ts"])
        for track, stamps in per_track.items():
            assert stamps == sorted(stamps), track

    def test_component_tracks_are_named(self, jess_traced):
        _runtime, _result, snapshot = jess_traced
        events = to_chrome_trace(snapshot)["traceEvents"]
        thread_names = {event["args"]["name"] for event in events
                        if event["name"] == "thread_name"}
        assert {APP, LISTENERS, COMPILATION} <= thread_names

    def test_instants_cover_osr_and_rule_changes(self):
        # compress's hot monomorphic loops reliably trigger OSR.
        _runtime, result, snapshot = traced_run("compress", "fixed", 2)
        names = {instant.name for instant in snapshot.instants}
        if result.osr_transfers:
            assert "osr_transfer" in names
        assert "rules_changed" in names
        # Rule changes are stamped inside the organizer wake that made
        # them, right after the AI organizer.
        wakes = [(span.begin, span.end) for span in snapshot.spans
                 if span.name == "organizer_wake"]
        for instant in snapshot.instants:
            if instant.name == "rules_changed":
                assert any(begin <= instant.clock <= end
                           for begin, end in wakes), instant

    def test_write_chrome_trace_round_trips(self, jess_traced, tmp_path):
        _runtime, _result, snapshot = jess_traced
        path = str(tmp_path / "trace.json")
        events = write_chrome_trace(path, snapshot)
        with open(path) as handle:
            loaded = json.load(handle)
        assert len(loaded["traceEvents"]) == events
        assert loaded["otherData"]["total_cycles"] == snapshot.total_cycles
