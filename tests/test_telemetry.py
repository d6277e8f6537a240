"""Tests for the repro.telemetry subsystem.

Covers the three contract points of the telemetry design:

* **zero overhead** -- a traced run and an untraced run of the same
  configuration are cycle-identical (the NullRecorder/EventLog guarantee);
* **schema validity** -- exported Chrome traces carry the required
  trace-event keys with non-negative, per-track monotone timestamps;
* **measurement honesty** -- per-component span totals reconcile exactly
  with :class:`~repro.aos.cost_accounting.CostAccounting`.
"""

import json

import pytest

from repro.aos.cost_accounting import (AOS_COMPONENTS, APP, COMPILATION,
                                       LISTENERS)
from repro.aos.runtime import AdaptiveRuntime
from repro.experiments.config import SweepConfig
from repro.experiments.runner import run_single, run_sweep
from repro.policies import make_policy
from repro.telemetry import (NULL_RECORDER, HistogramData, NullRecorder,
                             TelemetryRecorder, cell_label, component_totals,
                             fractions, label_cell_snapshots,
                             merge_cell_telemetry, merge_component_totals,
                             merge_counters, merge_histograms,
                             merged_chrome_trace, reconcile, render_aggregate,
                             summarize, to_chrome_trace, write_chrome_trace)
from repro.workloads.spec import build_benchmark

SCALE = 0.05


def traced_run(benchmark="jess", family="hybrid1", depth=3, scale=SCALE):
    """One instrumented run; returns (runtime, result, snapshot)."""
    recorder = TelemetryRecorder(label=f"{benchmark}/{family}/max{depth}")
    generated = build_benchmark(benchmark, scale=scale)
    runtime = AdaptiveRuntime(generated.program, make_policy(family, depth),
                              telemetry=recorder)
    result = runtime.run()
    return runtime, result, recorder.snapshot()


@pytest.fixture(scope="module")
def jess_traced():
    return traced_run()


class TestRecorder:
    def test_span_records_clock_interval(self):
        recorder = TelemetryRecorder()
        clock = [10.0]
        recorder.bind(lambda: clock[0])
        span_id = recorder.begin_span("c1", "work", detail="x")
        clock[0] = 25.0
        recorder.end_span(span_id, extra=1)
        (span,) = recorder.spans
        assert (span.begin, span.end) == (10.0, 25.0)
        assert span.duration == 15.0
        assert span.args == {"detail": "x", "extra": 1}

    def test_self_cycles_uses_component_delta(self):
        recorder = TelemetryRecorder()
        cycles = {"c1": 100.0}
        recorder.bind(lambda: 0.0, lambda c: cycles.get(c, 0.0))
        span_id = recorder.begin_span("c1", "work")
        cycles["c1"] = 140.0
        recorder.end_span(span_id)
        assert recorder.spans[0].self_cycles == 40.0

    def test_explicit_self_cycles_wins(self):
        recorder = TelemetryRecorder()
        with pytest.raises(TypeError):
            recorder.end_span()  # span_id is required
        span_id = recorder.begin_span("c1", "work")
        recorder.end_span(span_id, self_cycles=7.0)
        assert recorder.spans[0].self_cycles == 7.0

    def test_counters_and_gauges(self):
        recorder = TelemetryRecorder()
        recorder.count("n", 2.0)
        recorder.count("n")
        recorder.gauge("g", 5.0)
        recorder.gauge("g", 3.0)
        assert recorder.counters["n"] == 3.0
        assert recorder.gauges["g"] == 3.0
        assert [v for _t, v in recorder.counter_series["n"]] == [2.0, 3.0]
        assert [v for _t, v in recorder.counter_series["g"]] == [5.0, 3.0]

    def test_histogram_buckets(self):
        histogram = HistogramData()
        for value in (0.5, 1.0, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.minimum == 0.5 and histogram.maximum == 100.0
        assert histogram.mean == pytest.approx(104.5 / 4)
        assert histogram.buckets[0] == 2      # <= 1.0
        assert histogram.buckets[2] == 1      # (2, 4]
        assert histogram.buckets[7] == 1      # (64, 128]

    def test_snapshot_closes_open_spans_and_is_frozen(self):
        recorder = TelemetryRecorder(label="x")
        clock = [1.0]
        recorder.bind(lambda: clock[0])
        recorder.begin_span("c1", "dangling")
        clock[0] = 9.0
        snapshot = recorder.snapshot()
        assert snapshot.label == "x"
        assert snapshot.total_cycles == 9.0
        assert snapshot.spans[0].end == 9.0
        recorder.count("later")
        assert "later" not in snapshot.counters

    def test_null_recorder_is_inert(self):
        null = NullRecorder()
        assert not null.enabled and not NULL_RECORDER.enabled
        with null.span("c1", "work"):
            null.count("n")
            null.gauge("g", 1.0)
            null.observe("h", 2.0)
            null.instant("c1", "e")
        null.end_span(null.begin_span("c1", "w"))
        snapshot = null.snapshot()
        assert snapshot.spans == [] and snapshot.counters == {}


class TestZeroOverheadContract:
    def test_traced_run_is_cycle_identical(self):
        untraced = run_single("jess", "hybrid1", 3, scale=SCALE)
        recorder = TelemetryRecorder()
        traced = run_single("jess", "hybrid1", 3, scale=SCALE,
                            telemetry=recorder)
        assert traced.total_cycles == untraced.total_cycles
        assert traced.component_cycles == untraced.component_cycles
        assert traced.opt_compilations == untraced.opt_compilations
        assert len(recorder.spans) > 0  # ...and it actually recorded

    def test_traced_run_is_cycle_identical_with_osr_and_invalidation(self):
        # javac loads classes late (invalidation) and compress runs long
        # monomorphic loops (OSR); jess at tiny scale covers neither.
        untraced = run_single("javac", "fixed", 2, scale=SCALE)
        traced = run_single("javac", "fixed", 2, scale=SCALE,
                            telemetry=TelemetryRecorder())
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

    def test_fractions_match_cost_accounting(self, jess_traced):
        runtime, _result, snapshot = jess_traced
        expected = runtime.accounting.fractions(runtime.machine.clock)
        measured = fractions(snapshot)
        for component, value in expected.items():
            assert measured[component] == pytest.approx(value, abs=1e-12)

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


class TestAggregation:
    @pytest.fixture(scope="class")
    def two_runs(self):
        _rt1, _r1, snap1 = traced_run("jess", "fixed", 2)
        _rt2, _r2, snap2 = traced_run("db", "hybrid1", 2)
        return {"jess/fixed": snap1, "db/hybrid1": snap2}

    def test_component_totals_sum(self, two_runs):
        merged = merge_component_totals(two_runs)
        for component in (APP, COMPILATION):
            assert merged[component] == pytest.approx(sum(
                component_totals(s).get(component, 0.0)
                for s in two_runs.values()))

    def test_counters_sum(self, two_runs):
        merged = merge_counters(two_runs)
        key = "code_cache.baseline_compilations"
        assert merged[key] == sum(s.counters[key] for s in two_runs.values())

    def test_histograms_fold(self, two_runs):
        merged = merge_histograms(two_runs)
        histogram = merged["opt_compile.cycles"]
        assert histogram.count == sum(
            s.histograms["opt_compile.cycles"].count
            for s in two_runs.values())

    def test_merged_trace_has_one_pid_per_run(self, two_runs):
        trace = merged_chrome_trace(two_runs)
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert pids == {1, 2}
        names = {event["args"]["name"] for event in trace["traceEvents"]
                 if event["name"] == "process_name"}
        assert names == set(two_runs)

    def test_render_aggregate(self, two_runs):
        data, rendered = render_aggregate(two_runs)
        assert data["total_cycles"] > 0
        assert "Aggregate telemetry over 2 runs" in rendered


class TestSweepTelemetry:
    TINY = SweepConfig(benchmarks=("jess",), families=("fixed",),
                       depths=(2,), phases=(0.0, 0.5), scale=SCALE, jobs=1)

    def test_sweep_without_telemetry_has_none(self):
        results = run_sweep(self.TINY)
        assert results.telemetry is None

    def test_sweep_collects_per_cell_snapshots(self):
        results = run_sweep(self.TINY, collect_telemetry=True)
        assert results.telemetry is not None
        assert set(results.telemetry) == set(results.cells)
        for key, snapshot in results.telemetry.items():
            # The snapshot belongs to the best-of-phases run that was kept.
            assert snapshot.total_cycles == results.cells[key].total_cycles
            assert snapshot.spans

    def test_sweep_telemetry_survives_worker_processes(self):
        config = SweepConfig(benchmarks=("jess", "db"), families=("fixed",),
                             depths=(2,), phases=(0.0,), scale=SCALE, jobs=2)
        results = run_sweep(config, collect_telemetry=True)
        assert set(results.telemetry) == set(results.cells)
        merged = merge_component_totals(
            {"/".join(map(str, key)): snap
             for key, snap in results.telemetry.items()})
        assert merged[APP] > 0

    def test_cache_format_unchanged(self):
        from repro.experiments.runner import SweepResults
        results = run_sweep(self.TINY, collect_telemetry=True)
        payload = json.loads(results.to_json())
        assert set(payload) == {"stamp", "config", "cells"}  # no telemetry
        loaded = SweepResults.from_json(results.to_json())
        assert loaded.telemetry is None
        assert set(loaded.cells) == set(results.cells)


class TestCellTelemetryMerge:
    A = ("jess", "fixed", 2)
    B = ("db", "class", 4)

    def test_cell_label(self):
        assert cell_label(self.A) == "jess/fixed/max2"

    def test_label_cell_snapshots(self):
        snap = object()
        assert label_cell_snapshots({self.A: snap}) == \
            {"jess/fixed/max2": snap}

    def test_merge_unions_partial_runs(self):
        first, second = object(), object()
        merged = merge_cell_telemetry({self.A: first}, {self.B: second})
        assert merged == {self.A: first, self.B: second}

    def test_merge_later_run_wins_and_none_skipped(self):
        stale, fresh = object(), object()
        merged = merge_cell_telemetry({self.A: stale}, None,
                                      {self.A: fresh})
        assert merged == {self.A: fresh}

    def test_merged_map_feeds_existing_aggregators(self):
        # The labelled union of two partial sweeps reconciles with the
        # run-level aggregation helpers.
        _rt, _res, snap_a = traced_run("jess", "fixed", 2)
        _rt, _res, snap_b = traced_run("db", "fixed", 2)
        merged = merge_cell_telemetry({self.A: snap_a}, {("db", "fixed", 2): snap_b})
        totals = merge_component_totals(label_cell_snapshots(merged))
        assert totals[APP] > 0
