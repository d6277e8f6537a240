"""Progress points: registration, marking, rates, and persistence."""

from types import SimpleNamespace

import pytest

from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.costs import to_centi
from repro.jvm.program import Loop
from repro.policies import make_policy
from repro.telemetry.progress import (ProgressTracker, main_loop_points,
                                      progress_rate)
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.hashmap_example import build as build_hashmap
from repro.workloads.spec import build_benchmark


def watching(tracker):
    """``tracker`` attached to a stand-in for the machine it watches."""
    tracker.machine = SimpleNamespace(clock=0)
    return tracker


class TestTracker:
    def test_marks_accumulate_with_clock(self):
        tracker = watching(ProgressTracker({}))
        tracker.machine.clock = to_centi(10.0)
        tracker.progress("main")
        tracker.machine.clock = to_centi(30.0)
        tracker.progress("main")
        stats = tracker.points["main"]
        assert stats.count == 2
        assert stats.first_clock == 10.0
        assert stats.last_clock == 30.0

    def test_rate_is_marks_per_1000_cycles(self):
        tracker = watching(ProgressTracker({}))
        for name in ("main", "main", "phase1", "phase1", "phase1"):
            tracker.progress(name)
        assert progress_rate(tracker.summary(), 10_000.0) == \
            pytest.approx(0.5)
        assert progress_rate(tracker.summary(), 0.0) == 0.0

    def test_summary_is_json_ready_and_sorted(self):
        tracker = watching(ProgressTracker({}))
        tracker.progress("phase1")
        tracker.progress("phase0")
        summary = tracker.summary()
        assert list(summary) == ["phase0", "phase1"]
        assert summary["phase0"]["count"] == 1.0

    def test_telemetry_mirroring(self):
        # Telemetry on the same run counts the tracker's marks itself; it
        # names no progress points of its own.
        recorder = TelemetryRecorder(label="t")
        built = build_hashmap(iterations=300)
        tracker = ProgressTracker(main_loop_points(built.program))
        AdaptiveRuntime(built.program, make_policy("fixed", 2),
                        sinks=[tracker, recorder]).run()
        assert recorder.loops == {}
        series = recorder.snapshot().counter_series["progress/main"]
        assert len(series) == tracker.points["main"].count == 300
        assert series[-1] == (tracker.points["main"].last_clock, 300.0)


class TestProgressRate:
    def test_from_persisted_summary(self):
        points = {"main": {"count": 4.0, "first_clock": 0.0,
                           "last_clock": 100.0}}
        assert progress_rate(points, 8_000.0) == pytest.approx(0.5)

    def test_degenerate_inputs(self):
        assert progress_rate(None, 1000.0) == 0.0
        assert progress_rate({}, 1000.0) == 0.0
        assert progress_rate({"main": {"count": 3.0}}, 0.0) == 0.0


class TestMainLoopPoints:
    def test_single_top_level_loop_is_main(self):
        generated = build_benchmark("jess", scale=0.04)
        points = main_loop_points(generated.program)
        assert list(points.values()) == ["main"]
        entry = generated.program.entry_method()
        loop_ids = {id(stmt) for stmt in entry.body
                    if isinstance(stmt, Loop)}
        assert set(points) == loop_ids

    def test_every_benchmark_has_a_progress_point(self):
        from repro.workloads.spec import BENCHMARK_ORDER
        for name in BENCHMARK_ORDER:
            generated = build_benchmark(name, scale=0.02)
            assert main_loop_points(generated.program), name


class TestRuntimeIntegration:
    def test_marks_count_completed_iterations(self):
        iterations = 800
        built = build_hashmap(iterations=iterations)
        tracker = ProgressTracker(main_loop_points(built.program))
        result = AdaptiveRuntime(built.program, make_policy("fixed", 2),
                                 sinks=[tracker]).run()
        main = tracker.summary()["main"]
        assert main["count"] == float(iterations)
        # Marks land on the simulated clock, within the run's span.
        assert 0.0 < main["first_clock"]
        assert main["last_clock"] <= result.total_cycles

    def test_only_the_trackers_loops_are_marked(self):
        built = build_hashmap(iterations=200)
        tracker = watching(ProgressTracker({}))
        AdaptiveRuntime(built.program, make_policy("fixed", 2),
                        sinks=[tracker]).run()
        assert tracker.summary() == {}

    def test_rate_consistent_between_tracker_and_result(self):
        # A causal cell stores its tracker's summary as the result's
        # progress points, so the cell's rate is the tracker's.
        from repro.causal.engine import BASELINE, _causal_worker
        cell, log = _causal_worker(("jess", "cins", BASELINE, 0.0, 0,
                                    1, 0.0, 0.04))
        assert log is None
        built = build_benchmark("jess", scale=0.04)
        tracker = ProgressTracker(main_loop_points(built.program))
        result = AdaptiveRuntime(built.program, make_policy("cins", 1),
                                 sinks=[tracker]).run()
        assert result.total_cycles == cell.total_cycles
        assert cell.progress_points == tracker.summary()
        assert progress_rate(cell.progress_points, cell.total_cycles) > 0.0
