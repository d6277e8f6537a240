"""Progress points: registration, marking, rates, and persistence."""

import pytest

from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.program import Loop
from repro.policies import make_policy
from repro.telemetry.progress import (ProgressTracker, main_loop_points,
                                      progress_rate)
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.hashmap_example import build as build_hashmap
from repro.workloads.spec import build_benchmark


class TestTracker:
    def test_marks_accumulate_with_clock(self):
        tracker = ProgressTracker()
        clock = {"now": 0.0}
        tracker.bind(lambda: clock["now"])
        clock["now"] = 10.0
        tracker.progress("main")
        clock["now"] = 30.0
        tracker.progress("main")
        stats = tracker.points["main"]
        assert stats.count == 2
        assert stats.first_clock == 10.0
        assert stats.last_clock == 30.0

    def test_rate_is_marks_per_1000_cycles(self):
        tracker = ProgressTracker()
        for _ in range(5):
            tracker.progress("main")
        assert tracker.rate(10_000.0) == pytest.approx(0.5)
        assert tracker.rate(10_000.0, "main") == pytest.approx(0.5)
        assert tracker.rate(0.0) == 0.0

    def test_summary_is_json_ready_and_sorted(self):
        tracker = ProgressTracker()
        tracker.progress("phase1")
        tracker.progress("phase0")
        summary = tracker.summary()
        assert list(summary) == ["phase0", "phase1"]
        assert summary["phase0"]["count"] == 1.0

    def test_telemetry_mirroring(self):
        recorder = TelemetryRecorder(label="t")
        tracker = ProgressTracker(telemetry=recorder)
        tracker.progress("main")
        tracker.progress("main")
        snapshot = recorder.snapshot()
        assert "progress/main" in snapshot.counter_series


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
        tracker = ProgressTracker()
        result = AdaptiveRuntime(built.program, make_policy("fixed", 2),
                                 progress=tracker).run()
        assert tracker.points["main"].count == iterations
        assert result.progress_points["main"]["count"] == float(iterations)
        # Marks land on the simulated clock, within the run's span.
        assert 0.0 < result.progress_points["main"]["first_clock"]
        assert (result.progress_points["main"]["last_clock"]
                <= result.total_cycles)

    def test_rate_consistent_between_tracker_and_result(self):
        built = build_hashmap(iterations=500)
        tracker = ProgressTracker()
        result = AdaptiveRuntime(built.program, make_policy("fixed", 2),
                                 progress=tracker).run()
        assert tracker.rate(result.total_cycles) == pytest.approx(
            progress_rate(result.progress_points, result.total_cycles))
