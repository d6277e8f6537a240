"""Tests for the adaptive runtime's tick scheduling and sampling."""

import pytest

from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.costs import CostModel, DEFAULT_COSTS
from repro.policies import make_policy
from repro.workloads.hashmap_example import build as build_hashmap


def runtime_for(iterations=2000, costs=None, policy=("cins", 1), phase=0.0):
    built = build_hashmap(iterations=iterations)
    return AdaptiveRuntime(built.program, make_policy(*policy),
                           costs or DEFAULT_COSTS, sample_phase=phase)


class TestSampling:
    def test_sample_count_tracks_interval(self):
        costs = DEFAULT_COSTS
        runtime = runtime_for(costs=costs)
        result = runtime.run()
        expected = result.total_cycles / costs.sample_interval
        # Timer jitter averages to the nominal interval (+/- 30%).
        assert expected * 0.7 < result.samples_taken < expected * 1.3

    def test_denser_sampling_with_smaller_interval(self):
        sparse = runtime_for(costs=DEFAULT_COSTS.replace(
            sample_interval=8_000)).run()
        dense = runtime_for(costs=DEFAULT_COSTS.replace(
            sample_interval=1_000)).run()
        assert dense.samples_taken > 2 * sparse.samples_taken

    def test_trace_samples_at_most_method_samples(self):
        result = runtime_for().run()
        assert result.traces_recorded <= result.samples_taken

    def test_phase_changes_outcome_slightly(self):
        a = runtime_for(phase=0.0).run()
        b = runtime_for(phase=0.5).run()
        # Different phases give different-but-similar runs.
        assert a.total_cycles != b.total_cycles
        assert abs(a.total_cycles - b.total_cycles) < 0.2 * a.total_cycles

    def test_same_phase_is_deterministic(self):
        a = runtime_for(phase=0.25).run()
        b = runtime_for(phase=0.25).run()
        assert a.total_cycles == b.total_cycles
        assert a.opt_code_bytes == b.opt_code_bytes
        assert a.guard_tests == b.guard_tests


class TestOrganizerScheduling:
    def test_decay_runs_scale_with_run_length(self):
        short = runtime_for(iterations=500)
        short.run()
        long = runtime_for(iterations=8000)
        long.run()
        assert long.decay_organizer.runs >= short.decay_organizer.runs

    def test_buffer_capacity_triggers_early_drain(self):
        # A tiny buffer forces the DCG organizer to run between wakes, so
        # the listener buffer never exceeds the capacity.
        costs = DEFAULT_COSTS.replace(trace_buffer_capacity=4)
        runtime = runtime_for(costs=costs)
        real_drain = runtime.trace_listener.drain
        max_seen = {"n": 0}

        def tracking_drain():
            max_seen["n"] = max(max_seen["n"],
                                len(runtime.trace_listener.buffer))
            return real_drain()

        runtime.trace_listener.drain = tracking_drain
        runtime.run()
        assert max_seen["n"] <= 4


class TestCostOverrides:
    def test_disabling_decay(self):
        costs = DEFAULT_COSTS.replace(decay_period=10 ** 12)
        runtime = runtime_for(costs=costs)
        runtime.run()
        assert runtime.decay_organizer.runs == 0

    def test_higher_threshold_fewer_rules(self):
        low = runtime_for(costs=DEFAULT_COSTS.replace(
            hot_edge_threshold=0.005)).run()
        high = runtime_for(costs=DEFAULT_COSTS.replace(
            hot_edge_threshold=0.10)).run()
        assert high.rule_count <= low.rule_count
