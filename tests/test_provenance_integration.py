"""End-to-end tests for decision provenance: cycle identity, real
cross-policy diffs, sweep decision-log persistence, and runtime events.

These exercise the ISSUE acceptance criteria directly:

* recording provenance must not perturb the simulation by a single cycle;
* diffing cins against fixed:4 on ``db`` must surface verdict flips with
  reason codes.
"""

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.runner import (decision_log_meta, load_or_run_sweep,
                                      run_single)
from repro.provenance import (ProvenanceRecorder, diff_decisions,
                              explain_method, final_decisions, render_diff,
                              split_records)

SCALE = 0.05


def record_run(benchmark, family, depth, scale=SCALE, phase=0.0):
    recorder = ProvenanceRecorder(label=f"{benchmark}/{family}")
    result = run_single(benchmark, family, depth, phase=phase, scale=scale,
                        sinks=[recorder])
    return result, recorder


class TestCycleIdentity:
    def test_recorded_run_is_bit_identical(self):
        plain = run_single("db", "cins", 4, scale=SCALE)
        recorded, recorder = record_run("db", "cins", 4)
        assert recorded.total_cycles == plain.total_cycles
        assert recorded.opt_code_bytes == plain.opt_code_bytes
        assert recorded.live_opt_code_bytes == plain.live_opt_code_bytes
        assert recorded.guard_tests == plain.guard_tests
        assert recorded.guard_misses == plain.guard_misses
        assert recorded.opt_compilations == plain.opt_compilations
        assert len(recorder) > 0  # the recorder did capture the run


class TestRecordedRun:
    @pytest.fixture(scope="class")
    def cins_run(self):
        return record_run("db", "cins", 4)

    def test_every_compilation_is_bracketed(self, cins_run):
        result, recorder = cins_run
        decisions, compilations, _events = split_records(recorder.records)
        assert len(compilations) == result.opt_compilations
        assert decisions  # compilations contained inlining decisions
        versions = {c.version for c in compilations}
        assert {d.version for d in decisions} <= versions

    def test_decision_clocks_are_monotone(self, cins_run):
        _result, recorder = cins_run
        clocks = [r.clock for r in recorder.records]
        assert clocks == sorted(clocks)

    def test_plan_events_emitted(self, cins_run):
        _result, recorder = cins_run
        kinds = {e.kind for e in recorder.events}
        assert "plan" in kinds

    def test_explain_renders_some_compiled_method(self, cins_run):
        _result, recorder = cins_run
        root = recorder.compilations[0].method
        out = explain_method(recorder.records, root)
        assert f"of {root}" in out
        assert "@" in out  # at least one call-site line


class TestCrossPolicyDiff:
    def test_cins_vs_fixed4_reports_verdict_flips(self):
        result_a, rec_a = record_run("db", "fixed", 4)
        result_b, rec_b = record_run("db", "cins", 4)
        meta_a = decision_log_meta("db", "fixed", 4, 0.0, SCALE, result_a)
        meta_b = decision_log_meta("db", "cins", 4, 0.0, SCALE, result_b)
        diff = diff_decisions(rec_a.records, rec_b.records,
                              meta_a=meta_a, meta_b=meta_b)
        # Acceptance criterion: at least one verdict flip, with reason
        # codes on both sides.
        assert len(diff.verdict_flips) >= 1
        for flip in diff.verdict_flips:
            assert flip.a.reason and flip.b.reason
        out = render_diff(diff)
        assert "flipped" in out
        assert "total cycles" in out

    def test_same_policy_diff_is_identical(self):
        _result, rec_a = record_run("db", "fixed", 2)
        _result, rec_b = record_run("db", "fixed", 2)
        diff = diff_decisions(rec_a.records, rec_b.records)
        assert diff.is_identical


class TestSweepDecisionLogs:
    def test_logs_persisted_and_resumed(self, tmp_path):
        cache = str(tmp_path / "sweep.json")
        config = SweepConfig(benchmarks=("db",), families=("fixed",),
                             depths=(2,), phases=(0.0,), scale=SCALE,
                             decision_logs=True)
        results = load_or_run_sweep(cache, config)
        assert results.cells

        logs = list(tmp_path.glob("sweep.cells/*.decisions.jsonl"))
        assert len(logs) == len(results.cells)

        # A second load must reuse the cache, and the stored log must
        # reconstruct the same final decisions as a fresh recorded run.
        again = load_or_run_sweep(cache, config)
        assert set(again.cells) == set(results.cells)

        from repro.provenance import read_decision_log
        by_cell = {}
        for log in logs:
            meta, records = read_decision_log(str(log))
            assert meta["benchmark"] == "db"
            by_cell[(meta["family"], meta["depth"])] = records
        assert ("fixed", 2) in by_cell
        _result, fresh = record_run("db", "fixed", 2)
        assert (final_decisions(by_cell[("fixed", 2)]).keys()
                == final_decisions(fresh.records).keys())
