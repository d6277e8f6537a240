"""Unit tests for the decision-provenance layer (records, recorder,
explain, diff)."""

from types import SimpleNamespace

import pytest

from repro.aos.controller import CompilationPlan
from repro.compiler.oracle import Decision
from repro.jvm.costs import to_centi
from repro.jvm.program import StaticCall
from repro.provenance import (CompilationRecord, DecisionRecord, EventKind,
                              EventRecord, ProvenanceRecorder, ReasonCode,
                              SCHEMA, diff_decisions, dump_jsonl,
                              explain_method, final_decisions, parse_jsonl,
                              read_decision_log, record_from_dict,
                              record_to_dict, render_diff, split_records,
                              write_decision_log)
from repro.provenance.diff import FLIP_REASON, FLIP_TARGETS, FLIP_VERDICT


def decision(caller="C.root", site=5, verdict="direct", reason="tiny",
             context=(("C.root", 5),), targets=("C.tiny",), **extra):
    defaults = dict(clock=100.0, root="C.root", version=1, caller=caller,
                    site=site, depth=0, site_kind="static",
                    selector=targets[0] if targets else "m",
                    verdict=verdict, reason=reason, context=tuple(context),
                    targets=tuple(targets))
    defaults.update(extra)
    return DecisionRecord(**defaults)


class TestRecords:
    def test_decision_roundtrip(self):
        record = decision(verdict="guarded", reason="profile",
                          coverage=0.9, guard_kind="class_test",
                          profile_weight=12.0, size_class="medium",
                          size_estimate=30, current_size=64)
        assert record_from_dict(record_to_dict(record)) == record

    def test_compilation_and_event_roundtrip(self):
        compilation = CompilationRecord(
            clock=5.0, method="C.m", version=2, reason="hot",
            rules_fingerprint=77, inlined_bytecodes=40, code_bytes=240,
            compile_cycles=4000.0, decisions=6)
        event = EventRecord(clock=6.0, kind="plan", subject="C.m",
                            detail={"reason": "hot", "version": 2})
        assert record_from_dict(record_to_dict(compilation)) == compilation
        assert record_from_dict(record_to_dict(event)) == event

    def test_unknown_type_tag_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"t": "mystery"})

    def test_forward_compat_ignores_unknown_fields(self):
        payload = record_to_dict(decision())
        payload["field_from_the_future"] = 42
        assert record_from_dict(payload) == decision()

    def test_jsonl_roundtrip_with_header(self):
        records = [decision(), EventRecord(1.0, "osr", "C.m", {})]
        text = dump_jsonl(records, {"label": "x", "total_cycles": 10.0})
        meta, parsed = parse_jsonl(text)
        assert meta["schema"] == SCHEMA
        assert meta["label"] == "x"
        assert parsed == records

    def test_schema_mismatch_rejected(self):
        text = dump_jsonl([], {}).replace(SCHEMA, "repro.provenance/v999")
        with pytest.raises(ValueError, match="schema"):
            parse_jsonl(text)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_jsonl("")

    def test_write_read_decision_log(self, tmp_path):
        path = str(tmp_path / "sub" / "run.decisions.jsonl")
        records = [decision()]
        count = write_decision_log(path, records, {"label": "r"})
        assert count == 1
        meta, parsed = read_decision_log(path)
        assert meta["label"] == "r"
        assert parsed == records

    def test_final_decisions_keeps_last_per_site(self):
        first = decision(version=1, verdict="refused", reason="no_profile",
                         targets=())
        second = decision(version=2, verdict="direct", reason="medium-hot")
        other = decision(site=9, context=(("C.root", 9),))
        finals = final_decisions([first, second, other])
        assert finals[first.site_key] is second
        assert len(finals) == 2

    def test_split_records_partitions_by_type(self):
        records = [decision(),
                   CompilationRecord(1.0, "C.m", 1, "hot", 0, 0, 0, 0.0, 0),
                   EventRecord(2.0, "osr", "C.m", {})]
        decisions, compilations, events = split_records(records)
        assert [len(decisions), len(compilations), len(events)] == [1, 1, 1]


def watching(recorder, clock=0.0):
    """``recorder`` attached to a stand-in for the machine it watches."""
    recorder.machine = SimpleNamespace(clock=to_centi(clock))
    return recorder


def compile_args(method_id="C.m", version=1, replaced=None):
    """A ``compile`` event's arguments: (plan, compiled, replaced)."""
    plan = CompilationPlan(method_id, None, version, 99, "hot")
    compiled = SimpleNamespace(version=version, inlined_bytecodes=10,
                               code_bytes=60, compile_cycles=1000.0)
    return plan, compiled, replaced


class TestRecorder:
    def test_decisions_inherit_open_compilation_version(self):
        # Each decision event carries its compilation's version; the
        # compile event that follows counts the decisions since the last.
        recorder = watching(ProvenanceRecorder(), clock=42.0)
        root = SimpleNamespace(id="C.m")
        recorder.decision(root, 3, StaticCall(1, "C.t"), (("C.m", 1),), 0,
                          12, Decision.direct(SimpleNamespace(id="C.t"),
                                              ReasonCode.TINY))
        recorder.compile(*compile_args(version=3))
        [record] = recorder.decisions
        assert record.version == 3
        assert record.clock == 42.0
        assert (record.site_kind, record.selector) == ("static", "C.t")
        assert record.reason == "tiny"
        assert record.targets == ("C.t",)
        [compilation] = recorder.compilations
        assert compilation.decisions == 1
        assert compilation.code_bytes == 60
        recorder.compile(*compile_args(version=4))
        assert recorder.compilations[1].decisions == 0

    def test_compile_replacing_code_records_an_eviction(self):
        recorder = watching(ProvenanceRecorder(), clock=7.0)
        old = SimpleNamespace(method=SimpleNamespace(id="C.m"), version=1,
                              code_bytes=48)
        recorder.compile(*compile_args(version=2, replaced=old))
        compilation, eviction = recorder.records
        assert isinstance(compilation, CompilationRecord)
        assert (eviction.kind, eviction.subject, eviction.clock) == (
            EventKind.EVICTION.value, "C.m", 7.0)
        assert eviction.detail == {"version": 1, "code_bytes": 48,
                                   "replaced_by": 2}

    def test_event_normalizes_kind(self):
        # Consumed events become records in the EventKind vocabulary.
        recorder = watching(ProvenanceRecorder())
        recorder.osr("C.m")
        recorder.plan_deferred("C.n", trigger="missing_edge", why="cooldown")
        osr, deferred = recorder.events
        assert (osr.kind, osr.subject, osr.detail) == (
            EventKind.OSR.value, "C.m", {})
        assert deferred.kind == EventKind.PLAN_DEFERRED.value
        assert deferred.detail == {"trigger": "missing_edge",
                                   "why": "cooldown"}

    def test_to_jsonl_includes_label(self):
        recorder = ProvenanceRecorder(label="bench/policy")
        meta, _records = parse_jsonl(recorder.to_jsonl({"scale": 0.1}))
        assert meta["label"] == "bench/policy"
        assert meta["scale"] == 0.1


class TestExplain:
    def test_unknown_method_lists_available(self):
        records = [CompilationRecord(1.0, "C.m", 1, "hot", 0, 0, 0, 0.0, 0)]
        with pytest.raises(ValueError, match="C.m"):
            explain_method(records, "C.nope")

    def test_renders_tree_indented_by_depth(self):
        records = [
            CompilationRecord(10.0, "C.m", 1, "hot", 0, 40, 240, 1e3, 2),
            decision(root="C.m", caller="C.m", site=1, depth=0,
                     version=1, context=(("C.m", 1),)),
            decision(root="C.m", caller="C.tiny", site=2, depth=1,
                     version=1, verdict="refused", reason="depth",
                     targets=(), context=(("C.tiny", 2), ("C.m", 1))),
        ]
        out = explain_method(records, "C.m")
        assert "compile v1 of C.m [hot]" in out
        assert "  @1 static" in out
        assert "    @2" in out  # depth-1 site indents one level deeper
        assert "refused [depth]" in out

    def test_orphan_version_renders_incomplete(self):
        records = [decision(root="C.m", version=7)]
        out = explain_method(records, "C.m")
        assert "v7 of C.m [incomplete]" in out


class TestDiff:
    def test_flip_classification(self):
        verdict_a = decision(verdict="direct", reason="tiny")
        verdict_b = decision(verdict="refused", reason="space", targets=())
        targets_a = decision(site=6, context=(("C.root", 6),),
                             verdict="guarded", reason="profile",
                             targets=("A.m",))
        targets_b = decision(site=6, context=(("C.root", 6),),
                             verdict="guarded", reason="profile",
                             targets=("A.m", "B.m"))
        reason_a = decision(site=7, context=(("C.root", 7),),
                            verdict="refused", reason="budget", targets=())
        reason_b = decision(site=7, context=(("C.root", 7),),
                            verdict="refused", reason="space", targets=())
        same = decision(site=8, context=(("C.root", 8),))
        only_a = decision(site=9, context=(("C.root", 9),))

        diff = diff_decisions(
            [verdict_a, targets_a, reason_a, same, only_a],
            [verdict_b, targets_b, reason_b, same])
        kinds = {flip.key[1]: flip.kind for flip in diff.flips}
        assert kinds == {5: FLIP_VERDICT, 6: FLIP_TARGETS, 7: FLIP_REASON}
        assert diff.unchanged == 1
        assert [r.site for r in diff.only_a] == [9]
        assert diff.only_b == []
        assert len(diff.verdict_flips) == 1
        assert not diff.is_identical

    def test_identical_runs(self):
        records = [decision()]
        diff = diff_decisions(records, records)
        assert diff.is_identical
        assert "identical" in render_diff(diff)

    def test_code_delta_uses_estimates(self):
        a = decision(verdict="refused", reason="budget", targets=(),
                     size_estimate=18)
        b = decision(verdict="direct", reason="small-hot",
                     size_estimate=18)
        diff = diff_decisions([a], [b])
        assert diff.flips[0].code_delta_bc == 18

    def test_render_includes_run_deltas_and_limit(self):
        flips_a = [decision(site=i, context=(("C.root", i),),
                            verdict="refused", reason="budget", targets=())
                   for i in range(4)]
        flips_b = [decision(site=i, context=(("C.root", i),),
                            verdict="direct", reason="small-hot")
                   for i in range(4)]
        diff = diff_decisions(
            flips_a, flips_b,
            meta_a={"label": "A", "total_cycles": 100.0,
                    "guard_tests": 5, "guard_misses": 1},
            meta_b={"label": "B", "total_cycles": 90.0,
                    "guard_tests": 0, "guard_misses": 0})
        out = render_diff(diff, limit=2)
        assert "total cycles" in out and "-10" in out
        assert "and 2 more" in out

    def test_uses_final_decision_per_site(self):
        early = decision(version=1, verdict="refused", reason="no_profile",
                         targets=())
        late = decision(version=2, verdict="direct", reason="medium-hot")
        diff = diff_decisions([early, late], [late])
        assert diff.is_identical
