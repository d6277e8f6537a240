"""Tests for the AOS event log and the inline-tree pretty printer."""

from types import SimpleNamespace

import pytest

from repro.aos.controller import CompilationPlan
from repro.aos.event_log import EventLog
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.tree_printer import render_code_cache, render_inline_tree
from repro.jvm.costs import to_centi
from repro.policies import make_policy
from repro.profiles.trace import InlineRule, TraceKey
from repro.workloads import lazy_loading
from repro.workloads.hashmap_example import build as build_hashmap


def compile_args(method_id, version=1, reason="hot", inlined=40):
    """A ``compile`` event's arguments: (plan, compiled, replaced)."""
    plan = CompilationPlan(method_id, None, version, 0, reason)
    return plan, SimpleNamespace(inlined_bytecodes=inlined), None


def rule(callee, caller, site):
    return InlineRule(TraceKey(callee, ((caller, site),)), 1.0, 0.1)


def logged(program, policy):
    """A runtime for ``program`` with an :class:`EventLog` attached."""
    log = EventLog()
    return AdaptiveRuntime(program, policy, sinks=[log]), log


class TestEventLogUnit:
    @pytest.fixture
    def log(self):
        """A log watching a stand-in machine."""
        log = EventLog()
        log.machine = SimpleNamespace(clock=0)
        return log

    def test_record_and_query(self, log):
        for clock, method_id in ((100.0, "C.m"), (200.0, "C.n")):
            log.machine.clock = to_centi(clock)
            log.compile(*compile_args(method_id))
        log.machine.clock = to_centi(300.0)
        log.osr("C.m")
        assert len(log) == 3
        assert [e.subject for e in log.of_kind("compile")] == ["C.m", "C.n"]
        assert [(e.clock, e.kind) for e in log.events] == [
            (100.0, "compile"), (200.0, "compile"), (300.0, "osr")]

    def test_counts(self, log):
        log.compile(*compile_args("a"))
        log.compile(*compile_args("b"))
        counts = log.counts()
        assert counts["compile"] == 2
        assert counts["decay"] == 0

    def test_rendering(self, log):
        log.compile(*compile_args("C.m"))
        timeline = log.render_timeline()
        assert "C.m" in timeline and "version=v1 reason=hot" in timeline
        summary = log.render_summary()
        assert "compile" in summary

    def test_structured_detail_accepted_and_flattened(self, log):
        log.compile(*compile_args("C.m"))
        [event] = log.events
        assert event.detail == {"version": "v1", "reason": "hot",
                                "inlined_bc": 40}
        assert "version=v1 reason=hot inlined_bc=40" in log.render_timeline()

    def test_rule_changes_logged_in_sorted_key_order(self, log):
        log.rules([rule("B.f", "A.m", 2), rule("A.f", "A.m", 1)])
        log.rules([rule("C.f", "A.m", 3), rule("A.f", "A.m", 1)])
        assert [(e.kind, e.subject) for e in log.events] == [
            ("rule_added", "A.m@1=>A.f"), ("rule_added", "A.m@2=>B.f"),
            ("rule_added", "A.m@3=>C.f"), ("rule_retired", "A.m@2=>B.f")]

    def test_invalidate_osr_and_decay_details(self, log):
        removed = SimpleNamespace(method=SimpleNamespace(id="C.m"))
        log.invalidate(removed, "area", "Square")
        log.osr("C.n")
        log.decay(1234.4)
        assert [(e.subject, e.detail) for e in log.events] == [
            ("C.m", {"selector": "area"}),
            ("C.n", {"trigger": "backedge threshold"}),
            ("dcg", {"total": "1234"})]


class TestEventLogIntegration:
    @pytest.fixture(scope="class")
    def logged_run(self):
        built = build_hashmap(iterations=4000)
        runtime, log = logged(built.program, make_policy("fixed", 2))
        result = runtime.run()
        return runtime, log, result

    def test_compiles_logged(self, logged_run):
        runtime, log, result = logged_run
        assert len(log.of_kind("compile")) == result.opt_compilations

    def test_rules_logged(self, logged_run):
        _runtime, log, result = logged_run
        added = log.of_kind("rule_added")
        assert len(added) >= result.rule_count

    def test_logging_is_cycle_neutral(self):
        built = build_hashmap(iterations=2000)
        plain = AdaptiveRuntime(built.program, make_policy("fixed", 2))
        plain_result = plain.run()

        built2 = build_hashmap(iterations=2000)
        runtime, _log = logged(built2.program, make_policy("fixed", 2))
        logged_result = runtime.run()
        assert logged_result.total_cycles == plain_result.total_cycles

    def test_invalidation_logged(self):
        built = lazy_loading.build(iterations=15_000)
        runtime, log = logged(built.program, make_policy("cins", 1))
        result = runtime.run()
        assert len(log.of_kind("invalidate")) == result.invalidations
        assert result.invalidations >= 1

    def test_events_chronological(self, logged_run):
        _runtime, log, _result = logged_run
        clocks = [e.clock for e in log.events]
        assert clocks == sorted(clocks)


class TestTreePrinter:
    @pytest.fixture(scope="class")
    def runtime(self):
        built = build_hashmap(iterations=4000)
        rt = AdaptiveRuntime(built.program, make_policy("fixed", 2))
        rt.run()
        return rt

    def test_render_single_tree(self, runtime):
        compiled = runtime.code_cache.opt_methods()[0]
        out = render_inline_tree(compiled)
        assert compiled.method.id in out
        assert "bc inlined" in out

    def test_guarded_sites_show_fallback(self, runtime):
        out = render_code_cache(runtime.code_cache, top=10)
        if "guarded" in out:
            assert "fallback -> virtual dispatch" in out

    def test_render_cache_orders_by_size(self, runtime):
        out = render_code_cache(runtime.code_cache, top=3)
        assert out.count("bc inlined") <= 3

    def test_empty_cache(self):
        from repro.compiler.code_cache import CodeCache
        from repro.jvm.costs import CostModel
        out = render_code_cache(CodeCache(CostModel()))
        assert "no optimized methods" in out
