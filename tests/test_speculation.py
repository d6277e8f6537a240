"""End-to-end tests for speculation-driven guard elision.

The contract under test, layer by layer: the oracle gives a decision an
exhaustive guard plan, the compiler installs it so the last option runs
untested, the machine enters untested options at zero guard cost,
the elision replay proves no elided guard would ever have failed, and
set-valued CHA dependencies invalidate the compiled code exactly when a
class load escapes the proven-exhaustive target set.
"""

import dataclasses

import pytest

from repro.analysis.soundness import check_elision_soundness
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.compiled_method import (GUARDED, PLAN_EXHAUSTIVE,
                                            GuardPlan)
from repro.compiler.opt_compiler import OptCompiler
from repro.compiler.oracle import Decision
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.program import (Arg, Const, Local, Return, VirtualCall,
                               Work)
from repro.policies import make_policy
from repro.provenance import ProvenanceRecorder
from repro.provenance.diff import diff_decisions
from repro.provenance.reasons import GUARD_CLASS_TEST
from repro.workloads.builder import ProgramBuilder
from repro.workloads.hashmap_example import build as build_hashmap
from repro.workloads.spec import build_benchmark


def _run(name, scale, speculation, sinks=()):
    built = build_benchmark(name, scale=scale)
    costs = DEFAULT_COSTS.replace(speculation_enabled=speculation)
    runtime = AdaptiveRuntime(built.program,
                              make_policy("cins", costs=costs),
                              costs=costs, sinks=sinks)
    return runtime.run()


class TestGuardCycleReduction:
    def test_mtrt_guard_tests_drop_with_elision(self):
        off = _run("mtrt", 0.1, speculation=False)
        on = _run("mtrt", 0.1, speculation=True)
        assert off.elided_entries == 0
        assert on.elided_entries > 0
        assert on.guard_tests < off.guard_tests
        # Every elided entry saved exactly one guard-test charge at its
        # site; the aggregate drop reflects those zero-cost entries.
        assert off.guard_tests - on.guard_tests > 100

    def test_db_elision_soundly_refused(self):
        # db's guarded site keeps a live fallthrough (more loaded targets
        # than guarded options), so the exhaustive elision must refuse
        # and the guard-cycle profile must be untouched.
        off = _run("db", 0.3, speculation=False)
        on = _run("db", 0.3, speculation=True)
        assert on.elided_entries == 0
        assert on.guard_tests == off.guard_tests
        assert on.guard_misses == off.guard_misses
        assert on.total_cycles == off.total_cycles


class TestElisionReplay:
    @pytest.mark.parametrize("name,scale", [("jess", 0.3), ("mtrt", 0.1),
                                            ("compress", 0.1), ("db", 0.3)])
    def test_no_elided_guard_would_have_failed(self, name, scale):
        report = check_elision_soundness(
            build_benchmark(name, scale=scale).program)
        assert report.ok, report.violations
        assert report.result.guard_tests >= 0

    def test_replay_forces_speculation_on(self):
        # The checker runs with speculation forced on even from default
        # costs, so it actually exercises elided entries where they fire.
        report = check_elision_soundness(
            build_benchmark("mtrt", scale=0.1).program)
        assert report.result.elided_entries > 0
        assert report.ok


class TestReasonOnlyContract:
    def test_hashmap_decisions_identical_with_speculation(self):
        """On the golden workload the pass changes no decision at all:
        no verdict flips, no target changes, not even a reason change."""
        def decisions(speculation):
            built = build_hashmap(iterations=4000)
            costs = DEFAULT_COSTS.replace(speculation_enabled=speculation)
            rec = ProvenanceRecorder()
            AdaptiveRuntime(built.program,
                            make_policy("fixed", 2, costs=costs),
                            costs=costs, sinks=[rec]).run()
            return rec.records

        diff = diff_decisions(decisions(False), decisions(True))
        assert diff.is_identical

    def test_db_decisions_identical_with_speculation(self):
        rec_off, rec_on = ProvenanceRecorder(), ProvenanceRecorder()
        _run("db", 0.3, speculation=False, sinks=[rec_off])
        _run("db", 0.3, speculation=True, sinks=[rec_on])
        diff = diff_decisions(rec_off.records, rec_on.records)
        assert not diff.verdict_flips
        assert diff.is_identical


class TestInertUnderPlanning:
    """With deopt planning on, the ``osr-exit`` and ``planned`` strategies
    plan every guarded site without the speculation analysis, so
    ``speculation_enabled`` changes no simulated output."""

    @pytest.mark.parametrize("strategy", ["osr-exit", "planned"])
    @pytest.mark.parametrize("workload", ["hashmap", "mtrt", "compress"])
    def test_speculation_changes_no_run_result_field(self, workload,
                                                     strategy):
        def result(speculation):
            if workload == "hashmap":
                program = build_hashmap(iterations=4000).program
                family, depth = "fixed", 2
            else:
                program = build_benchmark(workload, scale=0.1).program
                family, depth = "cins", 1
            costs = DEFAULT_COSTS.replace(speculation_enabled=speculation,
                                          deopt_planning_enabled=True,
                                          deopt_strategy=strategy)
            return AdaptiveRuntime(program,
                                   make_policy(family, depth, costs),
                                   costs=costs).run()

        assert dataclasses.asdict(result(True)) == \
            dataclasses.asdict(result(False))


class _StubOracle:
    """Guards the one virtual site with an exhaustive last test."""

    def __init__(self, targets):
        self._targets = targets

    def decide(self, stmt, comp_context, depth, current_size, root):
        if stmt.kind != VirtualCall.kind:
            return Decision.no("no_profile")
        return Decision.guarded_inline(self._targets, reason="profile",
                                       guard_kind=GUARD_CLASS_TEST,
                                       plan=GuardPlan(PLAN_EXHAUSTIVE))


class TestCompilerMarksLastOption:
    def _program(self):
        b = ProgramBuilder("exh")
        b.cls("Shape")
        b.cls("Circle", superclass="Shape")
        b.cls("Square", superclass="Shape")
        b.cls("App")
        b.method("Shape", "area", [Work(4), Return(Const(0))], params=1)
        b.method("Circle", "area", [Work(4), Return(Const(1))], params=1)
        b.method("Square", "area", [Work(4), Return(Const(2))], params=1)
        b.static_method("App", "use", [
            VirtualCall(0, "area", Arg(0), dst=0), Return(Local(0))
        ], params=1, locals_=2)
        b.static_method("App", "main", [Return(Const(0))])
        b.entry("App.main")
        return b.build()

    def test_only_last_option_elided_exhaustive(self):
        program = self._program()
        targets = [program.method("Circle.area"),
                   program.method("Square.area")]
        compiler = OptCompiler(DEFAULT_COSTS)
        compiled = compiler.compile(program.method("App.use"),
                                    _StubOracle(targets))
        decision = compiled.root.decisions[0]
        assert decision.kind == GUARDED
        assert decision.plan.kind == PLAN_EXHAUSTIVE
        first, last = decision.options
        assert decision.untested() == [(last, PLAN_EXHAUSTIVE)]
        # Only the first option's test is compiled in; the last is gone.
        assert compiled.guard_count() == 1
        assert compiled.elided_guard_count() == 1
        assert compiled.elisions() == [
            ("App.use", 0, PLAN_EXHAUSTIVE, "Square.area")]


def shapes_program():
    b = ProgramBuilder("setdeps")
    b.cls("Shape")
    b.cls("Circle", superclass="Shape")
    b.cls("Square", superclass="Shape")
    b.cls("Exotic", superclass="Shape")
    b.cls("App")
    b.method("Shape", "area", [Work(6), Return(Const(0))], params=1)
    b.method("Circle", "area", [Work(6), Return(Const(1))], params=1)
    b.method("Square", "area", [Work(6), Return(Const(2))], params=1)
    b.method("Exotic", "area", [Work(6), Return(Const(3))], params=1)
    b.static_method("App", "use", [
        VirtualCall(0, "area", Arg(0), dst=0), Return(Local(0))
    ], params=1, locals_=2)
    b.static_method("App", "main", [Return(Const(0))])
    b.entry("App.main")
    return b.build()


class TestSetValuedDependencies:
    ROOT = "App.use"

    def _runtime(self):
        runtime = AdaptiveRuntime(shapes_program(), make_policy("cins", 1))
        runtime.hierarchy.mark_loaded("Circle")
        runtime.hierarchy.mark_loaded("Square")
        runtime.database.record_cha_dependency(
            self.ROOT, "area", frozenset({"Circle.area", "Square.area"}))
        from repro.compiler.compiled_method import CompiledMethod, InlineNode
        root = runtime.program.method(self.ROOT)
        runtime.code_cache.install(CompiledMethod(
            InlineNode(root), inlined_bytecodes=root.bytecodes,
            code_bytes=64, compile_cycles=100, version=1))
        return runtime

    def test_load_inside_set_does_not_invalidate(self):
        runtime = self._runtime()
        # Shape itself resolves to Shape.area -- outside the set -- so
        # use a reload-style no-op: loading nothing new keeps the code.
        runtime._on_class_load("Square")
        assert runtime.code_cache.invalidated_compilations == 0
        assert self.ROOT in runtime.code_cache.installed

    def test_load_escaping_set_invalidates(self):
        runtime = self._runtime()
        runtime.hierarchy.mark_loaded("Exotic")
        runtime._on_class_load("Exotic")
        assert runtime.code_cache.invalidated_compilations == 1
        assert self.ROOT not in runtime.code_cache.installed
        assert self.ROOT not in runtime.database.cha_dependencies()

    def test_rerecording_intersects_allowed_sets(self):
        from repro.aos.database import AOSDatabase
        db = AOSDatabase()
        db.record_cha_dependency("R", "area",
                                 frozenset({"Circle.area", "Square.area"}))
        db.record_cha_dependency("R", "area", "Circle.area")
        # Both assumptions must keep holding: the intersection survives,
        # and singletons stay plain strings.
        assert db.cha_dependencies()["R"]["area"] == "Circle.area"

    def test_singleton_dependency_keeps_legacy_semantics(self):
        runtime = AdaptiveRuntime(shapes_program(), make_policy("cins", 1))
        runtime.hierarchy.mark_loaded("Circle")
        runtime.database.record_cha_dependency(self.ROOT, "area",
                                               "Circle.area")
        deps = runtime.database.cha_dependencies()[self.ROOT]
        assert deps["area"] == "Circle.area"
