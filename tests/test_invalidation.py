"""Tests for dynamic class loading, loaded-world CHA, and invalidation."""

import pytest

from repro.aos.event_log import EventLog
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.compiled_method import DIRECT, GUARDED
from repro.compiler.oracle import InlineOracle
from repro.jvm.costs import CostModel
from repro.jvm.errors import ProgramError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (Arg, Const, Local, MethodDef, New, Return,
                               VirtualCall, Work)
from repro.policies import make_policy
from repro.workloads import lazy_loading
from repro.workloads.builder import ProgramBuilder


def shapes_program():
    b = ProgramBuilder("shapes")
    b.cls("Shape")
    b.cls("Circle", superclass="Shape")
    b.cls("Square", superclass="Shape")
    b.cls("App")
    b.method("Shape", "area", [Work(6), Return(Const(0))], params=1)
    b.method("Circle", "area", [Work(6), Return(Const(1))], params=1)
    b.method("Square", "area", [Work(6), Return(Const(2))], params=1)
    b.static_method("App", "use", [
        VirtualCall(0, "area", Arg(0), dst=0), Return(Local(0))
    ], params=1, locals_=2)
    b.static_method("App", "use_fresh", [
        New(1, "Circle"),
        VirtualCall(1, "area", Local(1), dst=0), Return(Local(0))
    ], params=0, locals_=3)
    b.static_method("App", "main", [Return(Const(0))])
    b.entry("App.main")
    return b.build()


class TestLoadedWorldCHA:
    def test_loading_tracked(self):
        h = ClassHierarchy(shapes_program())
        assert not h.is_loaded("Circle")
        assert h.mark_loaded("Circle")
        assert h.is_loaded("Circle")
        assert not h.mark_loaded("Circle")  # second load is a no-op
        assert h.loaded_count == 1

    def test_unknown_class_rejected(self):
        h = ClassHierarchy(shapes_program())
        with pytest.raises(ProgramError):
            h.mark_loaded("Ghost")

    def test_loaded_targets_grow_with_loading(self):
        h = ClassHierarchy(shapes_program())
        assert h.loaded_targets("area") == frozenset()
        h.mark_loaded("Circle")
        assert h.loaded_targets("area") == frozenset({"Circle.area"})
        h.mark_loaded("Square")
        assert h.loaded_targets("area") == \
            frozenset({"Circle.area", "Square.area"})

    def test_sole_loaded_target(self):
        h = ClassHierarchy(shapes_program())
        h.mark_loaded("Circle")
        assert h.sole_loaded_target("area").id == "Circle.area"
        h.mark_loaded("Square")
        assert h.sole_loaded_target("area") is None

    def test_inherited_target_counted(self):
        h = ClassHierarchy(shapes_program())
        h.mark_loaded("Shape")
        assert h.loaded_targets("area") == frozenset({"Shape.area"})


class TestPreExistenceInOracle:
    def _oracle(self, program, hierarchy, deps):
        costs = CostModel()
        return InlineOracle(
            program, hierarchy, costs,
            on_cha_dependency=lambda *a: deps.append(a))

    def test_preexisting_receiver_direct_with_dependency(self):
        program = shapes_program()
        hierarchy = ClassHierarchy(program)
        hierarchy.mark_loaded("Circle")
        deps = []
        oracle = self._oracle(program, hierarchy, deps)
        root = program.method("App.use")
        stmt = root.body[0]
        decision = oracle.decide(stmt, (("App.use", 0),), 0, 20, root)
        assert decision.inline and not decision.guarded
        assert deps == [("App.use", "area", "Circle.area")]

    def test_non_preexisting_receiver_guarded(self):
        program = shapes_program()
        hierarchy = ClassHierarchy(program)
        hierarchy.mark_loaded("Circle")
        deps = []
        oracle = self._oracle(program, hierarchy, deps)
        root = program.method("App.use_fresh")
        stmt = root.body[1]  # receiver comes from a New, not an Arg
        decision = oracle.decide(stmt, (("App.use_fresh", 1),), 0, 20, root)
        assert decision.inline and decision.guarded
        assert deps == []  # the guard protects; no dependency needed

    def test_two_loaded_targets_fall_back_to_profile(self):
        program = shapes_program()
        hierarchy = ClassHierarchy(program)
        hierarchy.mark_loaded("Circle")
        hierarchy.mark_loaded("Square")
        deps = []
        oracle = self._oracle(program, hierarchy, deps)
        root = program.method("App.use")
        decision = oracle.decide(root.body[0], (("App.use", 0),), 0, 20,
                                 root)
        assert not decision.inline
        assert decision.reason == "no_profile"


def two_selector_program():
    """A hierarchy with two independently-breakable selectors."""
    b = ProgramBuilder("twosel")
    b.cls("Shape")
    b.cls("Circle", superclass="Shape")
    b.cls("Square", superclass="Shape")
    b.cls("Fancy", superclass="Shape")
    b.cls("App")
    b.method("Shape", "area", [Work(6), Return(Const(0))], params=1)
    b.method("Circle", "area", [Work(6), Return(Const(1))], params=1)
    b.method("Square", "area", [Work(6), Return(Const(2))], params=1)
    b.method("Shape", "name", [Work(4), Return(Const(10))], params=1)
    b.method("Fancy", "name", [Work(4), Return(Const(11))], params=1)
    b.static_method("App", "use", [
        VirtualCall(0, "area", Arg(0), dst=0),
        VirtualCall(1, "name", Arg(0), dst=1),
        Return(Local(0)),
    ], params=1, locals_=2)
    b.static_method("App", "main", [Return(Const(0))])
    b.entry("App.main")
    return b.build()


class TestDependenciesSurviveFailedInvalidation:
    """Regression: a class load whose invalidation found no installed
    code used to clear the root's dependency records anyway, so a later
    class load could never invalidate that method."""

    ROOT = "App.use"

    def _runtime(self):
        runtime = AdaptiveRuntime(two_selector_program(),
                                  make_policy("cins", 1))
        runtime.hierarchy.mark_loaded("Circle")
        # The optimizing compiler devirtualized both selectors against
        # the loaded world and recorded the dependencies...
        runtime.database.record_cha_dependency(self.ROOT, "area",
                                               "Circle.area")
        runtime.database.record_cha_dependency(self.ROOT, "name",
                                               "Shape.name")
        return runtime

    def _install_opt_code(self, runtime):
        from repro.compiler.compiled_method import CompiledMethod, InlineNode
        root = runtime.program.method(self.ROOT)
        runtime.code_cache.install(CompiledMethod(
            InlineNode(root), inlined_bytecodes=root.bytecodes,
            code_bytes=64, compile_cycles=100, version=1))

    def test_two_class_loads_both_get_their_invalidation(self):
        runtime = self._runtime()
        # ...but the compiled code is not installed yet (the compile is
        # still in flight) when Square breaks the "area" devirtualization.
        runtime.hierarchy.mark_loaded("Square")
        runtime._on_class_load("Square")
        assert runtime.code_cache.invalidated_compilations == 0
        # The failed invalidation must not have dropped the records: the
        # "name" dependency is still being tracked.
        deps = runtime.database.cha_dependencies().get(self.ROOT, {})
        assert deps.get("name") == "Shape.name"

        # The compile lands; then a second class load breaks "name".
        self._install_opt_code(runtime)
        runtime.hierarchy.mark_loaded("Fancy")
        runtime._on_class_load("Fancy")
        assert runtime.code_cache.invalidated_compilations == 1
        assert self.ROOT not in runtime.code_cache.installed
        assert self.ROOT not in runtime.database.cha_dependencies()

    def test_successful_invalidation_rearms_osr(self):
        runtime = self._runtime()
        self._install_opt_code(runtime)
        # The method had requested OSR while at baseline earlier.
        runtime.machine._osr_notified.add(self.ROOT)
        runtime.hierarchy.mark_loaded("Square")
        runtime._on_class_load("Square")
        assert runtime.code_cache.invalidated_compilations == 1
        # Deoptimized back to baseline: it may request OSR again.
        assert self.ROOT not in runtime.machine._osr_notified


class TestEndToEndInvalidation:
    @pytest.fixture(scope="class")
    def run(self):
        built = lazy_loading.build(iterations=20_000)
        log = EventLog()
        runtime = AdaptiveRuntime(built.program, make_policy("cins", 1),
                                  sinks=[log])
        result = runtime.run()
        return built, runtime, result, log.of_kind("invalidate")

    def test_invalidation_happened(self, run):
        _built, runtime, result, invalidations = run
        assert result.invalidations >= 1
        assert runtime.code_cache.invalidated_compilations >= 1
        assert len(invalidations) == result.invalidations

    def test_invalidated_method_recompiled(self, run):
        built, runtime, _result, invalidations = run
        invalidated = {event.subject for event in invalidations}
        assert invalidated  # something was devirtualized then broken
        # The fixture's event log also records every compile.
        compiles = runtime.machine.events.of_kind("compile")
        for root_id in invalidated:
            # Compiled at least twice: before and after the class load.
            assert sum(event.subject == root_id for event in compiles) >= 2

    def test_final_code_handles_both_classes(self, run):
        built, runtime, result, _invalidations = run
        # After re-optimization the dispatch is guarded or profile-driven;
        # execution completed correctly either way.
        assert result.return_value == 0

    def test_invalidation_clock_matches_load_point(self, run):
        built, runtime, _result, invalidations = run
        clock = invalidations[0].clock
        # The class loads at ~load_at/iterations of the app run; just
        # check it happened strictly inside the run.
        assert 0 < clock < runtime.machine.clock

    def test_no_invalidation_without_lazy_class(self):
        built = lazy_loading.build(iterations=6_000, load_fraction=2.0)
        runtime = AdaptiveRuntime(built.program, make_policy("cins", 1))
        result = runtime.run()  # Square never loads
        assert result.invalidations == 0
