"""Deopt planner strategy rules, runtime gating, and OSR soundness replay.

The planner keeps the speculation pass's contract: opt-in via the cost
model, injected (never imported) below the analysis layer, and
byte-identical golden decision logs when disabled.
"""

import os

import pytest

from repro.analysis.deopt import DeoptPlanner
from repro.analysis.soundness import check_osr_soundness
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.compiled_method import (PLAN_FULL_GUARD, PLAN_OSR_EXIT,
                                            PLAN_PREEXIST)
from repro.jvm.costs import DEFAULT_COSTS, DEOPT_STRATEGIES
from repro.jvm.errors import ConfigError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (Arg, Const, Local, New, Return, StaticCall,
                               VirtualCall, Work)
from repro.policies import make_policy
from repro.provenance import ProvenanceRecorder
from repro.workloads.builder import ProgramBuilder
from repro.workloads.hashmap_example import build as build_hashmap
from repro.workloads.spec import build_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "hashmap_fixed2.decisions.jsonl")

PLANNED = DEFAULT_COSTS.replace(deopt_planning_enabled=True,
                                deopt_strategy="planned")


def shapes_program():
    """Shape/Circle/Square/Exotic with App.use (preexistent receiver)
    and App.use_fresh (freshly allocated receiver)."""
    b = ProgramBuilder("deoptshapes")
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
    b.static_method("App", "use_fresh", [
        New(1, "Circle"),
        VirtualCall(1, "area", Local(1), dst=0), Return(Local(0))
    ], params=0, locals_=3)
    b.static_method("App", "main", [
        New(0, "Circle"), New(1, "Square"), New(2, "Exotic"),
        Return(Const(0)),
    ], locals_=5)
    b.entry("App.main")
    return b.build()


def _planner(program, loaded=(), costs=PLANNED):
    hierarchy = ClassHierarchy(program)
    for name in loaded:
        hierarchy.mark_loaded(name)
    return DeoptPlanner(program, hierarchy, costs)


class TestPlanSite:
    def test_osr_exit_dimension_forces_cheap_exit(self):
        program = shapes_program()
        planner = _planner(program, costs=PLANNED.replace(
            deopt_strategy="osr-exit"))
        stmt = program.method("App.use").body[0]
        plan = planner.plan_site(
            stmt, (("App.use", 0),), [program.method("Circle.area")],
            coverage=0.0)
        assert plan.kind == PLAN_OSR_EXIT

    def test_guard_free_when_speculation_elides(self):
        # No loaded escape, preexistent receiver: invalidation alone
        # protects every entry, so neither guard nor exit is needed.
        program = shapes_program()
        planner = _planner(program)
        stmt = program.method("App.use").body[0]
        plan = planner.plan_site(
            stmt, (("App.use", 0),), [program.method("Circle.area")],
            loaded_sole=True)
        assert plan.kind == PLAN_PREEXIST

    def test_full_guard_when_fresh_receiver_and_exits_expensive(self):
        # Fresh receiver blocks guard-free; low coverage makes the
        # expected exit premium exceed one guard test; k-CFA cannot
        # prove the site monomorphic (it is unreachable from entry).
        program = shapes_program()
        planner = _planner(program)
        stmt = program.method("App.use_fresh").body[1]
        circle = program.method("Circle.area")
        plan = planner.plan_site(stmt, (("App.use_fresh", 1),), [circle],
                                 coverage=0.0)
        assert plan.kind == PLAN_FULL_GUARD
        assert not planner.context_monomorphic(stmt.site,
                                               (("App.use_fresh", 1),))
        exit_plan = planner.plan_site(stmt, (("App.use_fresh", 1),),
                                      [circle], coverage=1.0)
        assert exit_plan.kind == PLAN_OSR_EXIT
        assert exit_plan.live == frozenset({1})  # the receiver maps out

    def test_full_coverage_prefers_cheap_exit(self):
        # Loaded escape blocks guard-free; full profile coverage makes
        # the expected exit cost zero, i.e. cheaper than any guard.
        program = shapes_program()
        planner = _planner(program, loaded=("Circle",))
        stmt = program.method("App.use").body[0]
        circle = program.method("Circle.area")
        low = planner.plan_site(stmt, (("App.use", 0),), [circle],
                                coverage=0.0)
        high = planner.plan_site(stmt, (("App.use", 0),), [circle],
                                 coverage=1.0)
        assert low.kind == PLAN_FULL_GUARD
        assert high.kind == PLAN_OSR_EXIT

    def test_context_monomorphic_prefers_cheap_exit(self):
        # Only Circle is ever allocated on the path into App.use, so
        # 1-CFA proves the site monomorphic under the inline chain's
        # call string and exits are predicted never-taken -- cheap-exit
        # wins even at zero coverage with multiple guarded targets.
        b = ProgramBuilder("mono")
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
        b.static_method("App", "main", [
            New(0, "Circle"),
            StaticCall(10, "App.use", args=(Local(0),), dst=1),
            Return(Local(1)),
        ], locals_=4)
        b.entry("App.main")
        program = b.build()
        planner = _planner(program)
        stmt = program.method("App.use").body[0]
        context = (("App.use", 0), ("App.main", 10))
        plan = planner.plan_site(
            stmt, context,
            [program.method("Circle.area"), program.method("Square.area")],
            coverage=0.0)
        assert planner.context_monomorphic(stmt.site, context)
        assert plan.kind == PLAN_OSR_EXIT

    def test_unknown_strategy_rejected(self):
        program = shapes_program()
        with pytest.raises(ConfigError):
            _planner(program, costs=PLANNED.replace(deopt_strategy="bogus"))


class TestStrategyVocabulary:
    def test_cost_model_dimension_vocabulary_is_closed(self):
        assert DEOPT_STRATEGIES == ("guard", "osr-exit", "planned")
        assert DEFAULT_COSTS.deopt_strategy in DEOPT_STRATEGIES


class TestGating:
    def test_deopt_planning_is_off_by_default(self):
        """Deopt planning is opt-in, never ambient: stock runs never
        construct the planner, charge no map-in costs, and keep every
        guard chain exactly as compiled."""
        assert DEFAULT_COSTS.deopt_planning_enabled is False
        assert DEFAULT_COSTS.deopt_strategy == "guard"
        built = build_hashmap(iterations=4000)
        runtime = AdaptiveRuntime(built.program, make_policy("fixed", 2))
        assert runtime.planner is None
        assert runtime.machine.osr_liveness is None

    def test_disabled_run_matches_golden_byte_for_byte(self):
        costs = DEFAULT_COSTS.replace(deopt_planning_enabled=False)
        built = build_hashmap(iterations=4000)
        recorder = ProvenanceRecorder(label="golden/hashmap/fixed2")
        AdaptiveRuntime(built.program, make_policy("fixed", 2, costs=costs),
                        costs=costs, provenance=recorder).run()
        with open(GOLDEN_PATH) as handle:
            assert recorder.to_jsonl() == handle.read()

    def test_guard_dimension_charges_map_in_only(self):
        # Under the "guard" dimension the planner supplies the OSR
        # map-in liveness index and keeps every guard: the clean
        # like-for-like baseline for planned-vs-guard deltas.
        costs = DEFAULT_COSTS.replace(deopt_planning_enabled=True,
                                      deopt_strategy="guard")
        built = build_hashmap(iterations=4000)
        runtime = AdaptiveRuntime(built.program,
                                  make_policy("fixed", 2, costs=costs),
                                  costs=costs)
        assert runtime.planner is not None
        assert runtime.machine.osr_liveness is not None
        result = runtime.run()
        assert result.deopt_entries == 0 and result.deopt_exits == 0


class TestStrategiesEndToEnd:
    def test_osr_exit_strategy_eliminates_guard_tests(self):
        # mtrt's dispatch sites miss often under guards; the osr-exit
        # strategy trades every guard test for deopt entries/exits.
        program = build_benchmark("mtrt", scale=0.05).program
        results = {}
        for strategy in ("guard", "osr-exit"):
            costs = DEFAULT_COSTS.replace(deopt_planning_enabled=True,
                                          deopt_strategy=strategy)
            results[strategy] = AdaptiveRuntime(
                program, make_policy("cins", costs=costs),
                costs=costs).run()
        guard, exits = results["guard"], results["osr-exit"]
        assert guard.guard_tests > 0 and guard.deopt_entries == 0
        assert exits.guard_tests == 0
        assert exits.deopt_entries > 0
        assert exits.deopt_exits > 0

    def test_planned_strategy_marks_decisions(self):
        costs = DEFAULT_COSTS.replace(deopt_planning_enabled=True,
                                      deopt_strategy="osr-exit")
        program = build_benchmark("mtrt", scale=0.05).program
        runtime = AdaptiveRuntime(program, make_policy("cins", costs=costs),
                                  costs=costs)
        runtime.run()
        exit_sites = [
            decision
            for compiled in runtime.code_cache.opt_methods()
            for node in compiled.root.walk()
            for decision in node.decisions.values()
            if decision.plan is not None
            and decision.plan.kind == PLAN_OSR_EXIT
        ]
        assert exit_sites


class TestOSRSoundnessReplay:
    def test_replay_clean_with_exits_taken(self):
        # mtrt takes hundreds of deopt exits at this scale: the replay
        # must watch every transition and find the static live sets
        # covering every subsequent read.
        program = build_benchmark("mtrt", scale=0.05).program
        report = check_osr_soundness(program)
        assert report.ok
        assert report.result.deopt_exits > 0
        assert report.reads_checked > 0
        assert report.violations == ()

    def test_replay_clean_on_loop_transfer(self):
        program = build_benchmark("jess", scale=0.1).program
        report = check_osr_soundness(program)
        assert report.ok
        assert report.result.osr_transfers > 0

    def test_report_renders(self):
        program = build_benchmark("mtrt", scale=0.05).program
        report = check_osr_soundness(program)
        text = report.render()
        assert "osr soundness" in text
        assert "live sets cover every read" in text
