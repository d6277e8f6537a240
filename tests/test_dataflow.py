"""Unit tests for the speculation dataflow framework and its clients."""

from repro.analysis.dataflow import (ACTION_ELIDE, ACTION_GUARD,
                                     ALWAYS_PRE, AvailableGuardAnalysis,
                                     NOT_PRE,
                                     PreexistenceAnalysis,
                                     SpeculationAnalysis, join_pre,
                                     static_speculation_summary)
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (Arg, Const, If, Let, Local, Loop, New,
                               NewPool, Pick, Return, VirtualCall, Work)
from repro.workloads.builder import ProgramBuilder


def shapes_program(extra_main=()):
    """Shape/Circle/Square/Exotic, with allocation churn for the cones."""
    b = ProgramBuilder("dfshapes")
    b.cls("Shape")
    b.cls("Circle", superclass="Shape")
    b.cls("Square", superclass="Shape")
    b.cls("Exotic", superclass="Shape")
    b.cls("Other")  # unrelated churn: dilutes the area cones' risk share
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
    # Conduit: a static call forwarding its own parameter as receiver.
    b.static_method("App", "conduit", [
        VirtualCall(2, "area", Arg(0), dst=0), Return(Local(0))
    ], params=1, locals_=2)
    b.static_method("App", "main", [
        New(0, "Circle"),
        New(1, "Square"),
        New(2, "Exotic"),
        Loop(Const(3), 4, [New(3, "Other")]),
        *extra_main,
        Return(Const(0)),
    ], locals_=5)
    b.entry("App.main")
    return b.build()


class TestJoinPre:
    def test_none_absorbs(self):
        assert join_pre(NOT_PRE, ALWAYS_PRE) is None
        assert join_pre(frozenset({1}), NOT_PRE) is None

    def test_sets_union(self):
        assert join_pre(frozenset({0}), frozenset({1})) == frozenset({0, 1})
        assert join_pre(ALWAYS_PRE, ALWAYS_PRE) == ALWAYS_PRE


def _analyze_pre(body, params=2, locals_=4):
    b = ProgramBuilder("pre")
    b.cls("C")
    b.method("C", "ping", [Work(1), Return(Const(0))], params=1)
    b.cls("M")
    b.static_method("M", "m", list(body) + [Return(Const(0))],
                    params=params, locals_=locals_)
    b.static_method("M", "main", [Return(Const(0))])
    b.entry("M.main")
    program = b.build()
    analysis = PreexistenceAnalysis()
    analysis.analyze(program.method("M.m"))
    return analysis


class TestPreexistenceFacts:
    def test_arg_receiver_depends_on_parameter(self):
        analysis = _analyze_pre([VirtualCall(0, "ping", Arg(1), dst=0)])
        assert analysis.call_facts[0].receiver == frozenset({1})

    def test_new_receiver_not_preexistent(self):
        analysis = _analyze_pre([
            New(0, "C"), VirtualCall(0, "ping", Local(0), dst=1)])
        assert analysis.call_facts[0].receiver is NOT_PRE

    def test_call_result_not_preexistent(self):
        analysis = _analyze_pre([
            VirtualCall(0, "ping", Arg(0), dst=0),
            VirtualCall(1, "ping", Local(0), dst=1)])
        assert analysis.call_facts[1].receiver is NOT_PRE

    def test_pick_from_parameter_pool_preexists(self):
        analysis = _analyze_pre([
            VirtualCall(0, "ping", Pick(Arg(0), Const(2)), dst=0)])
        assert analysis.call_facts[0].receiver == frozenset({0})

    def test_pool_allocated_here_does_not_preexist(self):
        analysis = _analyze_pre([
            NewPool(0, ("C", "C")),
            VirtualCall(0, "ping", Pick(Local(0), Const(1)), dst=1)])
        assert analysis.call_facts[0].receiver is NOT_PRE

    def test_branch_join_absorbs_allocation(self):
        analysis = _analyze_pre([
            If(Arg(0), [Let(0, Arg(1))], [New(0, "C")]),
            VirtualCall(0, "ping", Local(0), dst=1)])
        assert analysis.call_facts[0].receiver is NOT_PRE

    def test_branch_join_unions_parameter_sets(self):
        analysis = _analyze_pre([
            If(Arg(0), [Let(0, Arg(0))], [Let(0, Arg(1))]),
            VirtualCall(0, "ping", Local(0), dst=1)])
        assert analysis.call_facts[0].receiver == frozenset({0, 1})

    def test_loop_fixpoint_reaches_backedge_fact(self):
        # First iteration sees the entry value (Arg 1); later iterations
        # see the New from the previous trip.  The recorded fact is the
        # fixpoint join of both, which must be "not preexistent".
        analysis = _analyze_pre([
            Let(0, Arg(1)),
            Loop(Const(3), 1, [
                VirtualCall(0, "ping", Local(0), dst=2),
                New(0, "C"),
            ])])
        assert analysis.call_facts[0].receiver is NOT_PRE


def _analyze_avail(body, params=2, locals_=4):
    b = ProgramBuilder("avail")
    b.cls("C")
    b.method("C", "ping", [Work(1), Return(Const(0))], params=1)
    b.method("C", "pong", [Work(1), Return(Const(0))], params=1)
    b.cls("M")
    b.static_method("M", "m", list(body) + [Return(Const(0))],
                    params=params, locals_=locals_)
    b.static_method("M", "main", [Return(Const(0))])
    b.entry("M.main")
    program = b.build()
    analysis = AvailableGuardAnalysis()
    analysis.analyze(program.method("M.m"))
    return analysis


class TestAvailableGuards:
    def test_straight_line_dominator_available(self):
        analysis = _analyze_avail([
            VirtualCall(0, "ping", Arg(0), dst=0),
            VirtualCall(1, "pong", Arg(0), dst=1)])
        assert (0, "ping", ("arg", 0)) in analysis.available[1]

    def test_reassigned_local_kills_fact(self):
        analysis = _analyze_avail([
            Let(0, Arg(0)),
            VirtualCall(0, "ping", Local(0), dst=1),
            Let(0, Arg(1)),
            VirtualCall(1, "pong", Local(0), dst=1)])
        assert analysis.available[1] == frozenset()

    def test_one_branch_does_not_dominate(self):
        analysis = _analyze_avail([
            If(Arg(1), [VirtualCall(0, "ping", Arg(0), dst=0)], []),
            VirtualCall(1, "pong", Arg(0), dst=1)])
        assert analysis.available[1] == frozenset()

    def test_call_result_clobber_kills_receiver_fact(self):
        analysis = _analyze_avail([
            Let(0, Arg(0)),
            VirtualCall(0, "ping", Local(0), dst=0),
            VirtualCall(1, "pong", Local(0), dst=1)])
        # Site 0's dst is the receiver local itself: fact must not survive.
        assert analysis.available[1] == frozenset()

    def test_loop_entry_guard_stays_available(self):
        analysis = _analyze_avail([
            VirtualCall(0, "ping", Arg(0), dst=1),
            Loop(Const(3), 2, [VirtualCall(1, "pong", Arg(0), dst=1)])])
        assert (0, "ping", ("arg", 0)) in analysis.available[1]


class TestReceiverPreexistsThroughContext:
    def _spec(self, program):
        return SpeculationAnalysis(program, ClassHierarchy(program))

    def test_root_parameter_receiver_preexists(self):
        program = shapes_program()
        spec = self._spec(program)
        stmt = program.method("App.use").body[0]
        assert spec.receiver_preexists(stmt, (("App.use", 0),))

    def test_fresh_allocation_does_not_preexist(self):
        program = shapes_program()
        spec = self._spec(program)
        stmt = program.method("App.use_fresh").body[1]
        assert not spec.receiver_preexists(stmt, (("App.use_fresh", 1),))

    def test_preexistence_propagates_through_inlined_conduit(self):
        from repro.jvm.program import StaticCall
        program = shapes_program(extra_main=(
            StaticCall(10, "App.conduit", args=(Local(0),), dst=3),))
        spec = self._spec(program)
        stmt = program.method("App.conduit").body[0]
        # Inlined into main, the conduit's parameter is main's local 0,
        # which main allocated itself: not preexistent.
        assert not spec.receiver_preexists(
            stmt, (("App.conduit", 2), ("App.main", 10)))
        # Inlined into use (whose Arg 0 preexists), it is.
        b_stmt = program.method("App.use").body[0]
        assert spec.receiver_preexists(
            b_stmt, (("App.use", 0),))


class TestConesAndRisk:
    def test_cone_lists_unloaded_breakers_only(self):
        program = shapes_program()
        hierarchy = ClassHierarchy(program)
        hierarchy.mark_loaded("Circle")
        spec = SpeculationAnalysis(program, hierarchy)
        target = program.method("Circle.area")
        cone, risk = spec.assumption_risk("area", target)
        # Square and Exotic both allocate in main and override area.
        assert cone == ("Exotic", "Square")
        assert 0.0 < risk <= 1.0

    def test_unallocatable_class_excluded(self):
        # Shape itself is never allocated: it cannot load, so it is not
        # in any cone even though loading it would break the assumption.
        program = shapes_program()
        hierarchy = ClassHierarchy(program)
        hierarchy.mark_loaded("Circle")
        spec = SpeculationAnalysis(program, hierarchy)
        cone, _risk = spec.assumption_risk("area", program.method("Circle.area"))
        assert "Shape" not in cone

    def test_class_load_shrinks_cone_via_generation(self):
        program = shapes_program()
        hierarchy = ClassHierarchy(program)
        hierarchy.mark_loaded("Circle")
        spec = SpeculationAnalysis(program, hierarchy)
        target = program.method("Circle.area")
        cone_before, _ = spec.assumption_risk("area", target)
        hierarchy.mark_loaded("Square")
        cone_after, _ = spec.assumption_risk("area", target)
        assert "Square" in cone_before and "Square" not in cone_after

    def test_exhaustive_full_cover_has_empty_cone(self):
        program = shapes_program()
        hierarchy = ClassHierarchy(program)
        spec = SpeculationAnalysis(program, hierarchy)
        targets = [program.method(m) for m in
                   ("Shape.area", "Circle.area", "Square.area",
                    "Exotic.area")]
        cone, risk = spec.exhaustive_risk("area", targets)
        assert cone == () and risk == 0.0

    def test_exhaustive_missing_target_appears_in_cone(self):
        program = shapes_program()
        hierarchy = ClassHierarchy(program)
        spec = SpeculationAnalysis(program, hierarchy)
        targets = [program.method(m) for m in
                   ("Shape.area", "Circle.area", "Square.area")]
        cone, risk = spec.exhaustive_risk("area", targets)
        assert cone == ("Exotic",)
        assert risk > 0.0


class TestSpeculateExhaustive:
    def _setup(self, loaded=("Circle", "Square"), costs=DEFAULT_COSTS):
        program = shapes_program()
        hierarchy = ClassHierarchy(program)
        for name in loaded:
            hierarchy.mark_loaded(name)
        return program, SpeculationAnalysis(program, hierarchy, costs)

    def test_loaded_escape_forces_guard(self):
        program, spec = self._setup(loaded=("Circle", "Square", "Exotic"))
        stmt = program.method("App.use").body[0]
        targets = [program.method("Circle.area"),
                   program.method("Square.area")]
        verdict = spec.speculate_exhaustive(stmt, (("App.use", 0),), targets)
        assert verdict.action == ACTION_GUARD
        assert verdict.risk == 1.0

    def test_full_cover_elides_unconditionally(self):
        program, spec = self._setup()
        stmt = program.method("App.use_fresh").body[1]  # not preexistent
        targets = [program.method(m) for m in
                   ("Shape.area", "Circle.area", "Square.area",
                    "Exotic.area")]
        verdict = spec.speculate_exhaustive(
            stmt, (("App.use_fresh", 1),), targets)
        assert verdict.action == ACTION_ELIDE
        assert verdict.cone_size == 0

    def test_loaded_cover_needs_preexistence(self):
        program, spec = self._setup()
        targets = [program.method("Circle.area"),
                   program.method("Square.area")]
        pre_stmt = program.method("App.use").body[0]
        fresh_stmt = program.method("App.use_fresh").body[1]
        pre = spec.speculate_exhaustive(pre_stmt, (("App.use", 0),), targets)
        fresh = spec.speculate_exhaustive(
            fresh_stmt, (("App.use_fresh", 1),), targets)
        assert pre.action == ACTION_ELIDE and pre.cone_size > 0
        assert fresh.action == ACTION_GUARD

    def test_risk_threshold_blocks_elision(self):
        costs = DEFAULT_COSTS.replace(speculation_elide_max_risk=0.0)
        program, spec = self._setup(costs=costs)
        targets = [program.method("Circle.area"),
                   program.method("Square.area")]
        stmt = program.method("App.use").body[0]
        verdict = spec.speculate_exhaustive(stmt, (("App.use", 0),), targets)
        assert verdict.action == ACTION_GUARD
        assert verdict.risk > 0.0


class TestStaticSummary:
    def test_summary_shape_and_counts(self):
        program = shapes_program()
        summary = static_speculation_summary(program)
        assert summary["virtual_sites"] == 3
        # App.use and App.conduit dispatch on parameters; use_fresh on a New.
        assert summary["preexistent_receiver_sites"] == 2
        assert summary["assumptions"] > 0
        assert 0.0 <= summary["mean_risk"] <= summary["max_risk"] <= 1.0

    def test_summary_on_benchmark(self):
        from repro.workloads.spec import build_benchmark
        built = build_benchmark("jess", scale=0.05)
        summary = static_speculation_summary(built.program)
        assert summary["virtual_sites"] > 0
        assert summary["preexistent_receiver_sites"] > 0
