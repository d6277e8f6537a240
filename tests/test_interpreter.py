"""Unit tests for the execution engine (baseline-tier semantics and costs)."""

import gc
import types
import weakref

import pytest

from repro.aos.cost_accounting import APP, COMPILATION, CostAccounting
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.code_cache import CodeCache
from repro.compiler.compiled_method import (DIRECT, GUARDED, PLAN_PREEXIST,
                                            CompiledMethod, GuardOption,
                                            GuardPlan, InlineDecision,
                                            InlineNode)
from repro.jvm.costs import CENTI, CostModel
from repro.jvm.errors import ExecutionError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm import lowering
from repro.jvm.interpreter import MAX_STACK_DEPTH, NEVER, Machine
from repro.jvm.program import (Add, Arg, Const, If, Let, Local, Loop, Mod,
                               Mul, New, NewPool, Pick, Return, StaticCall,
                               Sub, VirtualCall, Work)
from repro.jvm.values import Instance
from repro.policies import make_policy
from repro.workloads.builder import ProgramBuilder
from repro.workloads.hashmap_example import build as build_hashmap

from conftest import build_diamond_program


class EveryEvent:
    """An event sink consuming every event generated code and the OSR
    helper fire, ignoring each."""

    def __init__(self, loops):
        self.loops = loops

    def dispatch(self, site, target_id):
        pass

    def elided(self, site, kind, entered, resolved):
        pass

    def osr_entry(self, method_id, loop_stmt, locals_):
        pass

    def deopt_exit(self, site, exit_live, locals_):
        pass

    def local(self, locals_, index, is_read):
        pass

    def progress(self, name):
        pass


def machine_for(program, costs=None, tick=None):
    costs = costs or CostModel()
    hierarchy = ClassHierarchy(program)
    cache = CodeCache(costs)
    return Machine(program, hierarchy, cache, costs,
                   CostAccounting(), tick)


def cycles(m):
    """Cycles per component, ``APP`` included, at the machine's clock."""
    return m.accounting.snapshot(m.clock)


def run_main(body, costs=None, classes=(), extra_methods=None):
    """Build a one-method program and execute it."""
    b = ProgramBuilder("t")
    for name in classes:
        b.cls(name)
    b.cls("Main")
    if extra_methods:
        extra_methods(b)
    b.static_method("Main", "main", body, params=0, locals_=10)
    b.entry("Main.main")
    program = b.build()
    m = machine_for(program, costs)
    value = m.run()
    return m, value


class TestBasicSemantics:
    def test_return_value(self):
        _m, value = run_main([Return(Const(42))])
        assert value == 42

    def test_fallthrough_returns_zero(self):
        _m, value = run_main([Work(1)])
        assert value == 0

    def test_bare_return_is_zero(self):
        _m, value = run_main([Return()])
        assert value == 0

    def test_let_and_locals(self):
        _m, value = run_main([Let(0, Const(5)), Return(Local(0))])
        assert value == 5

    def test_arithmetic(self):
        expr = Add(Mul(Const(3), Const(4)), Sub(Const(10), Const(7)))
        _m, value = run_main([Return(expr)])
        assert value == 15

    def test_mod(self):
        _m, value = run_main([Return(Mod(Const(17), Const(5)))])
        assert value == 2

    def test_if_then(self):
        _m, value = run_main([If(Const(1), [Return(Const(1))],
                                 [Return(Const(2))])])
        assert value == 1

    def test_if_else(self):
        _m, value = run_main([If(Const(0), [Return(Const(1))],
                                 [Return(Const(2))])])
        assert value == 2

    def test_loop_index_variable(self):
        # Sum of 0..4 = 10 accumulated through a local.
        body = [
            Let(1, Const(0)),
            Loop(Const(5), 0, [Let(1, Add(Local(1), Local(0)))]),
            Return(Local(1)),
        ]
        _m, value = run_main(body)
        assert value == 10

    def test_loop_early_return(self):
        body = [Loop(Const(100), 0,
                     [If(Local(0), [Return(Local(0))], [])]),
                Return(Const(-1))]
        _m, value = run_main(body)
        assert value == 1

    def test_new_creates_instance(self):
        b = ProgramBuilder("t")
        b.cls("K")
        b.cls("Main")
        b.static_method("Main", "main",
                        [New(0, "K"), Return(Local(0))], locals_=2)
        b.entry("Main.main")
        m = machine_for(b.build())
        value = m.run()
        assert isinstance(value, Instance)
        assert value.klass == "K"

    def test_pool_pick_wraps_around(self):
        b = ProgramBuilder("t")
        b.cls("A")
        b.cls("B")
        b.cls("Main")
        b.static_method("Main", "main", [
            NewPool(0, ("A", "B")),
            Let(1, Pick(Local(0), Const(3))),  # 3 % 2 == 1 -> B
            Return(Local(1)),
        ], locals_=3)
        b.entry("Main.main")
        value = machine_for(b.build()).run()
        assert value.klass == "B"

    def test_pick_from_non_pool_raises(self):
        with pytest.raises(ExecutionError):
            run_main([Let(0, Const(3)),
                      Let(1, Pick(Local(0), Const(0)))])


class TestCalls:
    def test_static_call_result(self):
        def extra(b):
            b.static_method("Main", "five", [Return(Const(5))])
        _m, value = run_main(
            [StaticCall(0, "Main.five", dst=0), Return(Local(0))],
            extra_methods=extra)
        assert value == 5

    def test_static_call_args(self):
        def extra(b):
            b.static_method("Main", "addone",
                            [Return(Add(Arg(0), Const(1)))], params=1)
        _m, value = run_main(
            [StaticCall(0, "Main.addone", [Const(6)], dst=0),
             Return(Local(0))],
            extra_methods=extra)
        assert value == 7

    def test_virtual_dispatch_selects_dynamic_class(self):
        program, _sites = build_diamond_program(iterations=1)
        value = machine_for(program).run()
        assert value == 2  # B.ping returns 2

    def test_virtual_on_non_object_raises(self):
        b = ProgramBuilder("t")
        b.cls("K")
        b.cls("Main")
        b.method("K", "m", [Return(Const(0))], params=1)
        b.static_method("Main", "main",
                        [VirtualCall(0, "m", Const(3))], locals_=2)
        b.entry("Main.main")
        with pytest.raises(ExecutionError):
            machine_for(b.build()).run()

    def test_stack_overflow_detected(self):
        b = ProgramBuilder("t")
        b.cls("Main")
        b.static_method("Main", "loop",
                        [StaticCall(0, "Main.loop"), Return(Const(0))])
        b.static_method("Main", "main",
                        [StaticCall(1, "Main.loop"), Return(Const(0))])
        b.entry("Main.main")
        with pytest.raises(ExecutionError):
            machine_for(b.build()).run()

    @pytest.mark.parametrize("tier, observed", [
        pytest.param(tier, observed,
                     id=tier + ("-every-event" if observed else ""))
        for observed in (False, True)
        for tier in ("baseline", "optimized", "elided", "direct")])
    def test_deep_recursion_through_loop_and_if_stops_at_cap(self, tier,
                                                              observed):
        # Each recursion level passes through Loop -> If -> virtual call,
        # the deepest Python-frame cost per simulated frame; at the
        # optimized tier the call is a guarded inline (its guard elided
        # in the "elided" case; a DIRECT inline in the "direct" case),
        # three levels deep per physical frame.  The cap must trip before
        # Python's own recursion limit does, also when the event sink
        # consumes every event.
        b = ProgramBuilder("deep")
        b.cls("A")
        b.cls("Main")
        loop = Loop(Const(1), 1, [
            If(Const(1), [
                VirtualCall(10, "rec", Arg(0), [Add(Arg(1), Const(1))],
                            dst=2),
            ]),
        ])
        b.method("A", "rec", [loop, Return(Local(2))], params=2, locals_=4)
        b.static_method("Main", "main", [
            New(0, "A"),
            VirtualCall(1, "rec", Local(0), [Const(0)], dst=1),
            Return(Local(1)),
        ], locals_=3)
        b.entry("Main.main")
        program = b.build()
        m = machine_for(program)
        if observed:
            m.events = EveryEvent(loops={id(loop): "rec"})
        if tier != "baseline":
            rec = program.method("A.rec")

            def tree(depth):
                node = InlineNode(rec, depth)
                if depth < 3 and tier == "direct":
                    node.decisions[10] = InlineDecision(
                        DIRECT, [GuardOption(rec, tree(depth + 1))])
                elif depth < 3:
                    option = GuardOption(rec, tree(depth + 1),
                                         guard_class="A")
                    plan = (GuardPlan(PLAN_PREEXIST) if tier == "elided"
                            else None)
                    node.decisions[10] = InlineDecision(GUARDED, [option],
                                                        plan)
                return node
            m.code_cache.install(CompiledMethod(
                tree(0), inlined_bytecodes=4 * rec.bytecodes,
                code_bytes=64, compile_cycles=100, version=1))
        with pytest.raises(ExecutionError,
                           match=f"at depth {MAX_STACK_DEPTH}$"):
            m.run()
        assert m.stack == []
        if tier != "baseline":
            assert m.stats.inline_entries > m.stats.calls > 0

    def test_call_counts(self):
        program, _sites = build_diamond_program(iterations=3)
        m = machine_for(program)
        m.run()
        # main + 3x run + 6 dispatched pings
        assert m.stats.calls == 1 + 3 + 6
        assert m.stats.virtual_calls == 6
        assert m.stats.dispatches == 6


class TestCostAccounting:
    def test_work_charged_at_baseline_multiplier(self):
        costs = CostModel()
        m, _ = run_main([Work(100)], costs=costs)
        app = cycles(m)[APP]
        assert app == pytest.approx(100 * costs.baseline_exec_mult)

    def test_baseline_compile_charged_once(self):
        costs = CostModel()
        def extra(b):
            b.static_method("Main", "callee", [Return(Const(0))])
        m, _ = run_main(
            [StaticCall(0, "Main.callee", dst=0),
             StaticCall(1, "Main.callee", dst=0),
             Return(Const(0))],
            costs=costs, extra_methods=extra)
        callee_bc = m.program.method("Main.callee").bytecodes
        main_bc = m.program.method("Main.main").bytecodes
        expected = (callee_bc + main_bc) * costs.baseline_compile_cycles_per_bc
        assert cycles(m)[COMPILATION] == pytest.approx(expected)
        assert m.code_cache.baseline_compiled_methods == 2

    def test_call_overhead_charged(self):
        costs = CostModel()
        def extra(b):
            b.static_method("Main", "callee", [Return(Const(0))])
        m, _ = run_main([StaticCall(0, "Main.callee")], costs=costs,
                        extra_methods=extra)
        # Two Work-free methods: APP cycles == one call overhead (scaled).
        assert cycles(m)[APP] == pytest.approx(
            costs.call_overhead * costs.baseline_exec_mult)

    def test_virtual_dispatch_costs_more_than_static(self):
        program, _ = build_diamond_program(iterations=1)
        m = machine_for(program)
        m.run()
        assert m.stats.dispatches == 2

    def test_clock_matches_accounting_total(self):
        program, _ = build_diamond_program(iterations=5)
        m = machine_for(program)
        m.run()
        assert m.clock / CENTI == pytest.approx(sum(cycles(m).values()))


class TestTicks:
    def test_tick_fires_when_clock_crosses(self):
        fired = []

        def tick(machine):
            fired.append(machine.clock / CENTI)
            machine.next_event = NEVER

        program, _ = build_diamond_program(iterations=50)
        m = machine_for(program, tick=tick)
        m.next_event = 50 * CENTI
        m.run()
        assert len(fired) == 1
        assert fired[0] >= 50.0

    def test_tick_not_reentrant(self):
        depth = {"now": 0, "max": 0}

        def tick(machine):
            depth["now"] += 1
            depth["max"] = max(depth["max"], depth["now"])
            # Charging inside the tick must not recurse into the handler.
            machine.charge(APP, 1000.0)
            machine.next_event = machine.clock + 10 * CENTI
            depth["now"] -= 1

        program, _ = build_diamond_program(iterations=50)
        m = machine_for(program, tick=tick)
        m.next_event = 10 * CENTI
        m.run()
        assert depth["max"] == 1

    def test_deterministic_execution(self):
        program1, _ = build_diamond_program(iterations=20)
        program2, _ = build_diamond_program(iterations=20)
        m1, m2 = machine_for(program1), machine_for(program2)
        m1.run()
        m2.run()
        assert m1.clock == m2.clock
        assert m1.stats.calls == m2.stats.calls


def _lowered_code_reachable_from(root) -> list:
    """Functions created by lowering -- its closures and the functions it
    generates -- that ``root`` keeps alive."""
    found, seen, todo = [], set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            # Not descending into a function's globals keeps the walk off
            # the module graph.
            if obj.__module__ == lowering.__name__ and (
                    "<locals>" in obj.__qualname__
                    or obj.__code__.co_filename
                    == lowering.GENERATED_FILENAME):
                found.append(obj)
            continue
        todo.extend(gc.get_referents(obj))
    return found


def _hashmap_runtime():
    return AdaptiveRuntime(build_hashmap(iterations=500).program,
                           make_policy("fixed", 2))


class TestLoweredCode:
    def test_no_lowered_code_reachable_from_machine_after_run(self):
        runtime = _hashmap_runtime()
        result = runtime.run()
        assert result.opt_compilations > 0 and result.inline_entries > 0
        assert _lowered_code_reachable_from(runtime.machine) == []
        # The walk does find lowered code when something holds it: the
        # closures, and the generated functions a run's tables keep.
        invoke, release = lowering.lower_run(runtime.machine)
        assert _lowered_code_reachable_from([invoke]) != []
        release()
        m = machine_for(build_hashmap(iterations=5).program)
        invoke, release = lowering.lower_run(m)
        invoke(m.program.entry_method(), (), None)
        tables = [cell.cell_contents for cell in invoke.__closure__]
        assert any(fn.__code__.co_filename == lowering.GENERATED_FILENAME
                   for fn in _lowered_code_reachable_from(tables))
        release()

    def test_generated_code_is_shared_across_runs(self):
        # Generated source holds no run value, so a second run of a
        # freshly built, equal program finds all its code compiled.
        _hashmap_runtime().run()
        compiled = set(lowering._CODE)
        _hashmap_runtime().run()
        assert set(lowering._CODE) == compiled

    def test_dropped_run_keeps_nothing_alive(self):
        runtime = _hashmap_runtime()
        runtime.run()
        machine = weakref.ref(runtime.machine)
        program = weakref.ref(runtime.machine.program)
        del runtime
        gc.collect()
        assert machine() is None and program() is None
