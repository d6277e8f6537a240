"""Unit tests for the controller's analytic model and compilation thread."""

import pytest

from repro.aos.controller import (CompilationThread, Controller,
                                  EXPANSION_GUESS)
from repro.aos.cost_accounting import COMPILATION, CONTROLLER, CostAccounting
from repro.aos.database import AOSDatabase
from repro.aos.organizers import AOSState, MAX_OPT_VERSIONS
from repro.compiler.code_cache import CodeCache
from repro.jvm.costs import FIRST_COMPILE_MIN_WEIGHT, CostModel, to_centi
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import NULL_EVENTS
from repro.jvm.program import Const, Return, StaticCall, Work
from repro.provenance import ProvenanceRecorder
from repro.workloads.builder import ProgramBuilder


class FakeMachine:
    """A clock and an accountant, in centi-cycles like ``Machine``."""

    events = NULL_EVENTS

    def __init__(self):
        self.clock = 0
        self.accounting = CostAccounting()

    def charge(self, component, cycles):
        centi = to_centi(cycles)
        self.clock += centi
        self.accounting.charge(component, centi)

    def cycles(self, component):
        return self.accounting.snapshot(self.clock)[component]


def build_env(costs=None):
    costs = costs or CostModel()
    b = ProgramBuilder("ctl")
    b.cls("C")
    b.static_method("C", "small_hot", [Work(20), Return(Const(0))])
    b.static_method("C", "big", [Work(400), Return(Const(0))])
    b.static_method("C", "main", [StaticCall(0, "C.small_hot"),
                                  Return(Const(0))])
    b.entry("C.main")
    program = b.build()
    hierarchy = ClassHierarchy(program)
    state = AOSState()
    # The controller defers first compiles until the profile matures; give
    # the tests a mature profile up front.
    from repro.profiles.trace import TraceKey
    state.dcg.add(TraceKey("C.small_hot", (("C.main", 0),)),
                  FIRST_COMPILE_MIN_WEIGHT + 10)
    cache = CodeCache(costs)
    database = AOSDatabase()
    controller = Controller(program, hierarchy, state, cache, database,
                            costs)
    thread = CompilationThread(program, cache, database, costs)
    return (program, hierarchy, state, cache, database, controller, thread,
            costs)


class TestAnalyticModel:
    def test_hot_small_method_approved(self):
        (_p, _h, _s, cache, _db, controller, thread, costs) = build_env()
        machine = FakeMachine()
        samples = 50.0  # plenty of estimated future time
        controller.method_is_hot("C.small_hot", samples)
        assert controller.process_events(machine) == 1
        thread.run(machine, controller.compilation_queue)
        assert "C.small_hot" in cache.installed

    def test_barely_sampled_method_denied(self):
        (_p, _h, _s, cache, _db, controller, _t, costs) = build_env()
        machine = FakeMachine()
        # One sample of a big method: benefit < compile cost.
        controller.method_is_hot("C.big", 1.0)
        assert controller.process_events(machine) == 0
        assert "C.big" not in cache.installed

    def test_model_formula(self):
        (_p, _h, _s, _c, _db, controller, _t, costs) = build_env()
        # The break-even point: benefit == cost exactly at samples*.
        method_bc = 401  # Work(400) + Return
        cost = method_bc * EXPANSION_GUESS * costs.opt_compile_cycles_per_bc
        speedup = costs.estimated_opt_speedup
        break_even = cost / (costs.sample_interval * (1 - 1 / speedup))
        assert not controller._approve_first_compile("C.big",
                                                     break_even * 0.99)
        assert controller._approve_first_compile("C.big", break_even * 1.01)

    def test_controller_cycles_charged(self):
        (_p, _h, _s, _c, _db, controller, _t, costs) = build_env()
        machine = FakeMachine()
        controller.method_is_hot("C.small_hot", 50.0)
        controller.process_events(machine)
        assert machine.cycles(CONTROLLER) == costs.controller_event_cost

    def test_already_optimized_hot_event_ignored(self):
        (_p, _h, _s, cache, _db, controller, thread, _c) = build_env()
        machine = FakeMachine()
        controller.method_is_hot("C.small_hot", 50.0)
        controller.process_events(machine)
        thread.run(machine, controller.compilation_queue)
        controller.method_is_hot("C.small_hot", 99.0)
        assert controller.process_events(machine) == 0


class TestMissingEdgeRecompiles:
    def test_recompile_with_new_fingerprint(self):
        (_p, _h, state, cache, _db, controller, thread, costs) = build_env()
        machine = FakeMachine()
        controller.method_is_hot("C.small_hot", 50.0)
        controller.process_events(machine)
        thread.run(machine, controller.compilation_queue)
        assert cache.installed["C.small_hot"].version == 1

        state.rules_fingerprint = 12345
        machine.clock += to_centi(costs.recompile_cooldown + 1)
        controller.recompile_for_missing_edge("C.small_hot")
        assert controller.process_events(machine) == 1
        thread.run(machine, controller.compilation_queue)
        assert cache.installed["C.small_hot"].version == 2

    def test_cooldown_blocks_rapid_recompiles(self):
        (_p, _h, state, cache, _db, controller, thread, costs) = build_env()
        machine = FakeMachine()
        controller.method_is_hot("C.small_hot", 50.0)
        controller.process_events(machine)
        thread.run(machine, controller.compilation_queue)

        state.rules_fingerprint = 1
        controller.recompile_for_missing_edge("C.small_hot")
        # Too soon after the first compile: deferred.
        assert controller.process_events(machine) == 0

    def test_same_fingerprint_not_recompiled(self):
        (_p, _h, state, cache, _db, controller, thread, costs) = build_env()
        machine = FakeMachine()
        controller.method_is_hot("C.small_hot", 50.0)
        controller.process_events(machine)
        thread.run(machine, controller.compilation_queue)
        machine.clock += to_centi(costs.recompile_cooldown + 1)
        state.rules_fingerprint = \
            cache.installed["C.small_hot"].rules_fingerprint
        controller.recompile_for_missing_edge("C.small_hot")
        assert controller.process_events(machine) == 0

    def test_version_cap(self):
        (_p, _h, state, cache, _db, controller, thread, costs) = build_env()
        machine = FakeMachine()
        controller.method_is_hot("C.small_hot", 50.0)
        controller.process_events(machine)
        thread.run(machine, controller.compilation_queue)
        for fp in range(2, MAX_OPT_VERSIONS + 3):
            machine.clock += to_centi(costs.recompile_cooldown + 1)
            state.rules_fingerprint = fp
            controller.recompile_for_missing_edge("C.small_hot")
            controller.process_events(machine)
            thread.run(machine, controller.compilation_queue)
        assert cache.installed["C.small_hot"].version <= MAX_OPT_VERSIONS

    def test_never_compiled_missing_edge_compiles(self):
        (_p, _h, _s, cache, _db, controller, thread, _c) = build_env()
        machine = FakeMachine()
        controller.recompile_for_missing_edge("C.small_hot")
        assert controller.process_events(machine) == 1
        thread.run(machine, controller.compilation_queue)
        assert "C.small_hot" in cache.installed


class TestCompilationThread:
    def test_charges_compilation_component(self):
        (_p, _h, _s, _cache, _db, controller, thread, _c) = build_env()
        machine = FakeMachine()
        recorder = ProvenanceRecorder()
        recorder.machine = machine
        machine.events = recorder
        controller.method_is_hot("C.small_hot", 50.0)
        controller.process_events(machine)
        thread.run(machine, controller.compilation_queue)
        assert machine.cycles(COMPILATION) > 0
        [record] = recorder.compilations
        assert record.method == "C.small_hot"
        assert record.reason == "hot"
