"""Tests for on-stack replacement of long-running baseline loops."""

import pytest

from repro.aos.cost_accounting import APP
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.code_cache import CodeCache
from repro.compiler.compiled_method import CompiledMethod, InlineNode
from repro.jvm.costs import CENTI, CostModel, DEFAULT_COSTS
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import Machine
from repro.jvm.program import (Arg, Const, If, Local, Loop, Lt, Return,
                               StaticCall, Work)
from repro.policies import make_policy
from repro.provenance import ProvenanceRecorder
from repro.workloads.builder import ProgramBuilder


def loop_heavy_program(iterations=6000):
    """main is one long loop: invisible to invocation-biased sampling."""
    b = ProgramBuilder("osr")
    b.cls("Main")
    b.static_method("Main", "tinywork", [Work(3), Return(Const(0))])
    b.static_method("Main", "main", [
        Loop(Const(iterations), 0, [
            Work(4),
            StaticCall(100, "Main.tinywork", dst=1),
        ]),
        Return(Const(0)),
    ], locals_=4)
    b.entry("Main.main")
    return b.build()


class TestOSR:
    def test_loop_transfers_to_optimized_code(self):
        recorder = ProvenanceRecorder()
        runtime = AdaptiveRuntime(loop_heavy_program(),
                                  make_policy("cins", 1), sinks=[recorder])
        result = runtime.run()
        assert result.osr_transfers >= 1
        assert "Main.main" in runtime.code_cache.installed
        # The OSR compile is recorded with its own reason.
        compiles = [record for record in recorder.compilations
                    if record.method == "Main.main"]
        assert compiles and compiles[0].reason == "osr"

    def test_osr_faster_than_without(self):
        on = AdaptiveRuntime(loop_heavy_program(),
                             make_policy("cins", 1)).run()
        costs_off = DEFAULT_COSTS.replace(osr_enabled=False)
        off = AdaptiveRuntime(loop_heavy_program(),
                              make_policy("cins", 1), costs_off).run()
        assert off.osr_transfers == 0
        # The loop spends the run at baseline without OSR: clearly slower.
        assert on.total_cycles < off.total_cycles

    def test_backedges_counted(self):
        runtime = AdaptiveRuntime(loop_heavy_program(500),
                                  make_policy("cins", 1))
        runtime.run()
        assert runtime.machine.backedge_counts.get("Main.main") == 500

    def test_threshold_gates_request(self):
        # A loop shorter than the threshold never requests OSR.
        costs = DEFAULT_COSTS.replace(osr_backedge_threshold=10 ** 9)
        recorder = ProvenanceRecorder()
        runtime = AdaptiveRuntime(loop_heavy_program(),
                                  make_policy("cins", 1), costs,
                                  sinks=[recorder])
        result = runtime.run()
        assert result.osr_transfers == 0
        assert not any(record.method == "Main.main"
                       for record in recorder.compilations)

    def test_transferred_loop_result_unchanged(self):
        on = AdaptiveRuntime(loop_heavy_program(),
                             make_policy("cins", 1)).run()
        costs_off = DEFAULT_COSTS.replace(osr_enabled=False)
        off = AdaptiveRuntime(loop_heavy_program(),
                              make_policy("cins", 1), costs_off).run()
        assert on.return_value == off.return_value

    def test_invalidate_then_reheat_requests_osr_again(self):
        # Regression: the once-per-method OSR notification was never
        # cleared when a method's optimized code got invalidated, so a
        # deoptimized loop could spin at baseline forever.
        program = loop_heavy_program(2000)
        costs = DEFAULT_COSTS.replace(osr_backedge_threshold=500)
        machine = Machine(program, ClassHierarchy(program),
                          CodeCache(costs), costs)
        requests = []
        machine.osr_handler = requests.append

        machine.run()
        assert requests == ["Main.main"]
        # The notification is once-per-method: while the compile is
        # outstanding, further runs must not re-request.
        machine.run()
        assert requests == ["Main.main"]

        # The compile lands; a class load then breaks it.
        root = program.method("Main.main")
        machine.code_cache.install(CompiledMethod(
            InlineNode(root), inlined_bytecodes=root.bytecodes,
            code_bytes=64, compile_cycles=100, version=1))
        assert machine.code_cache.invalidate("Main.main")
        machine.on_code_invalidated("Main.main")

        # Back at baseline and still hot (back-edge counts were kept):
        # the loop may ask for OSR again.
        machine.run()
        assert requests == ["Main.main", "Main.main"]

    def test_nested_loop_switches_tier_for_its_own_list_only(self):
        # The OSR-ing loop sits inside an If inside an outer Loop.  Once
        # it transfers, its remaining iterations and the statements after
        # it in the If's list run at the optimized tier; the outer loop's
        # list (and the method body) stay at the baseline tier, so every
        # outer iteration re-enters the inner loop at baseline and
        # transfers again at its first poll point.
        costs = DEFAULT_COSTS.replace(osr_backedge_threshold=8,
                                      osr_poll_period=4)
        b = ProgramBuilder("osr-nested")
        b.cls("Main")
        b.static_method("Main", "main", [
            Work(1),
            Loop(Const(3), 0, [
                If(Lt(Local(0), Const(3)), [
                    Loop(Const(20), 1, [Work(2)]),
                    Work(5),
                ]),
                Work(3),
            ]),
            Work(11),
            Return(Local(0)),
        ], locals_=4)
        b.entry("Main.main")
        program = b.build()
        machine = Machine(program, ClassHierarchy(program),
                          CodeCache(costs), costs)
        root = program.method("Main.main")

        def install(method_id):
            machine.code_cache.install(CompiledMethod(
                InlineNode(root), inlined_bytecodes=root.bytecodes,
                code_bytes=64, compile_cycles=100, version=1))

        machine.osr_handler = install
        assert machine.run() == 2
        # First outer iteration: 8 baseline iterations reach the
        # threshold, the request installs code, and the loop transfers.
        # Later outer iterations find the code at the first poll (4).
        baseline_inner, opt_inner = 8 + 4 + 4, 12 + 16 + 16
        base, opt = costs.baseline_exec_mult, costs.opt_exec_mult
        expected = (1 * base                      # method body, before
                    + baseline_inner * 2 * base   # inner loop at baseline
                    + opt_inner * 2 * opt         # inner loop after OSR
                    + 3 * 5 * opt                 # rest of the If's list
                    + 3 * 3 * base                # outer loop's own list
                    + 11 * base)                  # method body, after
        app = machine.accounting.snapshot(machine.clock)[APP]
        assert app == pytest.approx(expected)
        assert machine.stats.osr_transfers == 3
        # Each loop reads the method's counter on entry and writes entry
        # value + its own trip count on exit, so the outer loop's exit
        # (0 + 3) overwrites the inner loops' 60.
        assert machine.backedge_counts == {"Main.main": 3}
        assert machine.stats.work_cycles == 1 + 60 * 2 + 15 + 9 + 11
        # Exact sums in whole centi-cycles, each converted once.
        assert repr(machine.clock / CENTI) == "296.8"
        assert repr(app) == "240.8"

    def test_counts_accumulate_across_loop_executions(self):
        # A method whose loop runs multiple times accumulates back edges
        # across invocations (Jikes counters are per-method).
        b = ProgramBuilder("osr2")
        b.cls("Main")
        b.static_method("Main", "inner", [
            Loop(Const(100), 0, [Work(2)]),
            Return(Const(0)),
        ], params=1, locals_=2)
        b.static_method("Main", "main", [
            Loop(Const(30), 0, [
                StaticCall(1, "Main.inner", [Local(0)], dst=1),
            ]),
            Return(Const(0)),
        ], locals_=4)
        b.entry("Main.main")
        runtime = AdaptiveRuntime(b.build(), make_policy("cins", 1))
        runtime.run()
        counts = runtime.machine.backedge_counts
        # inner may get optimized partway through (stopping baseline
        # counting), but the count must exceed one execution's worth.
        assert counts.get("Main.inner", 0) >= 100
