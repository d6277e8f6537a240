"""Execution of *optimized* code: inline plans, guards, and discounts.

These tests install hand-built CompiledMethods into the code cache and
verify the interpreter follows the inline tree exactly: direct inlines
skip call overhead, guard hits enter the right body, guard misses fall
back to virtual dispatch, and the source-level stack still shows inlined
activations.
"""

import pytest

from repro.aos.cost_accounting import CostAccounting
from repro.compiler.code_cache import CodeCache
from repro.compiler.compiled_method import (CompiledMethod, DIRECT, GUARDED,
                                            GuardOption, InlineDecision,
                                            InlineNode)
from repro.jvm.costs import CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import Machine
from repro.jvm.program import (Arg, Const, Local, New, Return, StaticCall,
                               VirtualCall, Work)
from repro.workloads.builder import ProgramBuilder


def build_program():
    b = ProgramBuilder("opt")
    b.cls("Base")
    b.cls("A", superclass="Base")
    b.cls("B", superclass="Base")
    b.cls("C", superclass="Base")
    b.cls("Main")

    b.method("A", "ping", [Work(10), Return(Const(1))], params=1)
    b.method("B", "ping", [Work(10), Return(Const(2))], params=1)
    b.method("C", "ping", [Work(10), Return(Const(3))], params=1)
    b.static_method("Main", "leaf", [Work(10), Return(Const(9))])

    b.static_method("Main", "runner", [
        StaticCall(100, "Main.leaf", dst=0),
        VirtualCall(101, "ping", Arg(0), dst=1),
        Return(Local(1)),
    ], params=1, locals_=4)

    b.static_method("Main", "main", [
        New(0, "A"),
        StaticCall(102, "Main.runner", [Local(0)], dst=1),
        Return(Local(1)),
    ], locals_=4)
    b.entry("Main.main")
    return b.build()


def machine_with_plan(program, guard_targets):
    """Install an opt version of Main.runner with a given inline plan."""
    costs = CostModel()
    hierarchy = ClassHierarchy(program)
    cache = CodeCache(costs)

    runner = program.method("Main.runner")
    leaf = program.method("Main.leaf")
    root = InlineNode(runner, 0)
    root.decisions[100] = InlineDecision(
        DIRECT, [GuardOption(leaf, InlineNode(leaf, 1))])
    options = [GuardOption(program.method(f"{klass}.ping"),
                           InlineNode(program.method(f"{klass}.ping"), 1),
                           guard_class=klass)
               for klass in guard_targets]
    if options:
        root.decisions[101] = InlineDecision(GUARDED, options)
    cache.install(CompiledMethod(root, 60, 360, 840, 1))

    machine = Machine(program, hierarchy, cache, costs, CostAccounting())
    return machine, costs


class TestDirectInline:
    def test_inlined_static_call_skips_overhead(self):
        program = build_program()
        machine, costs = machine_with_plan(program, ["A"])
        value = machine.run()
        assert value == 1
        # leaf executed inline: one inline entry, no out-of-line leaf call.
        assert machine.stats.inline_entries >= 1

    def test_result_identical_to_baseline(self):
        program = build_program()
        opt_machine, _ = machine_with_plan(program, ["A"])
        baseline_machine, _ = machine_with_plan(program, [])
        assert opt_machine.run() == baseline_machine.run()


class TestGuards:
    def test_guard_hit_enters_inline_body(self):
        program = build_program()
        machine, _ = machine_with_plan(program, ["A"])
        assert machine.run() == 1
        assert machine.stats.guard_tests == 1
        assert machine.stats.guard_misses == 0
        assert machine.stats.dispatches == 0

    def test_guard_miss_falls_back_to_dispatch(self):
        program = build_program()
        machine, _ = machine_with_plan(program, ["B"])  # wrong target
        assert machine.run() == 1  # still correct via fallback
        assert machine.stats.guard_misses == 1
        assert machine.stats.dispatches == 1

    def test_second_guard_hits_after_first_misses(self):
        program = build_program()
        machine, _ = machine_with_plan(program, ["B", "A"])
        assert machine.run() == 1
        assert machine.stats.guard_tests == 2
        assert machine.stats.guard_misses == 0

    def test_guard_costs_charged(self):
        program = build_program()
        hit, costs = machine_with_plan(program, ["A"])
        hit.run()
        miss, _ = machine_with_plan(program, ["B"])
        miss.run()
        # The miss run pays the guard plus the full dispatch.
        assert miss.accounting.app(miss.clock) > hit.accounting.app(hit.clock)


class TestInlineDiscount:
    def test_inlined_work_cheaper_than_out_of_line(self):
        program = build_program()
        inlined, costs = machine_with_plan(program, ["A"])
        inlined.run()
        plain, _ = machine_with_plan(program, [])
        plain.run()
        assert (inlined.accounting.app(inlined.clock)
                < plain.accounting.app(plain.clock))
