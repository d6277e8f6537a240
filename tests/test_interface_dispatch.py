"""Tests for interface invocation (``invokeinterface`` semantics)."""

import pytest

from repro.analysis import verifier
from repro.analysis.callgraph import build_call_graph
from repro.aos.cost_accounting import CostAccounting
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.code_cache import CodeCache
from repro.compiler.oracle import InlineOracle
from repro.jvm.costs import CostModel
from repro.jvm.errors import ProgramError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import Machine
from repro.jvm.program import (Arg, Const, InterfaceCall, Local, Loop, New,
                               Return, StaticCall, Work)
from repro.policies import make_policy
from repro.profiles.trace import InlineRule, TraceKey
from repro.workloads.builder import ProgramBuilder


def build_program(iterations=1):
    b = ProgramBuilder("iface")
    b.cls("Runnable")  # the interface contract
    b.cls("TaskA", interfaces=("Runnable",))
    b.cls("TaskB", interfaces=("Runnable",))
    b.cls("Main")
    b.method("TaskA", "go", [Work(5), Return(Const(1))], params=1)
    b.method("TaskB", "go", [Work(5), Return(Const(2))], params=1)
    go_site = b.site()
    b.static_method("Main", "exec", [
        InterfaceCall(go_site, "go", Arg(0), dst=0),
        Return(Local(0)),
    ], params=1, locals_=2)
    b.static_method("Main", "main", [
        New(0, "TaskA"),
        New(1, "TaskB"),
        Loop(Const(iterations), 2, [
            StaticCall(100, "Main.exec", [Local(0)], dst=3),
            StaticCall(101, "Main.exec", [Local(1)], dst=3),
        ]),
        Return(Local(3)),
    ], locals_=6)
    b.entry("Main.main")
    return b.build(), go_site


def machine_for(program, costs=None):
    costs = costs or CostModel()
    hierarchy = ClassHierarchy(program)
    return Machine(program, hierarchy, CodeCache(costs), costs,
                   CostAccounting()), costs


class TestExecution:
    def test_dispatches_on_dynamic_class(self):
        program, _site = build_program()
        machine, _costs = machine_for(program)
        assert machine.run() == 2  # last call dispatched TaskB.go

    def test_interface_dispatch_costs_more_than_virtual(self):
        program, _site = build_program(iterations=50)
        cheap = CostModel().replace(interface_dispatch=9)
        pricey = CostModel().replace(interface_dispatch=30)
        m1, _ = machine_for(program, cheap)
        m1.run()
        program2, _ = build_program(iterations=50)
        m2, _ = machine_for(program2, pricey)
        m2.run()
        assert m2.accounting.app(m2.clock) > m1.accounting.app(m1.clock)

    def test_dispatch_counted(self):
        program, _site = build_program(iterations=10)
        machine, _ = machine_for(program)
        machine.run()
        assert machine.stats.dispatches == 20
        assert machine.stats.virtual_calls == 20


class TestValidation:
    def test_unknown_interface_rejected(self):
        b = ProgramBuilder("bad")
        b.cls("C", interfaces=("Ghost",))
        b.static_method("C", "main", [Return(Const(0))])
        b.entry("C.main")
        with pytest.raises(ProgramError) as exc:
            AdaptiveRuntime(b.build(), make_policy("cins", 1))
        assert verifier.UNKNOWN_INTERFACE in exc.value.report.by_code()

    def test_unknown_selector_rejected(self):
        b = ProgramBuilder("bad")
        b.cls("C")
        b.static_method("C", "main",
                        [InterfaceCall(0, "ghost", Arg(0))], params=1)
        b.entry("C.main")
        with pytest.raises(ProgramError) as exc:
            AdaptiveRuntime(b.build(), make_policy("cins", 1))
        assert verifier.UNRESOLVED_SELECTOR in exc.value.report.by_code()

    def test_site_kind_recorded(self):
        program, site = build_program()
        info = build_call_graph(program).sites[site]
        assert (info.caller, info.kind) == ("Main.exec", "interface")


class TestOracle:
    def test_interface_site_guarded_by_profile(self):
        program, site = build_program()
        hierarchy = ClassHierarchy(program)
        hierarchy.mark_loaded("TaskA")
        hierarchy.mark_loaded("TaskB")
        costs = CostModel()
        rules = [InlineRule(TraceKey("TaskA.go", (("Main.exec", site),)),
                            10.0, 0.05),
                 InlineRule(TraceKey("TaskB.go", (("Main.exec", site),)),
                            10.0, 0.05)]
        oracle = InlineOracle(program, hierarchy, costs, rules)
        root = program.method("Main.exec")
        decision = oracle.decide(root.body[0], (("Main.exec", site),), 0,
                                 20, root)
        assert decision.inline and decision.guarded
        assert sorted(t.id for t in decision.targets) == \
            ["TaskA.go", "TaskB.go"]
