"""Property-based tests for the interpreter over random straight-line
programs.

A small hypothesis strategy generates random (but always valid) method
bodies from the statement language; the properties pin down execution
invariants the rest of the system depends on: determinism, accounting
consistency, tier-cost ordering, and stack balance.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aos.cost_accounting import APP, CostAccounting
from repro.compiler.code_cache import CodeCache
from repro.jvm.costs import CENTI, CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import Machine
from repro.jvm.program import (Add, Arg, ClassDef, Const, If, Let, Local,
                               Loop, Lt, MethodDef, Mod, Mul, New, Program,
                               Return, StaticCall, Sub, VirtualCall, Work)
from repro.workloads.builder import ProgramBuilder

N_LOCALS = 4

# -- expression strategy --------------------------------------------------------

leaf_exprs = st.one_of(
    st.integers(min_value=-50, max_value=50).map(Const),
    st.integers(min_value=0, max_value=N_LOCALS - 1).map(Local),
)


def binop(children):
    ops = st.sampled_from([Add, Sub, Mul, Lt])
    return st.builds(lambda op, a, b: op(a, b), ops, children, children)


int_exprs = st.recursive(leaf_exprs, binop, max_leaves=6)

# -- statement strategy -----------------------------------------------------------

simple_stmts = st.one_of(
    st.integers(min_value=0, max_value=20).map(Work),
    st.builds(Let, st.integers(min_value=0, max_value=N_LOCALS - 1),
              int_exprs),
)


def block(children):
    lists = st.lists(children, min_size=1, max_size=3)
    ifs = st.builds(If, int_exprs, lists, lists)
    loops = st.builds(
        Loop,
        st.integers(min_value=0, max_value=4).map(Const),
        st.just(N_LOCALS - 1),
        lists)
    return st.one_of(ifs, loops)


stmts = st.recursive(simple_stmts, block, max_leaves=10)
bodies = st.lists(stmts, min_size=1, max_size=6).map(
    lambda body: body + [Return(Local(0))])


def build_program(body):
    b = ProgramBuilder("random")
    b.cls("Main")
    b.static_method("Main", "main", body, locals_=N_LOCALS)
    b.entry("Main.main")
    return b.build()


def cycles(machine):
    """Cycles per component, ``APP`` included, at the machine's clock."""
    return machine.accounting.snapshot(machine.clock)


def execute(body, costs=None):
    program = build_program(body)
    costs = costs or CostModel()
    machine = Machine(program, ClassHierarchy(program), CodeCache(costs),
                      costs, CostAccounting())
    value = machine.run()
    return machine, value


class TestRandomPrograms:
    @settings(max_examples=60, deadline=None)
    @given(bodies)
    def test_deterministic(self, body):
        m1, v1 = execute(body)
        m2, v2 = execute(body)
        assert v1 == v2
        assert m1.clock == m2.clock

    @settings(max_examples=60, deadline=None)
    @given(bodies)
    def test_clock_equals_accounting(self, body):
        machine, _value = execute(body)
        assert abs(machine.clock / CENTI - sum(cycles(machine).values())) \
            < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(bodies)
    def test_stack_balanced_after_run(self, body):
        machine, _value = execute(body)
        assert machine.stack == []

    @settings(max_examples=60, deadline=None)
    @given(bodies)
    def test_app_cycles_track_work(self, body):
        machine, _value = execute(body)
        costs = machine.costs
        expected = machine.stats.work_cycles * costs.baseline_exec_mult
        assert cycles(machine)[APP] >= expected - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(bodies)
    def test_baseline_slower_than_hypothetical_opt(self, body):
        slow_costs = CostModel(baseline_exec_mult=4.0)
        fast_costs = CostModel(baseline_exec_mult=1.5)
        slow, _ = execute(body, slow_costs)
        fast, _ = execute(body, fast_costs)
        assert cycles(slow)[APP] >= cycles(fast)[APP] - 1e-6

    @settings(max_examples=40, deadline=None)
    @given(bodies)
    def test_result_is_integer(self, body):
        _machine, value = execute(body)
        assert isinstance(value, int)
