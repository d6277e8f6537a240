"""Shared fixtures: small hand-built programs used across the test suite."""

from __future__ import annotations

import pytest

from repro.jvm.costs import CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (Arg, Const, Let, Local, Loop, New, Return,
                               StaticCall, VirtualCall, Work)
from repro.workloads.builder import ProgramBuilder


@pytest.fixture
def costs() -> CostModel:
    return CostModel()


def build_diamond_program(iterations: int = 10):
    """A tiny program with one polymorphic site and two receiver classes.

    ``Main.main`` allocates an ``A`` and a ``B`` and calls ``Main.run``
    ``iterations`` times; ``run`` virtual-dispatches ``ping`` on each.
    Returns (program, sites dict).
    """
    b = ProgramBuilder("diamond")
    b.cls("Base")
    b.cls("A", superclass="Base")
    b.cls("B", superclass="Base")
    b.cls("Main")

    b.method("Base", "ping", [Work(4), Return(Const(0))], params=1)
    b.method("A", "ping", [Work(4), Return(Const(1))], params=1)
    b.method("B", "ping", [Work(4), Return(Const(2))], params=1)

    ping_a = b.site()
    ping_b = b.site()
    run = b.static_method("Main", "run", [
        VirtualCall(ping_a, "ping", Arg(0), dst=0),
        VirtualCall(ping_b, "ping", Arg(1), dst=1),
        Work(2),
        Return(Local(1)),
    ], params=2, locals_=4)

    loop_site = b.site()
    b.static_method("Main", "main", [
        New(0, "A"),
        New(1, "B"),
        Loop(Const(iterations), 2, [
            StaticCall(loop_site, "Main.run", [Local(0), Local(1)], dst=3),
        ]),
        Return(Local(3)),
    ], params=0, locals_=6)
    b.entry("Main.main")
    program = b.build()
    sites = {"ping_a": ping_a, "ping_b": ping_b, "loop": loop_site,
             "run": run.id}
    return program, sites


def build_context_program(iterations: int = 10):
    """One dispatch site whose receiver depends on the *static* caller.

    ``C.helper`` virtual-dispatches ``ping`` on its argument; ``C.c1``
    always passes an ``A``, ``C.c2`` always a ``B``.  Context-insensitive
    analyses (RTA, 0-CFA) join both flows inside ``helper`` and call the
    dispatch polymorphic; 1-CFA analyzes ``helper`` once per calling site
    and proves every context monomorphic -- the minimal "context rescue"
    shape the k-CFA and lattice tests exercise.
    Returns (program, sites dict).
    """
    b = ProgramBuilder("ctxprog")
    b.cls("Base")
    b.cls("A", superclass="Base")
    b.cls("B", superclass="Base")
    b.cls("C")
    b.method("A", "ping", [Work(3), Return(Const(1))], params=1)
    b.method("B", "ping", [Work(3), Return(Const(2))], params=1)

    disp = b.site()
    b.method("C", "helper", [
        VirtualCall(disp, "ping", Arg(0), dst=0),
        Return(Local(0)),
    ], params=1, static=True, locals_=2)

    c1_site, c2_site = b.site(), b.site()
    b.method("C", "c1", [
        StaticCall(c1_site, "C.helper", [Arg(0)], dst=0),
        Return(Local(0)),
    ], params=1, static=True, locals_=2)
    b.method("C", "c2", [
        StaticCall(c2_site, "C.helper", [Arg(0)], dst=0),
        Return(Local(0)),
    ], params=1, static=True, locals_=2)

    call1, call2 = b.site(), b.site()
    b.static_method("C", "main", [
        New(0, "A"),
        New(1, "B"),
        Loop(Const(iterations), 2, [
            StaticCall(call1, "C.c1", [Local(0)], dst=3),
            StaticCall(call2, "C.c2", [Local(1)], dst=4),
        ]),
        Return(Local(3)),
    ], locals_=6)
    b.entry("C.main")
    sites = {"disp": disp, "c1": c1_site, "c2": c2_site,
             "call1": call1, "call2": call2}
    return b.build(), sites


@pytest.fixture
def diamond():
    return build_diamond_program()


@pytest.fixture
def ctxprog():
    return build_context_program()


@pytest.fixture
def diamond_program(diamond):
    program, _sites = diamond
    return program


@pytest.fixture
def diamond_hierarchy(diamond_program):
    return ClassHierarchy(diamond_program)
