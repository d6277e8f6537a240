"""A workload where class loading breaks CHA devirtualization mid-run.

For the first part of the run only ``Circle`` is instantiated, so
loaded-world class hierarchy analysis sees a single ``area`` target and
the optimizing compiler devirtualizes and inlines it without a guard
(recording a CHA dependency; the receiver pre-exists the activation, so
no deoptimization machinery is needed).  At ``load_at``, the program
instantiates ``Square`` for the first time -- the moment Jikes RVM's
class loader would broaden the hierarchy -- which must invalidate the
devirtualized code and force a recompile that now needs profile-guided
guards.

Used by ``examples/class_loading.py`` and the invalidation tests.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.jvm.program import (Arg, Const, If, Let, Local, Loop, Lt, Mod,
                               New, Program, Return, StaticCall,
                               VirtualCall, Work)
from repro.workloads.builder import ProgramBuilder


class LazyLoadingProgram(NamedTuple):
    program: Program
    area_site: int
    iterations: int
    load_at: int


def build(iterations: int = 30_000,
          load_fraction: float = 0.6) -> LazyLoadingProgram:
    """Build the program; ``Square`` first loads at ``load_fraction``."""
    load_at = int(iterations * load_fraction)
    b = ProgramBuilder("lazy_loading")
    b.cls("Shape")
    b.cls("Circle", superclass="Shape")
    b.cls("Square", superclass="Shape")
    b.cls("App")

    b.method("Shape", "area", [Work(10), Return(Const(0))], params=1)
    b.method("Circle", "area", [Work(10), Return(Const(1))], params=1)
    b.method("Square", "area", [Work(10), Return(Const(2))], params=1)

    # The hot method: receiver arrives as a parameter of the compiled
    # root (pre-existence holds), so loaded-world CHA devirtualizes
    # without a guard.  The method is deliberately *large* so it is always
    # compiled as its own root -- inlined copies would not satisfy
    # root-activation pre-existence and would be guarded instead.
    area_site = b.site()
    b.static_method("App", "measure", [
        Work(52),
        VirtualCall(area_site, "area", Arg(0), dst=0),
        Work(52),
        Return(Local(0)),
    ], params=1, locals_=2)

    measure_site = b.site()
    b.static_method("App", "main", [
        New(0, "Circle"),
        Loop(Const(iterations), 1, [
            # Past the load point, odd iterations use a fresh Square.
            If(Lt(Local(1), Const(load_at)),
               [Let(2, Local(0))],
               [If(Mod(Local(1), Const(2)),
                   [New(3, "Square"), Let(2, Local(3))],
                   [Let(2, Local(0))])]),
            StaticCall(measure_site, "App.measure", [Local(2)], dst=4),
        ]),
        Return(Const(0)),
    ], params=0, locals_=6)
    b.entry("App.main")
    return LazyLoadingProgram(b.build(), area_site, iterations, load_at)
