"""Guard-plan table: what runs at each shape of guarded site, per setting.

One small program -- ``Shape`` with ``Circle``, ``Square`` and
``Exotic`` overrides of ``area``, plus ``Other``, an unrelated class
that is allocated too -- is compiled under nine settings of
``speculation_enabled``, ``deopt_planning_enabled``, ``deopt_strategy``
and the speculation elide threshold, at seven shapes of virtual site:

* ``sole-inlined-arg`` -- one loaded implementation, receiver an
  argument of an inlined callee that preexists the root activation;
* ``sole-fresh`` -- one loaded implementation, receiver allocated in
  the compiled method;
* ``two-covering`` -- two profile targets that cover every loaded class;
* ``three-covering`` -- three profile targets that cover every
  allocatable class that understands ``area``, so no class load can
  reach the site outside them;
* ``one-of-two-loaded`` -- one profile target, a second class loaded;
* ``two-of-three-loaded`` -- two profile targets, a third class loaded;
* ``one-of-all-loaded`` -- one profile target, every class loaded.

Each cell compiles the shape's root through the runtime's own
controller (an OSR request) and compilation thread, then records the
elided guards, the guard-test count, the decision log's reason, guard
kind and coverage, the CHA dependencies recorded and the cheap-exit
live set.  The loaded-sole shapes carry samples so that the table shows
which settings record their coverage.  The expectations live in
``tests/golden/guard_plans.json``; regenerate after an intentional
change with::

    PYTHONPATH=src python tests/test_guard_plans.py
"""

import json
import os

import pytest

from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.compiled_method import PLAN_OSR_EXIT
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.program import (Arg, Const, Local, New, Return, StaticCall,
                               VirtualCall, Work)
from repro.policies import make_policy
from repro.profiles.trace import InlineRule, TraceKey
from repro.provenance import ProvenanceRecorder
from repro.workloads.builder import ProgramBuilder

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "guard_plans.json")

#: The virtual site every profile shape compiles: ``App.use``'s call.
USE_SITE = ("App.use", 0)

SPEC = {"speculation_enabled": True}


def _planning(strategy: str) -> dict:
    return {"deopt_planning_enabled": True, "deopt_strategy": strategy}


#: label -> cost-model overrides
CONFIGS = {
    "stock": {},
    "spec": SPEC,
    "guard": _planning("guard"),
    "guard+spec": {**_planning("guard"), **SPEC},
    "osr-exit": _planning("osr-exit"),
    "osr-exit+spec": {**_planning("osr-exit"), **SPEC},
    "planned": _planning("planned"),
    "planned+spec": {**_planning("planned"), **SPEC},
    "spec+elide0": {**SPEC, "speculation_elide_max_risk": 0.0},
}

#: The virtual site the fresh-receiver shapes compile.
FRESH_SITE = ("App.fresh", 20)

#: shape -> (root, virtual site, loaded classes, rule targets,
#: sampled (callee, weight) pairs at the site)
SHAPES = {
    "sole-inlined-arg": ("App.outer", USE_SITE, ("Circle",), (),
                         (("Circle.area", 4),)),
    "sole-fresh": ("App.fresh", FRESH_SITE, ("Circle",), (),
                   (("Circle.area", 4),)),
    "two-covering": ("App.use", USE_SITE, ("Circle", "Square"),
                     ("Circle.area", "Square.area"),
                     (("Circle.area", 6), ("Square.area", 4))),
    "three-covering": ("App.use", USE_SITE, ("Circle", "Square", "Exotic"),
                       ("Circle.area", "Square.area", "Exotic.area"),
                       (("Circle.area", 5), ("Square.area", 3),
                        ("Exotic.area", 2))),
    "one-of-two-loaded": ("App.use", USE_SITE, ("Circle", "Square"),
                          ("Circle.area",),
                          (("Circle.area", 9), ("Square.area", 1))),
    "two-of-three-loaded": ("App.use", USE_SITE,
                            ("Circle", "Square", "Exotic"),
                            ("Circle.area", "Square.area"),
                            (("Circle.area", 6), ("Square.area", 3),
                             ("Exotic.area", 1))),
    "one-of-all-loaded": ("App.use", USE_SITE,
                          ("Circle", "Square", "Exotic", "Other"),
                          ("Circle.area",),
                          (("Circle.area", 9), ("Square.area", 1))),
}

#: A stale profile at the fresh loaded-sole site: low coverage makes a
#: cheap exit dearer than the guard, so ``planned`` keeps the guard.
LOW_COVERAGE = ("App.fresh", FRESH_SITE, ("Circle",), (),
                (("Circle.area", 1), ("Square.area", 9)))

def shapes_program():
    b = ProgramBuilder("guardplans")
    b.cls("Shape")
    for name in ("Circle", "Square", "Exotic"):
        b.cls(name, superclass="Shape")
    b.cls("Other")
    b.cls("App")
    for value, name in enumerate(("Shape", "Circle", "Square", "Exotic")):
        b.method(name, "area", [Work(6), Return(Const(value))], params=1)
    b.static_method("App", "use", [
        VirtualCall(0, "area", Arg(0), dst=0), Return(Local(0)),
    ], params=1, locals_=2)
    b.static_method("App", "outer", [
        StaticCall(10, "App.use", args=(Arg(0),), dst=0), Return(Local(0)),
    ], params=1, locals_=2)
    b.static_method("App", "fresh", [
        New(1, "Circle"),
        VirtualCall(20, "area", Local(1), dst=0), Return(Local(0)),
    ], params=0, locals_=3)
    b.static_method("App", "main", [
        New(0, "Circle"), New(1, "Square"), New(2, "Exotic"), New(3, "Other"),
        Return(Const(0)),
    ], locals_=5)
    b.entry("App.main")
    return b.build()


def _exit_live(compiled):
    for node in compiled.root.walk():
        for decision in node.decisions.values():
            plan = decision.plan
            if plan is not None and plan.kind == PLAN_OSR_EXIT:
                return sorted(plan.live)
    return None


def compile_cell(overrides: dict, shape) -> dict:
    """Compile one shape's root under one setting; report its site."""
    root, site, loaded, rule_targets, sampled = shape
    program = shapes_program()
    costs = DEFAULT_COSTS.replace(**overrides)
    recorder = ProvenanceRecorder()
    runtime = AdaptiveRuntime(program, make_policy("cins", costs=costs),
                              costs, sinks=[recorder])
    for name in loaded:
        runtime.hierarchy.mark_loaded(name)
    for callee, weight in sampled:
        runtime.state.dcg.add(TraceKey(callee, (site,)), weight)
    runtime.state.rules = [InlineRule(TraceKey(callee, (site,)), 5.0, 0.5)
                           for callee in rule_targets]
    controller = runtime.controller
    controller.osr_request(root)
    controller.process_events(runtime.machine)
    runtime.compilation_thread.run(runtime.machine,
                                   controller.compilation_queue)
    compiled = runtime.code_cache.installed.get(root)
    (record,) = [r for r in recorder.decisions if r.site_kind == "virtual"]
    dependencies = runtime.database.cha_dependencies().get(root, {})
    return {
        "verdict": record.verdict,
        "reason": record.reason,
        "guard_kind": record.guard_kind,
        "coverage": record.coverage,
        "elisions": [list(entry) for entry in compiled.elisions()],
        "guards": compiled.guard_count(),
        "cha_dependencies": {
            selector: target if isinstance(target, str) else sorted(target)
            for selector, target in sorted(dependencies.items())},
        "exit_live": _exit_live(compiled),
    }


def cells() -> dict:
    table = {f"{config}/{shape}": (overrides, SHAPES[shape])
             for config, overrides in CONFIGS.items() for shape in SHAPES}
    table["planned/sole-fresh-low-coverage"] = (CONFIGS["planned"],
                                                LOW_COVERAGE)
    return table


def current_table() -> dict:
    return {key: compile_cell(*cell) for key, cell in cells().items()}


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_cell():
    assert sorted(_golden()) == sorted(cells())


@pytest.mark.parametrize("key", sorted(cells()))
def test_plan_matches_golden(key):
    assert compile_cell(*cells()[key]) == _golden()[key], (
        f"{key} drifted from {GOLDEN_PATH} (intentional? regenerate: "
        f"PYTHONPATH=src python tests/test_guard_plans.py)")


@pytest.mark.parametrize("key", [
    f"{config}/{shape}" for config in ("planned", "planned+spec")
    for shape in ("one-of-two-loaded", "one-of-all-loaded")])
def test_planned_keeps_guard_when_another_target_is_loaded(key):
    # One profile target while another implementation is loaded: only a
    # loaded-sole bind may skip the guard (see ``plan_site``).
    cell = compile_cell(*cells()[key])
    assert "preexist" not in [kind for _c, _s, kind, _t in cell["elisions"]]


@pytest.mark.parametrize("config", ["spec", "spec+elide0"])
def test_exhaustive_with_an_empty_cone_records_no_dependency(config):
    # The shape every workload's exhaustive query has: no class that can
    # still load reaches the site outside the targets, so the last guard
    # goes whatever the risk threshold, and no CHA dependency is needed.
    cell = compile_cell(*cells()[f"{config}/three-covering"])
    assert [kind for _c, _s, kind, _t in cell["elisions"]] == ["exhaustive"]
    assert cell["cha_dependencies"] == {}


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(current_table(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH}")
