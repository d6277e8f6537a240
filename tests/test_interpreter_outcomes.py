"""Simulated-outcome pins for the execution engine.

The golden decision log covers one program under one policy.  This pins
what the interpreter computes across the whole workload suite: the eight
generated programs at scale 0.05, at seed offsets 0 and 1, each under
seven configurations that between them exercise baseline and optimized
tiers, inlined bodies, guards, every guard plan (elided guards,
cheap-exit deoptimization, the ``planned`` strategy) and OSR.  Per run
it records the exact total cycles (``repr``), the per-component cycles,
the return value and every ``MachineStats`` counter.

Any change to how the engine charges or executes shows up here, so a
rewrite of the interpreter must reproduce the file bit for bit.  The
pins include runs whose meaning is wrong: :data:`MEANING_DEFECTS` lists
the ``planned`` cells that compute something other than the stock run,
and :func:`test_configuration_preserves_program_meaning` keeps them
visible as strict xfails.

Regenerate after an intentional change to simulated behaviour with::

    PYTHONPATH=src python tests/test_interpreter_outcomes.py
"""

import json
import os

import pytest

from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.interpreter import MachineStats
from repro.policies import make_policy
from repro.workloads.spec import build_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "interpreter_outcomes.json")

PROGRAMS = ("compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack",
            "SPECjbb2000")
SCALE = 0.05
SEED_OFFSETS = (0, 1)

#: label -> (policy family, depth, cost-model overrides)
CONFIGS = {
    "cins": ("cins", 1, {}),
    "cins+spec": ("cins", 1, {"speculation_enabled": True}),
    "cins+planned": ("cins", 1, {"deopt_planning_enabled": True,
                                 "deopt_strategy": "planned"}),
    "fixed:3": ("fixed", 3, {}),
    "hybrid2:4+spec+exit": ("hybrid2", 4, {"speculation_enabled": True,
                                           "deopt_planning_enabled": True,
                                           "deopt_strategy": "osr-exit"}),
    "hybrid2:4+spec+planned": ("hybrid2", 4, {
        "speculation_enabled": True, "deopt_planning_enabled": True,
        "deopt_strategy": "planned"}),
    "static-k:2": ("static-k", 2, {}),
}


def _value(value):
    if isinstance(value, int):
        return value
    return repr(type(value).__name__)


def outcome(program: str, offset: int, label: str) -> dict:
    family, depth, overrides = CONFIGS[label]
    costs = DEFAULT_COSTS.replace(**overrides)
    built = build_benchmark(program, SCALE, seed_offset=offset)
    runtime = AdaptiveRuntime(built.program,
                              make_policy(family, depth, costs), costs)
    result = runtime.run()
    stats = runtime.machine.stats
    return {
        "total_cycles": repr(result.total_cycles),
        "component_cycles": {name: repr(cycles) for name, cycles
                             in sorted(result.component_cycles.items())},
        "return_value": _value(result.return_value),
        "stats": {field: getattr(stats, field)
                  for field in MachineStats.__slots__},
    }


def run_key(program: str, offset: int, label: str) -> str:
    return f"{program}#{offset}/{label}"


def current_outcomes() -> dict:
    return {run_key(program, offset, label): outcome(program, offset, label)
            for program in PROGRAMS for offset in SEED_OFFSETS
            for label in CONFIGS}


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_run():
    assert sorted(_golden()) == sorted(
        run_key(program, offset, label) for program in PROGRAMS
        for offset in SEED_OFFSETS for label in CONFIGS)


#: Runs whose meaning differs from the stock run of the same program: the
#: ``planned`` strategy elides the guard of a single profile target while
#: another implementation is already loaded (see ``plan_site``).
MEANING_DEFECTS = frozenset({
    "compress#1/cins+planned", "db#1/cins+planned", "javac#0/cins+planned",
    "compress#0/hybrid2:4+spec+planned", "mtrt#0/hybrid2:4+spec+planned",
})


def _meaning(pinned: dict) -> tuple:
    """What a run computes, which no inlining or guard plan may change:
    the return value, source-level invocations, virtual call sites
    executed and raw work units."""
    stats = pinned["stats"]
    return (pinned["return_value"], stats["calls"] + stats["inline_entries"],
            stats["virtual_calls"], stats["work_cycles"])


def _meaning_cells():
    for program in PROGRAMS:
        for offset in SEED_OFFSETS:
            for label in CONFIGS:
                key = run_key(program, offset, label)
                marks = (pytest.mark.xfail(strict=True, reason=(
                    "planned elides a guard another loaded class fails"))
                    if key in MEANING_DEFECTS else ())
                yield pytest.param(program, offset, label, marks=marks,
                                   id=key)


@pytest.mark.parametrize("program,offset,label", _meaning_cells())
def test_configuration_preserves_program_meaning(program, offset, label):
    golden = _golden()
    stock = golden[run_key(program, offset, "cins")]
    assert _meaning(golden[run_key(program, offset, label)]) == \
        _meaning(stock)


@pytest.mark.parametrize("program", PROGRAMS)
def test_outcomes_match_golden(program):
    golden = _golden()
    for offset in SEED_OFFSETS:
        for label in CONFIGS:
            key = run_key(program, offset, label)
            assert outcome(program, offset, label) == golden[key], (
                f"{key} drifted from {GOLDEN_PATH} (intentional? "
                f"regenerate: PYTHONPATH=src python "
                f"tests/test_interpreter_outcomes.py)")


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(current_outcomes(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH}")
