"""The zero-overhead contract, as one test.

Every instrument -- telemetry, decision provenance, progress points and
the termination-statistics probe, all sinks of the machine's events like
the soundness replays' consumers and the AOS event log -- must charge
zero simulated cycles and change zero decisions.  The contract is what
makes the observability stack trustworthy: a recorded run *is* the stock
run, cached results stay valid whether or not they were recorded, and
the soundness replays' numbers are the stock numbers of their
configuration.

The anchor is the committed golden decision log (the hashmap example
under fixed:2): a fully bare run must be cycle-identical to the
provenance-recorded run that the golden log pins, and piling every
instrument onto one run -- with a sink consuming every event -- must
change nothing either.
"""

import os

import pytest

from repro.aos.listeners import TerminationStatsProbe
from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.interpreter import EVENTS, NULL_EVENTS
from repro.policies import make_policy
from repro.provenance import ProvenanceRecorder
from repro.telemetry import TelemetryRecorder
from repro.telemetry.progress import ProgressTracker, main_loop_points
from repro.workloads import lazy_loading
from repro.workloads.hashmap_example import build as build_hashmap
from repro.workloads.spec import build_benchmark

from conftest import build_diamond_program

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "hashmap_fixed2.decisions.jsonl")

#: What :class:`EverySink` notes for a ``compile`` that replaced
#: installed code (an eviction).
REPLACED = "compile:replaced"

#: The events every input fires (a span brackets each baseline compile).
RUN_EVENTS = {"dispatch", "local", "progress", "begin", "end"}

#: The adaptive system's events every input that compiles fires.
AOS_EVENTS = {"sample", "decision", "compile", "plan", "plan_deferred",
              "rules"}

#: name -> (program builder, (policy family, depth), cost overrides,
#: events the run fires); between them the inputs fire all seventeen,
#: and some compile replaces installed code.
INPUTS = {
    # The golden workload.
    "hashmap-fixed2": (lambda: build_hashmap(iterations=4000).program,
                       ("fixed", 2), {},
                       {"osr_entry", "osr"} | RUN_EVENTS | AOS_EVENTS),
    # Deoptimization exits.
    "mtrt-planned": (lambda: build_benchmark("mtrt", scale=0.05).program,
                     ("hybrid2", 4),
                     {"speculation_enabled": True,
                      "deopt_planning_enabled": True,
                      "deopt_strategy": "planned"},
                     {"osr_entry", "deopt_exit", REPLACED, "decay"}
                     | RUN_EVENTS | AOS_EVENTS),
    # Elided guards: speculation on, planning off.
    "mtrt-speculation": (lambda: build_benchmark("mtrt", scale=0.05).program,
                         ("hybrid2", 4), {"speculation_enabled": True},
                         {"elided", "osr_entry", REPLACED, "decay"}
                         | RUN_EVENTS | AOS_EVENTS),
    # The dispatch-edge soundness replay's unit-test program.
    "diamond-cins": (lambda: build_diamond_program()[0], ("cins", 1), {},
                     RUN_EVENTS),
    # CHA invalidation: the only input whose class load breaks code.
    "lazy-cins": (lambda: lazy_loading.build(iterations=15000).program,
                  ("cins", 1), {},
                  {"osr_entry", "osr", REPLACED, "invalidate", "decay"}
                  | RUN_EVENTS | AOS_EVENTS),
}


class EverySink(ProgressTracker):
    """A progress tracker over a program's main loops that consumes the
    sixteen other events as well, recording which of the seventeen
    fired."""

    def __init__(self, program):
        super().__init__(main_loop_points(program))
        self.fired = set()

    def progress(self, name):
        super().progress(name)
        self.fired.add("progress")

    def dispatch(self, site, target_id):
        self.fired.add("dispatch")

    def elided(self, site, kind, entered, resolved):
        self.fired.add("elided")

    def osr_entry(self, method_id, loop_stmt, locals_):
        self.fired.add("osr_entry")

    def deopt_exit(self, site, exit_live, locals_):
        self.fired.add("deopt_exit")

    def local(self, locals_, index, is_read):
        self.fired.add("local")

    def begin(self, component, name, **args):
        self.fired.add("begin")

    def end(self, self_cycles=None, **args):
        self.fired.add("end")

    def sample(self, stack):
        self.fired.add("sample")

    def decision(self, root, version, stmt, comp_context, depth,
                 current_size, decision):
        self.fired.add("decision")

    def compile(self, plan, compiled, replaced):
        self.fired.add("compile")
        if replaced is not None:
            self.fired.add(REPLACED)

    def invalidate(self, removed, selector, loaded_class):
        self.fired.add("invalidate")

    def osr(self, method_id):
        self.fired.add("osr")

    def rules(self, rules):
        self.fired.add("rules")

    def decay(self, total_weight):
        self.fired.add("decay")

    def plan(self, plan, rule_count):
        self.fired.add("plan")

    def plan_deferred(self, method_id, trigger, why, **evidence):
        self.fired.add("plan_deferred")


def _configuration(name):
    """Input ``name``'s freshly built program, its policy and costs."""
    build, (family, depth), overrides, _fires = INPUTS[name]
    costs = DEFAULT_COSTS.replace(**overrides)
    return build(), make_policy(family, depth, costs), costs


def _bare_run(name="hashmap-fixed2"):
    """The stock configuration: no instrument, so no event fires."""
    runtime = AdaptiveRuntime(*_configuration(name))
    assert runtime.machine.events is NULL_EVENTS
    return runtime.run()


def _fully_instrumented_run(name):
    """Same run with every instrument attached at once; returns its
    result and the sink consuming every event."""
    program, policy, costs = _configuration(name)
    sink = EverySink(program)
    result = AdaptiveRuntime(program, policy, costs, sinks=[
        sink, TelemetryRecorder(label="contract"),
        ProvenanceRecorder(label="contract"),
        TerminationStatsProbe(DEFAULT_COSTS)]).run()
    return result, sink


def _fingerprint(result) -> dict:
    """Every decision-sensitive observable of a run."""
    return {
        "total_cycles": result.total_cycles,
        "component_cycles": result.component_cycles,
        "opt_compilations": result.opt_compilations,
        "opt_code_bytes": result.opt_code_bytes,
        "live_opt_code_bytes": result.live_opt_code_bytes,
        "rule_count": result.rule_count,
        "guard_tests": result.guard_tests,
        "guard_misses": result.guard_misses,
        "dispatches": result.dispatches,
        "inline_entries": result.inline_entries,
        "invalidations": result.invalidations,
        "osr_transfers": result.osr_transfers,
        "samples_taken": result.samples_taken,
        "elided_entries": result.elided_entries,
        "deopt_entries": result.deopt_entries,
        "deopt_exits": result.deopt_exits,
    }


def test_bare_run_matches_golden_recorded_run():
    """A bare run is cycle-identical to the run the golden log pins.

    ``test_decision_log_golden`` pins the provenance-recorded run's log
    byte-for-byte against the committed golden file; here the *bare*
    run must reproduce that recorded run's observables exactly, closing
    the chain bare == recorded == golden.  The recorded log is also
    re-checked against the golden file so this test fails loudly on its
    own if the anchor ever drifts.
    """
    built = build_hashmap(iterations=4000)
    recorder = ProvenanceRecorder(label="golden/hashmap/fixed2")
    recorded = AdaptiveRuntime(built.program, make_policy("fixed", 2),
                               sinks=[recorder]).run()
    with open(GOLDEN_PATH) as handle:
        assert recorder.to_jsonl() == handle.read()
    assert _fingerprint(_bare_run()) == _fingerprint(recorded)


def test_every_event_is_covered():
    """A new event cannot skip the contract: the sink must consume it
    and some input must fire it."""
    assert [name for name in EVENTS
            if not callable(getattr(EverySink, name, None))] == []
    assert set().union(*(fires for *_, fires in INPUTS.values())) \
        == set(EVENTS) | {REPLACED}


@pytest.mark.parametrize("name", INPUTS)
def test_full_instrumentation_changes_nothing(name):
    bare = _fingerprint(_bare_run(name))
    result, sink = _fully_instrumented_run(name)
    assert _fingerprint(result) == bare
    # ...while the sink really was fed.
    assert sink.fired == INPUTS[name][3]


def test_speculation_is_off_by_default():
    """Guard elision is opt-in, never ambient: the default cost model
    keeps the speculation pass off, so stock runs -- including the run
    the golden log pins -- never construct the planner or its analysis
    at all."""
    assert DEFAULT_COSTS.speculation_enabled is False
    built = build_hashmap(iterations=4000)
    runtime = AdaptiveRuntime(built.program, make_policy("fixed", 2))
    assert runtime.planner is None


def test_speculation_disabled_run_matches_golden_byte_for_byte():
    """Explicitly disabling speculation is the same as the default: the
    recorded decision log reproduces the committed golden file exactly
    (modulo the label header, which names the run)."""
    costs = DEFAULT_COSTS.replace(speculation_enabled=False)
    built = build_hashmap(iterations=4000)
    recorder = ProvenanceRecorder(label="golden/hashmap/fixed2")
    AdaptiveRuntime(built.program, make_policy("fixed", 2, costs=costs),
                    costs=costs, sinks=[recorder]).run()
    with open(GOLDEN_PATH) as handle:
        assert recorder.to_jsonl() == handle.read()


def test_progress_tracking_alone_is_cycle_neutral():
    built = build_hashmap(iterations=4000)
    tracker = ProgressTracker(main_loop_points(built.program))
    tracked = AdaptiveRuntime(built.program, make_policy("fixed", 2),
                              sinks=[tracker]).run()
    bare = _bare_run()
    assert tracked.total_cycles == bare.total_cycles
    assert tracked.component_cycles == bare.component_cycles
    # ...while still having actually measured something, which the
    # tracker holds and the run's result does not.
    assert tracker.summary()["main"]["count"] == 4000
    assert tracked.progress_points is None
