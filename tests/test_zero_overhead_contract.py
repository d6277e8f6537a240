"""The zero-overhead contract, as one test.

Every instrumentation surface -- telemetry, decision provenance and the
machine's event sink (progress points, the soundness replays' consumers,
the fleet's epoch capture) -- must charge zero simulated cycles and
change zero decisions.  The contract is what makes the observability
stack trustworthy: a recorded run *is* the stock run, cached results
stay valid whether or not they were recorded, and the soundness replays'
numbers are the stock numbers of their configuration.

The anchor is the committed golden decision log (the hashmap example
under fixed:2): a fully bare run must be cycle-identical to the
provenance-recorded run that the golden log pins, and piling every
instrument onto one run -- with a sink consuming every event -- must
change nothing either.
"""

import os

import pytest

from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.interpreter import NULL_EVENTS
from repro.policies import make_policy
from repro.provenance import NULL_PROVENANCE, ProvenanceRecorder
from repro.telemetry import NULL_RECORDER, TelemetryRecorder
from repro.telemetry.progress import ProgressTracker
from repro.workloads.hashmap_example import build as build_hashmap
from repro.workloads.spec import build_benchmark

from conftest import build_diamond_program

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "hashmap_fixed2.decisions.jsonl")

#: name -> (program builder, (policy family, depth), cost overrides,
#: events the run fires); between them the inputs fire all seven.
INPUTS = {
    # The golden workload.
    "hashmap-fixed2": (lambda: build_hashmap(iterations=4000).program,
                       ("fixed", 2), {},
                       {"dispatch", "osr_entry", "local", "progress",
                        "epoch"}),
    # Deoptimization exits.
    "mtrt-planned": (lambda: build_benchmark("mtrt", scale=0.05).program,
                     ("hybrid2", 4),
                     {"speculation_enabled": True,
                      "deopt_planning_enabled": True,
                      "deopt_strategy": "planned"},
                     {"dispatch", "osr_entry", "deopt_exit", "local",
                      "progress", "epoch"}),
    # Elided guards: speculation on, planning off.
    "mtrt-speculation": (lambda: build_benchmark("mtrt", scale=0.05).program,
                         ("hybrid2", 4), {"speculation_enabled": True},
                         {"dispatch", "elided", "osr_entry", "local",
                          "progress", "epoch"}),
    # The dispatch-edge soundness replay's unit-test program.
    "diamond-cins": (lambda: build_diamond_program()[0], ("cins", 1), {},
                     {"dispatch", "local", "progress"}),
}


class EverySink(ProgressTracker):
    """A progress tracker that consumes the six other events as well,
    recording which of the seven fired."""

    def __init__(self):
        super().__init__(label="contract")
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

    def epoch(self, runtime, epoch):
        self.fired.add("epoch")


def _runtime(name, **instruments):
    build, (family, depth), overrides, _fires = INPUTS[name]
    costs = DEFAULT_COSTS.replace(**overrides)
    return AdaptiveRuntime(build(), make_policy(family, depth, costs),
                           costs, **instruments)


def _bare_run(name="hashmap-fixed2"):
    """The stock configuration: every instrument at its null default."""
    runtime = _runtime(name, telemetry=NULL_RECORDER,
                       provenance=NULL_PROVENANCE)
    assert runtime.machine.events is NULL_EVENTS
    return runtime.run()


def _fully_instrumented_run(name, sink):
    """Same run with every instrument attached at once."""
    return _runtime(name, telemetry=TelemetryRecorder(label="contract"),
                    provenance=ProvenanceRecorder(label="contract"),
                    progress=sink).run()


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
                               provenance=recorder).run()
    with open(GOLDEN_PATH) as handle:
        assert recorder.to_jsonl() == handle.read()
    assert _fingerprint(_bare_run()) == _fingerprint(recorded)


@pytest.mark.parametrize("name", INPUTS)
def test_full_instrumentation_changes_nothing(name):
    bare = _fingerprint(_bare_run(name))
    sink = EverySink()
    instrumented = _fingerprint(_fully_instrumented_run(name, sink))
    assert instrumented == bare
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
                    costs=costs, provenance=recorder).run()
    with open(GOLDEN_PATH) as handle:
        assert recorder.to_jsonl() == handle.read()


def test_progress_tracking_alone_is_cycle_neutral():
    tracker = ProgressTracker(label="contract")
    built = build_hashmap(iterations=4000)
    tracked = AdaptiveRuntime(built.program, make_policy("fixed", 2),
                              progress=tracker).run()
    bare = _bare_run()
    assert tracked.total_cycles == bare.total_cycles
    assert tracked.component_cycles == bare.component_cycles
    # ...while still having actually measured something.
    assert tracker.total_marks() > 0
    assert tracked.progress_points is not None
    assert bare.progress_points is None
