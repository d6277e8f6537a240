"""The zero-overhead contract, as one test.

Every instrumentation surface -- telemetry, decision provenance,
progress points, dispatch/epoch observers -- must charge zero simulated
cycles and change zero decisions.  The contract is what makes the
observability stack trustworthy: a recorded run *is* the stock run, and
cached results stay valid whether or not they were recorded.

The anchor is the committed golden decision log (the hashmap example
under fixed:2): a fully bare run must be cycle-identical to the
provenance-recorded run that the golden log pins, and piling every
instrument onto one run must change nothing either.
"""

import os

from repro.aos.runtime import AdaptiveRuntime
from repro.policies import make_policy
from repro.provenance import NULL_PROVENANCE, ProvenanceRecorder
from repro.telemetry import NULL_RECORDER, TelemetryRecorder
from repro.telemetry.progress import ProgressTracker
from repro.workloads.hashmap_example import build as build_hashmap

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "hashmap_fixed2.decisions.jsonl")


def _bare_run():
    """The stock configuration: every instrument at its null default."""
    built = build_hashmap(iterations=4000)
    runtime = AdaptiveRuntime(built.program, make_policy("fixed", 2),
                              telemetry=NULL_RECORDER,
                              provenance=NULL_PROVENANCE)
    assert runtime.machine.dispatch_observer is None
    assert not runtime.machine.progress_loops
    return runtime.run()


def _fully_instrumented_run():
    """Same run with every instrument attached at once."""
    built = build_hashmap(iterations=4000)
    runtime = AdaptiveRuntime(
        built.program, make_policy("fixed", 2),
        telemetry=TelemetryRecorder(label="contract"),
        provenance=ProvenanceRecorder(label="contract"),
        progress=ProgressTracker(label="contract"))
    return runtime.run()


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


def test_full_instrumentation_changes_nothing():
    bare = _fingerprint(_bare_run())
    instrumented = _fingerprint(_fully_instrumented_run())
    assert instrumented == bare


def test_speculation_is_off_by_default():
    """Guard elision is opt-in, never ambient: the default cost model
    keeps the speculation pass off, so stock runs -- including the run
    the golden log pins -- never construct the planner or its analysis
    at all."""
    from repro.jvm.costs import DEFAULT_COSTS
    assert DEFAULT_COSTS.speculation_enabled is False
    built = build_hashmap(iterations=4000)
    runtime = AdaptiveRuntime(built.program, make_policy("fixed", 2))
    assert runtime.planner is None


def test_speculation_disabled_run_matches_golden_byte_for_byte():
    """Explicitly disabling speculation is the same as the default: the
    recorded decision log reproduces the committed golden file exactly
    (modulo the label header, which names the run)."""
    from repro.jvm.costs import DEFAULT_COSTS
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
