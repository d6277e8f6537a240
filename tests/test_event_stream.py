"""One event stream: ``join_sinks``, and each AOS event firing once into
every consumer of the run's sink."""

import pytest

from repro.aos.event_log import EventLog
from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.costs import CENTI
from repro.jvm.interpreter import EVENTS, NULL_EVENTS, join_sinks
from repro.policies import make_policy
from repro.provenance import ProvenanceRecorder
from repro.telemetry import TelemetryRecorder
from repro.workloads import lazy_loading


class OsrAndProgress:
    """Consumes ``osr`` and ``progress``, noting every call."""

    def __init__(self, loops=None):
        self.calls = []
        self.loops = loops or {}

    def osr(self, method_id):
        self.calls.append(("osr", method_id))

    def progress(self, name):
        self.calls.append(("progress", name))


class OnlyRules:
    def __init__(self):
        self.calls = []

    def rules(self, rules):
        self.calls.append(("rules", rules))


class Compiles:
    """Consumes ``compile``, noting each compilation and what it
    replaced."""

    #: The watched machine; the adaptive runtime sets it.
    machine = None

    def __init__(self):
        self.calls = []

    def compile(self, plan, compiled, replaced):
        self.calls.append((self.machine.clock / CENTI, plan.method_id,
                           plan.version,
                           None if replaced is None else replaced.version))


class TestJoinSinks:
    def test_no_member_is_the_null_sink(self):
        assert join_sinks() is NULL_EVENTS
        assert join_sinks(None, NULL_EVENTS, object()) is NULL_EVENTS

    def test_one_member_is_that_member(self):
        member = OnlyRules()
        assert join_sinks(member) is member
        assert join_sinks(None, member, NULL_EVENTS) is member

    def test_exposes_only_consumed_events(self):
        joined = join_sinks(OsrAndProgress(), OnlyRules())
        assert [name for name in EVENTS if hasattr(joined, name)] == [
            "progress", "osr", "rules"]

    def test_shared_event_reaches_every_member(self):
        first, second, third = OsrAndProgress(), OsrAndProgress(), \
            OnlyRules()
        joined = join_sinks(first, second, third)
        joined.osr("C.m")
        joined.rules([])
        assert first.calls == second.calls == [("osr", "C.m")]
        assert third.calls == [("rules", [])]

    def test_progress_loops_are_the_members_union(self):
        joined = join_sinks(OsrAndProgress({1: "main"}),
                            OsrAndProgress({2: "phase1"}), OnlyRules())
        assert joined.loops == {1: "main", 2: "phase1"}


class TestEachEventFiresOnce:
    """Telemetry, provenance and an event log joined on one run that
    invalidates, recompiles and requests OSR: each consumer sees each
    event once."""

    @pytest.fixture(scope="class")
    def run(self):
        built = lazy_loading.build(iterations=15_000)
        telemetry = TelemetryRecorder(label="stream")
        provenance = ProvenanceRecorder(label="stream")
        log = EventLog()
        compiles = Compiles()
        runtime = AdaptiveRuntime(built.program, make_policy("cins", 1),
                                  sinks=[telemetry, provenance, log,
                                         compiles])
        requests = []
        forward = runtime.controller.osr_request

        def osr_request(method_id):
            requests.append((runtime.machine.clock / CENTI, method_id))
            forward(method_id)

        runtime.controller.osr_request = osr_request
        result = runtime.run()
        return (result, requests, telemetry.snapshot(), provenance, log,
                compiles.calls)

    @staticmethod
    def _seen(run, kind, instant):
        _result, _requests, snapshot, provenance, log, _compiles = run
        return ([(e.clock, e.subject) for e in log.of_kind(kind)],
                [(e.clock, e.subject) for e in provenance.events
                 if e.kind == kind],
                [(i.clock, i.args["method"]) for i in snapshot.instants
                 if i.name == instant])

    def test_each_invalidation_once(self, run):
        logged, recorded, traced = self._seen(run, "invalidate",
                                              "invalidation")
        assert len(logged) == run[0].invalidations >= 1
        assert logged == recorded == traced

    def test_each_osr_request_once(self, run):
        logged, recorded, traced = self._seen(run, "osr", "osr_request")
        requests = run[1]
        assert requests
        assert logged == recorded == traced == requests

    def test_each_compilation_once(self, run):
        result, _requests, snapshot, provenance, log, compiles = run
        logged = [(e.clock, e.subject, int(e.detail["version"][1:]))
                  for e in log.of_kind("compile")]
        recorded = [(c.clock, c.method, c.version)
                    for c in provenance.compilations]
        traced = [(s.end, s.args["method"], s.args["version"])
                  for s in snapshot.spans if s.name == "opt_compile"]
        assert len(recorded) == result.opt_compilations >= 1
        assert logged == recorded == traced == [c[:3] for c in compiles]
        # An eviction record follows each compilation that replaced
        # installed code, and no other.
        evictions = [(e.clock, e.subject, e.detail["replaced_by"],
                      e.detail["version"]) for e in provenance.events
                     if e.kind == "eviction"]
        assert evictions
        assert evictions == [c for c in compiles if c[3] is not None]

    def test_each_decision_once(self, run):
        _result, _requests, snapshot, provenance, _log, _compiles = run
        assert provenance.decisions
        assert (len(provenance.decisions)
                == snapshot.counters["oracle.decisions"])
