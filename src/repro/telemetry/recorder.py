"""Deterministic telemetry recording on the simulated cycle clock.

The recorder is the write side of the ``repro.telemetry`` subsystem.  It
is a machine event sink (DESIGN.md, "Events") that reads the machine it
watches: ``begin`` and ``end`` bracket **spans** (intervals on the
simulated clock); invalidations, OSR requests and transfers, and
rule-set changes become **instants**; oracle verdicts and progress marks
bump **counters**; and each install or invalidation samples the code
space as **gauges**.  Everything is timestamped with the machine's cycle
clock, so two runs of the same configuration produce byte-identical
telemetry.

Like every event sink, telemetry is pure instrumentation: it charges no
simulated cycles and changes no decisions, so a traced run and an
untraced run are cycle-identical.  An untraced run fires no event at
all.

Exact cost attribution
----------------------

A span's wall extent is the clock interval it covers, but its
``self_cycles`` is the delta of the *component's* cycle accumulator
(:class:`~repro.aos.cost_accounting.CostAccounting`) between begin and
end.  Because each instrumented region charges exactly one component,
summing ``self_cycles`` per component reproduces the cost-accounting
totals exactly -- even when spans of different components nest (a timer
tick firing inside a baseline compile, say).  A region that knows its
exact cost passes ``self_cycles`` to ``end`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.aos.cost_accounting import AI_ORGANIZER, APP, CONTROLLER
from repro.jvm.costs import CENTI


@dataclass
class SpanRecord:
    """One closed span: a named interval on one component's track."""

    component: str
    name: str
    begin: float
    end: float
    self_cycles: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.begin


@dataclass
class InstantRecord:
    """One point event on a component's track (invalidation, OSR, ...)."""

    component: str
    name: str
    clock: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TelemetrySnapshot:
    """A frozen copy of everything a recorder collected.

    Snapshots are what the exporters (:mod:`repro.telemetry.chrome_trace`,
    :mod:`repro.telemetry.summary`) consume.
    """

    label: str
    total_cycles: float
    spans: List[SpanRecord] = field(default_factory=list)
    instants: List[InstantRecord] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    counter_series: Dict[str, List[Tuple[float, float]]] = \
        field(default_factory=dict)


class _OpenSpan:
    __slots__ = ("component", "name", "begin", "begin_cycles", "args")

    def __init__(self, component: str, name: str, begin: float,
                 begin_cycles: float, args: Dict[str, Any]):
        self.component = component
        self.name = name
        self.begin = begin
        self.begin_cycles = begin_cycles
        self.args = args


class TelemetryRecorder:
    """Collects spans, instants, counters and gauges from the events of
    the machine it watches."""

    #: The watched machine; the adaptive runtime sets it.
    machine = None

    def __init__(self, label: str = "run"):
        self.label = label
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.counter_series: Dict[str, List[Tuple[float, float]]] = {}
        #: Telemetry names no progress points of its own: it counts the
        #: marks of the points the other sinks name.
        self.loops: Dict[int, str] = {}
        #: Open spans, innermost last.
        self._open: List[_OpenSpan] = []

    # -- reading the machine -----------------------------------------------------

    def _clock(self) -> float:
        """The clock in cycles."""
        return self.machine.clock / CENTI

    def _component_cycles(self, component: str) -> float:
        """``component``'s cycles so far (0 for a non-accounting track)."""
        machine = self.machine
        if component == APP:
            return machine.accounting.app(machine.clock) / CENTI
        return machine.accounting.cycles.get(component, 0) / CENTI

    # -- recording ---------------------------------------------------------------

    def instant(self, component: str, name: str, **args: Any) -> None:
        """Record a point event on ``component``'s track."""
        self.instants.append(
            InstantRecord(component, name, self._clock(), dict(args)))

    def count(self, name: str, delta: float = 1.0) -> None:
        """Bump a monotonic counter and record its timeline sample."""
        value = self.counters.get(name, 0.0) + delta
        self.counters[name] = value
        self.counter_series.setdefault(name, []).append(
            (self._clock(), value))

    def gauge(self, name: str, value: float) -> None:
        """Sample an absolute (non-monotonic) value over time."""
        self.gauges[name] = value
        self.counter_series.setdefault(name, []).append(
            (self._clock(), value))

    def _code_space(self) -> None:
        cache = self.machine.code_cache
        self.gauge("code_cache.live_opt_code_bytes",
                   cache.live_opt_code_bytes())
        self.gauge("code_cache.installed_methods", len(cache.opt_methods()))

    # -- events (DESIGN.md, "Events") --------------------------------------------

    def begin(self, component: str, name: str, **args: Any) -> None:
        """Open a span on ``component``'s track."""
        self._open.append(_OpenSpan(component, name, self._clock(),
                                    self._component_cycles(component), args))

    def end(self, self_cycles: Optional[float] = None, **args: Any) -> None:
        """Close the innermost open span; ``self_cycles`` overrides the
        accounting delta."""
        open_span = self._open.pop()
        if self_cycles is None:
            self_cycles = (self._component_cycles(open_span.component)
                           - open_span.begin_cycles)
        open_span.args.update(args)
        self.spans.append(SpanRecord(
            open_span.component, open_span.name, open_span.begin,
            self._clock(), self_cycles, open_span.args))

    def decision(self, root, version, stmt, comp_context, depth,
                 current_size, decision) -> None:
        self.count("oracle.decisions")
        if decision.inline:
            self.count("oracle.inlines.guarded" if decision.guarded
                       else "oracle.inlines.direct")

    def compile(self, plan, compiled, replaced) -> None:
        self._code_space()

    def invalidate(self, removed, selector: str, loaded_class: str) -> None:
        self._code_space()
        self.instant(CONTROLLER, "invalidation", method=removed.method.id,
                     selector=selector, loaded_class=loaded_class)

    def osr(self, method_id: str) -> None:
        self.instant(CONTROLLER, "osr_request", method=method_id)

    def osr_entry(self, method_id: str, loop_stmt, locals_) -> None:
        self.instant(APP, "osr_transfer", method=method_id)

    def rules(self, rules) -> None:
        self.instant(AI_ORGANIZER, "rules_changed", rules=len(rules))

    def progress(self, name: str) -> None:
        self.count(f"progress/{name}")

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the recorder into a picklable snapshot.

        Any still-open spans are closed at the current clock (defensive;
        balanced instrumentation never leaves spans open).
        """
        while self._open:
            self.end()
        return TelemetrySnapshot(
            label=self.label,
            total_cycles=self._clock(),
            spans=list(self.spans),
            instants=list(self.instants),
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            counter_series={name: list(points) for name, points
                            in self.counter_series.items()})
