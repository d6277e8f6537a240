"""Deterministic telemetry recording on the simulated cycle clock.

The recorder is the write side of the ``repro.telemetry`` subsystem:
components open **spans** (begin/end intervals on the simulated clock),
bump **counters**, sample **gauges**, and feed **histograms**; as a
machine event sink (DESIGN.md, "Events") it records **instants** for
invalidations, OSR requests and transfers, and rule-set changes.
Everything is timestamped with the machine's cycle clock, so two runs of
the same configuration produce byte-identical telemetry.

Like every event sink, telemetry is pure instrumentation: it charges no
simulated cycles and changes no decisions, so a traced run and an
untraced run are cycle-identical.  Un-instrumented runs pay nothing at
all -- every instrumentation point defaults to the :data:`NULL_RECORDER`
singleton, whose methods are all no-ops and which consumes no event.

Exact cost attribution
----------------------

A span's wall extent is the clock interval it covers, but its
``self_cycles`` is the delta of the *component's* cycle accumulator
(:class:`~repro.aos.cost_accounting.CostAccounting`) between begin and
end.  Because each instrumented region charges exactly one component,
summing ``self_cycles`` per component reproduces the cost-accounting
totals exactly -- even when spans of different components nest (a timer
tick firing inside a baseline compile, say).  Call sites that know their
exact cost can pass ``self_cycles`` explicitly to ``end_span`` instead.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.aos.cost_accounting import AI_ORGANIZER, APP, CONTROLLER


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
class HistogramData:
    """A log2-bucketed histogram of observed values."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: bucket index -> count; bucket ``i`` holds values in (2^(i-1), 2^i].
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        index = 0 if value <= 1.0 else int(math.ceil(math.log2(value)))
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


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
    histograms: Dict[str, HistogramData] = field(default_factory=dict)


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
    """Collects spans, instants, counters, gauges, and histograms.

    The recorder is passive until :meth:`bind` attaches it to a clock
    source (and optionally a per-component cycle accumulator); the
    adaptive runtime does this when it is handed a recorder.
    """

    enabled = True

    def __init__(self, label: str = "run"):
        self.label = label
        self._clock: Callable[[], float] = lambda: 0.0
        self._component_cycles: Callable[[str], float] = lambda component: 0.0
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.counter_series: Dict[str, List[Tuple[float, float]]] = {}
        self.histograms: Dict[str, HistogramData] = {}
        self._open: Dict[int, _OpenSpan] = {}
        self._next_id = 1

    # -- wiring ------------------------------------------------------------------

    def bind(self, clock: Callable[[], float],
             component_cycles: Optional[Callable[[str], float]] = None) \
            -> None:
        """Attach the clock (and per-component cycle) sources."""
        self._clock = clock
        if component_cycles is not None:
            self._component_cycles = component_cycles

    # -- spans -------------------------------------------------------------------

    def begin_span(self, component: str, name: str, **args: Any) -> int:
        """Open a span on ``component``'s track; returns its handle."""
        span_id = self._next_id
        self._next_id += 1
        self._open[span_id] = _OpenSpan(
            component, name, self._clock(),
            self._component_cycles(component), dict(args))
        return span_id

    def end_span(self, span_id: int,
                 self_cycles: Optional[float] = None, **args: Any) -> None:
        """Close a span; ``self_cycles`` overrides the accounting delta."""
        open_span = self._open.pop(span_id, None)
        if open_span is None:
            return
        end = self._clock()
        if self_cycles is None:
            self_cycles = (self._component_cycles(open_span.component)
                           - open_span.begin_cycles)
        if args:
            open_span.args.update(args)
        self.spans.append(SpanRecord(
            open_span.component, open_span.name, open_span.begin, end,
            self_cycles, open_span.args))

    @contextmanager
    def span(self, component: str, name: str, **args: Any):
        """Context manager form of :meth:`begin_span`/:meth:`end_span`."""
        span_id = self.begin_span(component, name, **args)
        try:
            yield span_id
        finally:
            self.end_span(span_id)

    # -- instants, counters, gauges, histograms ----------------------------------

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

    def observe(self, name: str, value: float) -> None:
        """Feed one observation into the named histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = HistogramData()
        histogram.observe(value)

    # -- events (DESIGN.md, "Events") --------------------------------------------

    def invalidate(self, removed, selector: str, loaded_class: str) -> None:
        self.instant(CONTROLLER, "invalidation", method=removed.method.id,
                     selector=selector, loaded_class=loaded_class)

    def osr(self, method_id: str) -> None:
        self.instant(CONTROLLER, "osr_request", method=method_id)

    def osr_entry(self, method_id: str, loop_stmt, locals_) -> None:
        self.instant(APP, "osr_transfer", method=method_id)

    def rules(self, rules) -> None:
        self.instant(AI_ORGANIZER, "rules_changed", rules=len(rules))

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the recorder into a picklable snapshot.

        Any still-open spans are closed at the current clock (defensive;
        balanced instrumentation never leaves spans open).
        """
        for span_id in sorted(self._open):
            self.end_span(span_id)
        return TelemetrySnapshot(
            label=self.label,
            total_cycles=self._clock(),
            spans=list(self.spans),
            instants=list(self.instants),
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            counter_series={name: list(points) for name, points
                            in self.counter_series.items()},
            histograms={name: HistogramData(h.count, h.total, h.minimum,
                                            h.maximum, dict(h.buckets))
                        for name, h in self.histograms.items()})


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return 0

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """A do-nothing recorder: every instrumentation point is a no-op.

    This is the zero-overhead contract: instrumented code paths call
    through this singleton by default, charge no simulated cycles, and
    allocate nothing, so un-traced runs are cycle-identical to traced
    ones (and to pre-telemetry builds).
    """

    enabled = False

    def bind(self, clock, component_cycles=None) -> None:
        pass

    def begin_span(self, component: str, name: str, **args: Any) -> int:
        return 0

    def end_span(self, span_id: int,
                 self_cycles: Optional[float] = None, **args: Any) -> None:
        pass

    def span(self, component: str, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, component: str, name: str, **args: Any) -> None:
        pass

    def count(self, name: str, delta: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(label="null", total_cycles=0.0)


#: Shared no-op recorder used as the default at every instrumentation point.
NULL_RECORDER = NullRecorder()
