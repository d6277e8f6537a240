"""Unified tracing/metrics for the adaptive optimization system.

The subsystem has four parts:

* :mod:`~repro.telemetry.recorder` -- deterministic spans, instants,
  counters and gauges on the simulated cycle clock, recorded by a
  machine event sink (an untraced run fires no event);
* :mod:`~repro.telemetry.chrome_trace` -- Chrome trace-event JSON export
  (open in Perfetto), one track per AOS component;
* :mod:`~repro.telemetry.summary` -- per-component overhead tables that
  reconcile exactly with :class:`~repro.aos.cost_accounting.CostAccounting`;
* :mod:`~repro.telemetry.progress` -- progress points: named throughput
  markers on the cycle clock (Coz-style), the measurement surface of the
  causal profiler (:mod:`repro.causal`).
"""

from repro.telemetry.recorder import (InstantRecord, SpanRecord,
                                      TelemetryRecorder, TelemetrySnapshot)
from repro.telemetry.progress import (ProgressPointStats, ProgressTracker,
                                      main_loop_points, progress_rate)
from repro.telemetry.chrome_trace import (to_chrome_trace, trace_events,
                                          write_chrome_trace)
from repro.telemetry.summary import (component_totals, reconcile, span_stats,
                                     summarize)

__all__ = [
    "InstantRecord", "ProgressPointStats", "ProgressTracker",
    "SpanRecord", "TelemetryRecorder", "TelemetrySnapshot",
    "component_totals", "main_loop_points",
    "progress_rate", "reconcile", "span_stats",
    "summarize", "to_chrome_trace", "trace_events", "write_chrome_trace",
]
