"""Export telemetry snapshots to the Chrome trace-event JSON format.

The output loads directly into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: one process per run, one named thread (track) per
AOS component from :data:`repro.aos.cost_accounting.ALL_COMPONENTS`,
complete events (``ph: "X"``) for spans, instant events (``ph: "i"``)
for invalidations/OSR/rule changes, and counter events (``ph: "C"``)
for the counter and gauge series.

Simulated cycles are emitted one-to-one as trace microseconds (``ts`` /
``dur``); the absolute unit is meaningless for a simulation, but ratios
and the timeline shape are faithful.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

from repro.aos.cost_accounting import ALL_COMPONENTS
from repro.atomic_file import write_atomic
from repro.telemetry.recorder import TelemetrySnapshot

#: ``tid`` reserved for counter events (Perfetto renders them per-process).
COUNTER_TID = 0


def track_order(snapshot: TelemetrySnapshot) -> List[str]:
    """Component tracks, cost-accounting components first, extras after."""
    seen = set(ALL_COMPONENTS)
    extras = []
    for record in list(snapshot.spans) + list(snapshot.instants):
        if record.component not in seen:
            seen.add(record.component)
            extras.append(record.component)
    return list(ALL_COMPONENTS) + extras


def trace_events(snapshot: TelemetrySnapshot, pid: int = 1) -> List[dict]:
    """Flatten one snapshot into a list of trace-event dicts."""
    tids = {component: index + 1
            for index, component in enumerate(track_order(snapshot))}
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "ts": 0, "pid": pid,
        "tid": COUNTER_TID, "args": {"name": snapshot.label},
    }]
    for component, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "ts": 0,
                       "pid": pid, "tid": tid,
                       "args": {"name": component}})
        events.append({"name": "thread_sort_index", "ph": "M", "ts": 0,
                       "pid": pid, "tid": tid,
                       "args": {"sort_index": tid}})

    body: List[dict] = []
    for span in snapshot.spans:
        args: Dict[str, Any] = dict(span.args)
        args["self_cycles"] = span.self_cycles
        body.append({
            "name": span.name, "cat": span.component, "ph": "X",
            "ts": span.begin, "dur": span.end - span.begin,
            "pid": pid, "tid": tids[span.component], "args": args,
        })
    for instant in snapshot.instants:
        body.append({
            "name": instant.name, "cat": instant.component, "ph": "i",
            "s": "t", "ts": instant.clock, "pid": pid,
            "tid": tids[instant.component], "args": dict(instant.args),
        })
    for name, points in sorted(snapshot.counter_series.items()):
        for clock, value in points:
            body.append({
                "name": name, "ph": "C", "ts": clock, "pid": pid,
                "tid": COUNTER_TID, "args": {"value": value},
            })
    # Stable-sort the payload per track so ``ts`` is monotone within every
    # (pid, tid) pair, which some viewers require for complete events.
    body.sort(key=lambda event: (event["tid"], event["ts"]))
    return events + body


def to_chrome_trace(snapshot: TelemetrySnapshot, pid: int = 1,
                    annotations: Optional[Mapping[str, Any]] = None) -> dict:
    """Build the top-level Chrome trace object for one snapshot.

    ``annotations`` are extra ``otherData`` entries -- the causal
    profiler stamps its experiment parameters (component, virtual-
    speedup factor, seed) here so a trace is self-describing.  They
    cannot shadow the built-in keys.
    """
    other_data: Dict[str, Any] = {
        "label": snapshot.label,
        "total_cycles": snapshot.total_cycles,
        "clock_unit": "simulated cycles (rendered as microseconds)",
    }
    if annotations:
        for key in sorted(annotations):
            other_data.setdefault(str(key), annotations[key])
    return {
        "traceEvents": trace_events(snapshot, pid=pid),
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }


def write_chrome_trace(path: str, snapshot: TelemetrySnapshot,
                       pid: int = 1,
                       annotations: Optional[Mapping[str, Any]] = None) -> int:
    """Write one snapshot's Chrome trace JSON; returns the event count."""
    trace = to_chrome_trace(snapshot, pid=pid, annotations=annotations)
    write_atomic(path, json.dumps(trace))
    return len(trace["traceEvents"])
