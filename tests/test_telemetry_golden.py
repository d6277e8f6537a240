"""Golden telemetry trace: the Chrome-trace export of one fixed run.

The run is the one the golden decision log records (the hashmap example
under fixed:2).  Its Chrome trace is committed one JSON object per line
-- the trace's metadata first, then every trace event, keys sorted -- so
a change to any span, instant or counter sample shows up as a line diff.
Such changes must be deliberate: regenerate the file and review its
diff.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_telemetry_golden.py
"""

import json
import os

from repro.aos.runtime import AdaptiveRuntime
from repro.policies import make_policy
from repro.telemetry import TelemetryRecorder, to_chrome_trace
from repro.workloads.hashmap_example import build as build_hashmap

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "hashmap_fixed2.trace.jsonl")


def current_trace_text() -> str:
    built = build_hashmap(iterations=4000)
    recorder = TelemetryRecorder(label="golden/hashmap/fixed2")
    runtime = AdaptiveRuntime(built.program, make_policy("fixed", 2),
                              sinks=[recorder])
    runtime.run()
    trace = to_chrome_trace(recorder.snapshot())
    events = trace.pop("traceEvents")
    return "".join(json.dumps(obj, sort_keys=True) + "\n"
                   for obj in [trace] + events)


def test_trace_matches_golden():
    with open(GOLDEN_PATH) as handle:
        golden_text = handle.read()
    current_text = current_trace_text()
    golden_lines = golden_text.splitlines()
    current_lines = current_text.splitlines()
    # Line by line so a failure names the first drifted event.
    for index, (want, got) in enumerate(zip(golden_lines, current_lines)):
        assert got == want, (
            f"line {index + 1} drifted from the golden trace\n"
            f"  golden:  {want}\n"
            f"  current: {got}\n"
            f"(intentional? regenerate: PYTHONPATH=src python "
            f"tests/test_telemetry_golden.py)")
    assert len(current_lines) == len(golden_lines)
    assert current_text == golden_text


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        handle.write(current_trace_text())
    print(f"regenerated {GOLDEN_PATH}")
