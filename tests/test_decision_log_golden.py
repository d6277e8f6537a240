"""Golden decision-log test: the provenance schema is a contract.

A fixed, fully deterministic run (the hashmap example under fixed:2) is
recorded and its JSONL compared record-by-record against a committed
golden log.  Any change to the oracle's decisions, the reason-code
vocabulary, or the serialized schema shows up as a diff here -- which is
the point: such changes must be *deliberate*, made by regenerating the
golden file and reviewing its diff.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_decision_log_golden.py
"""

import json
import os

from repro.aos.runtime import AdaptiveRuntime
from repro.policies import make_policy
from repro.provenance import ProvenanceRecorder, parse_jsonl
from repro.workloads.hashmap_example import build as build_hashmap

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "hashmap_fixed2.decisions.jsonl")


def current_log_text() -> str:
    built = build_hashmap(iterations=4000)
    recorder = ProvenanceRecorder(label="golden/hashmap/fixed2")
    runtime = AdaptiveRuntime(built.program, make_policy("fixed", 2),
                              sinks=[recorder])
    runtime.run()
    return recorder.to_jsonl()


def test_decision_log_matches_golden():
    with open(GOLDEN_PATH) as handle:
        golden_text = handle.read()
    current_text = current_log_text()

    golden_meta, golden_records = parse_jsonl(golden_text)
    current_meta, current_records = parse_jsonl(current_text)
    assert current_meta == golden_meta

    # Record-by-record so a failure names the first drifted record
    # instead of dumping two multi-hundred-line blobs.
    for index, (want, got) in enumerate(zip(golden_records,
                                            current_records)):
        assert got == want, (
            f"record {index} drifted from golden log\n"
            f"  golden:  {want}\n"
            f"  current: {got}\n"
            f"(intentional? regenerate: PYTHONPATH=src python "
            f"tests/test_decision_log_golden.py)")
    assert len(current_records) == len(golden_records)

    # Byte-level equality additionally pins the serialization itself
    # (key order, float formatting, header layout).
    assert current_text == golden_text


def test_golden_log_is_wellformed():
    with open(GOLDEN_PATH) as handle:
        meta, records = parse_jsonl(handle.read())
    assert meta["label"] == "golden/hashmap/fixed2"
    assert records
    with open(GOLDEN_PATH) as handle:
        for line in handle:
            json.loads(line)  # every line is standalone JSON


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        handle.write(current_log_text())
    print(f"regenerated {GOLDEN_PATH}")
