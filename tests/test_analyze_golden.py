"""Analyze pin: the ``repro analyze`` bundle of jess, byte for byte.

jess at scale 0.05 is analyzed twice into one bundle: once with the
default sections (CHA and RTA summaries plus the CHA soundness replay),
and once with ``--lattice --precision cha rta 0cfa kcfa --speculation``
(every call-graph summary, the precision lattice, the whole-chain
soundness check and the speculation section).  The test compares the
bundle's JSON text, as ``repro analyze -o`` writes it, against
``tests/golden/analyze_jess.json``; regenerate after an intentional
change with::

    PYTHONPATH=src python tests/test_analyze_golden.py
"""

import json
import os

from repro.analysis.report import (ANALYZE_PRECISIONS, analyze_program,
                                   bundle_reports)
from repro.workloads.spec import build_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "analyze_jess.json")

SCALE = 0.05


def current_text() -> str:
    program = build_benchmark("jess", scale=SCALE).program
    bundle = bundle_reports([
        analyze_program(program),
        analyze_program(program, precisions=ANALYZE_PRECISIONS,
                        lattice=True, speculation=True),
    ], scale=SCALE)
    return json.dumps(bundle, indent=2, sort_keys=True) + "\n"


def test_bundle_matches_golden():
    with open(GOLDEN_PATH) as handle:
        golden = handle.read()
    assert current_text() == golden, (
        f"jess analyze bundle drifted from {GOLDEN_PATH} (intentional? "
        f"regenerate: PYTHONPATH=src python tests/test_analyze_golden.py)")


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        handle.write(current_text())
    print(f"regenerated {GOLDEN_PATH}")
