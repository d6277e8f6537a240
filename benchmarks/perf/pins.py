"""Record ``pins.json``: the reference output of every program variant.

A reference run executes the program on the bare machine, with no
adaptive system attached, so nothing is ever optimized, inlined, elided
or deoptimized.  Inlining, guard elision and deoptimization change cost,
never meaning, so every workload configuration must reproduce the
reference fingerprint exactly (see :func:`worker.fingerprint`).  The
analyze workload's outputs are pinned by digest.

Usage (a few minutes; rerun only when program generation changes)::

    python3 benchmarks/perf/pins.py
"""

from __future__ import annotations

import json
import os

import worker
from repro.compiler.code_cache import CodeCache
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import Machine
from repro.workloads.spec import build_benchmark
from workloads import PINNED_SEEDS, PROGRAMS, WORKLOADS, pin_key

PINS_PATH = os.path.join(worker.HERE, "pins.json")


def reference_fingerprint(program) -> list:
    machine = Machine(program, ClassHierarchy(program),
                      CodeCache(DEFAULT_COSTS), DEFAULT_COSTS)
    return worker.fingerprint(machine.run(), machine)


def record() -> dict:
    run_scales = sorted({w.scale for w in WORKLOADS.values()
                         if w.kind == "run"})
    runs, analyses = {}, {}
    for offset in range(PINNED_SEEDS):
        for program in PROGRAMS:
            for scale in run_scales:
                built = build_benchmark(program, scale, seed_offset=offset)
                runs[pin_key(program, scale, offset)] = \
                    reference_fingerprint(built.program)
            built = build_benchmark(program, WORKLOADS["analyze"].scale,
                                    seed_offset=offset)
            analyses[pin_key(program, WORKLOADS["analyze"].scale, offset)] = \
                worker.digest(worker.analysis_output(built.program))
        print(f"seed offset {offset} pinned", flush=True)
    return {"runs": runs, "analyses": analyses}


def main() -> None:
    pins = record()
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(pins['runs'])} run and {len(pins['analyses'])} analysis "
          f"pins -> {PINS_PATH}")


if __name__ == "__main__":
    main()
