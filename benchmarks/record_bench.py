"""Record the checked-in simulated-cycle baselines.

Every baseline is fixed-seed and simulated-cycle-exact, so it only moves
when the system's behaviour moves.  :data:`BASELINES` is the whole
definition: one row per file, naming its schema, its configuration and
the function that measures one benchmark's row.

* ``BENCH_speculation_baseline.json`` -- guard-cycle numbers with the
  speculation pass off vs on (guard tests/misses, elided entries) plus
  the elision-replay verdict, on the benchmark where elision fires
  (jess) and the one where the analysis soundly refuses it (db).
* ``BENCH_deopt_baseline.json`` -- guard-vs-planned deopt strategy
  numbers (guard tests eliminated, deopt entries/exits taken, total
  cycles) plus the OSR live-state replay verdict, on the exit-heavy
  benchmark (mtrt) and the headline win (compress).

Usage::

    PYTHONPATH=src python benchmarks/record_bench.py          # rewrite
    PYTHONPATH=src python benchmarks/record_bench.py --check  # CI drift gate

``--check`` re-measures and exits non-zero if any committed baseline no
longer matches (same contract as the golden decision log), or if a
``BENCH_*.json`` at the repository root belongs to no row of
:data:`BASELINES`.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Callable, NamedTuple, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.soundness import (check_elision_soundness,  # noqa: E402
                                      check_osr_soundness)
from repro.aos.runtime import AdaptiveRuntime  # noqa: E402
from repro.jvm.costs import DEFAULT_COSTS  # noqa: E402
from repro.policies import make_policy  # noqa: E402
from repro.workloads.spec import build_benchmark  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), "..")


class Baseline(NamedTuple):
    """One checked-in baseline file."""

    path: str
    schema: str
    #: Written to the file verbatim; ``benchmarks`` and ``scale`` (plus
    #: anything the row function reads) drive the measurement.
    config: dict
    #: ``(benchmark, config) -> row`` of numbers for that benchmark.
    row: Callable[[str, dict], dict]


def variants_row(control: Tuple[str, dict], replayed: str,
                 fields: Sequence[str],
                 replay: Callable) -> Callable[[str, dict], dict]:
    """Record ``fields`` as ``<field>_<label>`` for two cost-model variants,
    plus the soundness replay's verdict.

    ``control`` is the first variant's ``(label, overrides)``.  The
    second, labelled ``replayed``, is the ``cins`` configuration that
    ``replay`` forces, so its numbers come from the replay run itself.
    """
    def row(name: str, config: dict) -> dict:
        label, overrides = control
        costs = DEFAULT_COSTS.replace(**overrides)
        built = build_benchmark(name, scale=config["scale"])
        results = {label: AdaptiveRuntime(
            built.program, make_policy(config["family"], costs=costs),
            costs=costs).run()}
        report = replay(build_benchmark(name, scale=config["scale"]).program)
        results[replayed] = report.result
        out = {f"{field}_{label}": getattr(result, field)
               for label, result in results.items() for field in fields}
        out["replay_ok"] = report.ok
        return out
    return row


BASELINES = (
    # jess is the headline elision win; db is the sound-refusal control
    # (its guarded site keeps a live fallthrough).  0.3 is the smallest
    # scale at which jess compiles its guarded sites.
    Baseline("BENCH_speculation_baseline.json", "repro.bench-speculation/v1",
             {"benchmarks": ["jess", "db"], "scale": 0.3, "family": "cins"},
             variants_row(("off", {"speculation_enabled": False}), "on",
                          ("guard_tests", "guard_misses", "elided_entries"),
                          check_elision_soundness)),
    # compress's guards almost always hit, so trading them for
    # never-taken cheap exits cuts both guard tests and total cycles;
    # mtrt's dispatched sites miss often, so it exercises the
    # live-state-mapped exit path itself.
    Baseline("BENCH_deopt_baseline.json", "repro.bench-deopt/v1",
             {"benchmarks": ["compress", "mtrt"], "scale": 0.1,
              "family": "cins"},
             variants_row(("guard", {"deopt_planning_enabled": True,
                                     "deopt_strategy": "guard"}), "planned",
                          ("guard_tests", "guard_misses", "deopt_entries",
                           "deopt_exits", "total_cycles"),
                          check_osr_soundness)),
)


def measure(baseline: Baseline) -> str:
    """The baseline file's text as the current code produces it."""
    payload = {
        "schema": baseline.schema,
        "config": baseline.config,
        "benchmarks": {name: baseline.row(name, baseline.config)
                       for name in baseline.config["benchmarks"]},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify the committed baselines instead of "
                             "rewriting them")
    args = parser.parse_args(argv)

    drifted = 0
    for baseline in BASELINES:
        path = os.path.join(ROOT, baseline.path)
        text = measure(baseline)
        if not args.check:
            with open(path, "w") as handle:
                handle.write(text)
            for name, row in json.loads(text)["benchmarks"].items():
                print(f"{name}: {json.dumps(row, sort_keys=True)}")
            print(f"baseline -> {baseline.path}")
            continue
        try:
            with open(path) as handle:
                committed = handle.read()
        except FileNotFoundError:
            print(f"no baseline at {baseline.path}; run without --check "
                  "first", file=sys.stderr)
            drifted += 1
            continue
        if committed != text:
            print(f"{baseline.path} drifted; re-record with "
                  "`python benchmarks/record_bench.py` and commit the "
                  "diff if the change is intended", file=sys.stderr)
            drifted += 1
        else:
            print(f"baseline up to date ({baseline.path})")
    if args.check:
        known = {baseline.path for baseline in BASELINES}
        for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))):
            name = os.path.basename(path)
            if name not in known:
                print(f"{name} is written by no BASELINES row; delete it "
                      "or add its row", file=sys.stderr)
                drifted += 1
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
