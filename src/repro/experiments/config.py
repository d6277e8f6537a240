"""Experiment configuration shared by the harness and the benches.

The paper's evaluation sweeps six context-sensitivity policy families over
maximum depths 2-5 on eight benchmarks, against the context-insensitive
baseline.  Because the adaptive system is timer-driven and therefore
phase-sensitive (the paper reports the best of 20 runs for the same
reason), every configuration here is run at several sampling phases and
the best run (minimum total cycles) is reported.

This module also defines the *cell fingerprint*: a content hash over
everything that determines one cell's :class:`RunResult` -- benchmark,
policy family, depth, sampling phases, workload scale, and the full cost
model.  The per-cell sweep cache (:mod:`repro.experiments.cell_cache`)
keys its entries on this fingerprint, so a cached cell is reused exactly
when rerunning it would reproduce the same bits, regardless of which
sweep configuration it was originally part of.  Execution-only knobs
(``jobs``, ``cell_timeout``) deliberately do not enter the fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.workloads.spec import BENCHMARK_ORDER

#: The six policy families of Figures 4-6 (x-axis order).
POLICY_FAMILIES: Tuple[str, ...] = ("fixed", "paramLess", "class", "large",
                                    "hybrid1", "hybrid2")

#: Families a sweep may be asked to run.  Superset of the paper's
#: figure families: ``imprecision`` (the adaptive policy of Section 5)
#: and the no-profile static baselines from :mod:`repro.analysis` --
#: ``static`` (flat RTA) and ``static-k`` (k-CFA, where the sweep's
#: depth axis is the call-string length k) -- can be swept but are not
#: part of the default figure grid, so :data:`POLICY_FAMILIES` stays
#: exactly the paper's.
SWEEPABLE_FAMILIES: Tuple[str, ...] = POLICY_FAMILIES + ("imprecision",
                                                         "static",
                                                         "static-k")

#: The maximum context-sensitivity depths the paper sweeps.
DEPTHS: Tuple[int, ...] = (2, 3, 4, 5)

#: Sampling phases emulating timer nondeterminism (best-of-N, like the
#: paper's best-of-20).
DEFAULT_PHASES: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)

#: Bumped whenever the fingerprint inputs or the cached cell format
#: change incompatibly; old cache entries then simply stop matching.
#: 3: simulated cycles are exact sums of whole centi-cycles.
FINGERPRINT_VERSION = 3


def cost_model_fingerprint(costs: CostModel = DEFAULT_COSTS) -> str:
    """Stable content hash of every tunable in a :class:`CostModel`."""
    payload = json.dumps(dataclasses.asdict(costs), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_fingerprint(benchmark: str, family: str, depth: int,
                     phases: Sequence[float], scale: float,
                     costs: CostModel = DEFAULT_COSTS) -> str:
    """Content hash of everything that determines one cell's result.

    Two invocations with the same fingerprint produce bit-identical
    :class:`~repro.aos.runtime.RunResult`\\ s (the whole system is
    seed-deterministic), so the per-cell cache can safely substitute a
    stored result for a rerun.
    """
    payload = json.dumps({
        "version": FINGERPRINT_VERSION,
        "benchmark": benchmark,
        "family": family,
        "depth": depth,
        "phases": [float(p) for p in phases],
        "scale": float(scale),
        "costs": cost_model_fingerprint(costs),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepConfig:
    """What to run: benchmarks x (cins + families x depths) x phases."""

    benchmarks: Tuple[str, ...] = BENCHMARK_ORDER
    families: Tuple[str, ...] = POLICY_FAMILIES
    depths: Tuple[int, ...] = DEPTHS
    phases: Tuple[float, ...] = DEFAULT_PHASES
    #: Dynamic-length scale factor passed to the workload builder; 1.0 is
    #: the full paper-shaped run, smaller values shrink the main loops for
    #: quick tests.
    scale: float = 1.0
    #: Cells run at once, each in its own process (0 = use all available
    #: cores; 1 = run the cells in-process, one after another).
    jobs: int = 0
    #: Per-cell wall-clock budget in seconds, counted from the start of
    #: the cell's process; ``None`` disables the limit.  A cell that
    #: exceeds it has its process killed and is recorded as a structured
    #: failure instead of stalling the sweep.  With ``jobs=1`` cells run
    #: in-process and no budget applies.
    cell_timeout: Optional[float] = None
    #: Persist each cell's best-run decision-provenance log next to its
    #: cached result (``<fingerprint>.decisions.jsonl``).  Execution-only
    #: output, deliberately excluded from the cell fingerprint: recording
    #: provenance cannot change a cell's result (the zero-overhead
    #: contract of :mod:`repro.provenance`), so cached results stay valid
    #: either way.
    decision_logs: bool = False

    def cell_fingerprint(self, benchmark: str, family: str, depth: int,
                         costs: CostModel = DEFAULT_COSTS) -> str:
        """Fingerprint of one cell under this config's phases and scale."""
        return cell_fingerprint(benchmark, family, depth,
                                self.phases, self.scale, costs)

    def configurations(self) -> Sequence[Tuple[str, str, int]]:
        """All (benchmark, family, depth) cells, baseline first."""
        cells = []
        for benchmark in self.benchmarks:
            cells.append((benchmark, "cins", 1))
            for family in self.families:
                for depth in self.depths:
                    cells.append((benchmark, family, depth))
        return cells
