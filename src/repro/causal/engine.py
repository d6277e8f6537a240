"""The causal experiment engine: virtual-speedup grids over benchmarks.

One causal *experiment cell* runs a fixed-seed benchmark under a cost
model with exactly one component virtually sped up by one factor, and
measures progress-point throughput (marks per cycle) against the
matching *baseline cell* (same benchmark, family, seed; stock costs).
The per-seed paired speedups feed the report layer's confidence
intervals.

The grid runs through the sweep's cell loop,
:func:`repro.experiments.runner.run_cells`, with a causal worker, a
causal fingerprint and its own cache-acceptance test, so cells run in
the same fault-tolerant cell processes and persist through the same
content-addressed :class:`~repro.experiments.cell_cache.CellCache`.
The causal fingerprint hashes the *scaled* cost model plus the seed
index, so interrupted grids resume for free and a factor change never
aliases a cached cell.

A cell's key is the plain tuple :data:`CausalKey`; a baseline cell
names the :data:`BASELINE` marker as its component and factor 0.0, so
keys (and the failures keyed by them) stay sortable.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aos.runtime import RunResult
from repro.causal.components import apply_virtual_speedup, component_names
from repro.experiments.cell_cache import CellCache
from repro.experiments.config import cost_model_fingerprint
from repro.experiments.runner import (CellFailure, CellOutcome, run_cells,
                                      run_single)
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.errors import ConfigError
from repro.telemetry.progress import ProgressTracker, main_loop_points
from repro.workloads.spec import build_benchmark

#: Default virtual-speedup grid: 10% to 100% ("component is free").
DEFAULT_FACTORS: Tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0)

#: Baseline marker used in the key's component slot.
BASELINE = "baseline"

#: One causal cell: ``(benchmark, family, component, factor,
#: seed_index)``.
CausalKey = Tuple[str, str, str, float, int]

#: Bumped whenever causal fingerprint inputs or the cached cell format
#: change incompatibly.
#: 3: simulated cycles are exact sums of whole centi-cycles.
CAUSAL_FINGERPRINT_VERSION = 3

#: Workload-generator seed offset between a cell's replicates.  Every
#: replicate perturbs the generator differently while the hot-path
#: method and site ids (allocated before seeded randomness) stay shared,
#: so causal results depend on this value.
SEED_STRIDE = 101


@dataclass(frozen=True)
class CausalConfig:
    """What to profile: benchmarks x families x components x factors."""

    #: The ISSUE's trio spans the interesting personalities: jess
    #: (compile-time dominated), db (guard/dispatch heavy), javac (deep
    #: chains, organizer pressure).
    benchmarks: Tuple[str, ...] = ("jess", "db", "javac")
    families: Tuple[str, ...] = ("cins",)
    depth: int = 2
    components: Tuple[str, ...] = field(default_factory=component_names)
    factors: Tuple[float, ...] = DEFAULT_FACTORS
    #: Independent replicates per cell; each shifts the workload
    #: generator seed by :data:`SEED_STRIDE`.
    seeds: int = 3
    #: Single sampling phase per cell (causal cells are paired baseline
    #: vs experiment at identical phase, so best-of-phases would only
    #: blur the pairing).
    phase: float = 0.0
    scale: float = 1.0
    jobs: int = 0
    cell_timeout: Optional[float] = None

    def validate(self) -> None:
        known = set(component_names())
        unknown = sorted(set(self.components) - known)
        if unknown:
            raise ConfigError(
                f"unknown causal component(s): {', '.join(unknown)}; "
                f"expected a subset of {', '.join(sorted(known))}")
        for factor in self.factors:
            if not 0.0 < factor <= 1.0:
                raise ConfigError(
                    f"virtual-speedup factors must be in (0, 1], "
                    f"got {factor!r}")
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {self.seeds}")

    def cells(self) -> List[CausalKey]:
        """All cell keys, baselines first (report order)."""
        keys: List[CausalKey] = [
            (benchmark, family, BASELINE, 0.0, seed_index)
            for benchmark in self.benchmarks for family in self.families
            for seed_index in range(self.seeds)]
        keys += [(benchmark, family, component, factor, seed_index)
                 for benchmark in self.benchmarks
                 for family in self.families
                 for component in self.components
                 for factor in self.factors
                 for seed_index in range(self.seeds)]
        return keys


# -- fingerprints -------------------------------------------------------------

def causal_fingerprint(benchmark: str, family: str, depth: int,
                       component: Optional[str], factor: float,
                       seed_index: int, phase: float, scale: float) -> str:
    """Content hash of everything that determines one causal cell.

    Hashes the *scaled* cost model, so two different (component, factor)
    pairs that happen to produce the same model still cache separately
    only through their explicit identity fields -- and a change to the
    stock :data:`DEFAULT_COSTS` invalidates every causal cell at once.
    """
    costs = DEFAULT_COSTS
    if component is not None:
        costs = apply_virtual_speedup(DEFAULT_COSTS, component, factor)
    payload = json.dumps({
        "version": CAUSAL_FINGERPRINT_VERSION,
        "kind": "causal",
        "benchmark": benchmark,
        "family": family,
        "depth": depth,
        "component": component or BASELINE,
        "factor": float(factor),
        "seed_index": seed_index,
        "phase": float(phase),
        "scale": float(scale),
        "costs": cost_model_fingerprint(costs),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_fingerprint(config: CausalConfig, key: CausalKey) -> str:
    benchmark, family, component, factor, seed_index = key
    return causal_fingerprint(benchmark, family, config.depth,
                              None if component == BASELINE else component,
                              factor, seed_index, config.phase, config.scale)


# -- the worker ---------------------------------------------------------------

def _causal_worker(args) -> CellOutcome:
    """Run one causal cell; module-level so a cell process can pickle it.

    A progress tracker marks the program's main loops, and the cell
    carries its summary as :attr:`RunResult.progress_points`, so the
    log slot stays empty.
    """
    (benchmark, family, component, factor, seed_index,
     depth, phase, scale) = args
    costs = DEFAULT_COSTS
    if component != BASELINE:
        costs = apply_virtual_speedup(DEFAULT_COSTS, component, factor)
    generated = build_benchmark(benchmark, scale=scale,
                                seed_offset=seed_index * SEED_STRIDE)
    tracker = ProgressTracker(main_loop_points(generated.program))
    result = run_single(benchmark, family, depth, phase, scale, costs,
                        sinks=[tracker], generated=generated)
    result.progress_points = tracker.summary()
    return result, None


# -- results ------------------------------------------------------------------

@dataclass
class CausalResults:
    """All cells of one causal grid, with paired lookups."""

    config: CausalConfig
    cells: Dict[CausalKey, RunResult]
    failures: Dict[CausalKey, CellFailure] = field(default_factory=dict)

    def baseline(self, benchmark: str, family: str,
                 seed_index: int) -> Optional[RunResult]:
        return self.cells.get((benchmark, family, BASELINE, 0.0, seed_index))

    def experiment(self, benchmark: str, family: str, component: str,
                   factor: float, seed_index: int) -> Optional[RunResult]:
        return self.cells.get((benchmark, family, component, factor,
                               seed_index))

    def pairs(self, benchmark: str, family: str, component: str,
              factor: float) -> List[Tuple[int, RunResult, RunResult]]:
        """Per-seed ``(seed_index, baseline, experiment)`` pairs.

        Seeds where either side failed are silently absent; the report
        layer flags cells whose pair count fell below the configured
        replicate count.
        """
        paired = []
        for seed_index in range(self.config.seeds):
            base = self.baseline(benchmark, family, seed_index)
            exp = self.experiment(benchmark, family, component, factor,
                                  seed_index)
            if base is not None and exp is not None:
                paired.append((seed_index, base, exp))
        return paired


def run_causal(config: Optional[CausalConfig] = None,
               cache: Optional[CellCache] = None,
               verbose: bool = False) -> CausalResults:
    """Run the causal grid through :func:`~repro.experiments.runner.run_cells`.

    As in a sweep, cached cells are served up front, fresh results
    persist the moment a worker finishes, and cells that fail even after
    retry are recorded instead of aborting.  A cached cell without
    progress points (e.g. a pre-causal cache collision) cannot feed rate
    math, so it is re-run.
    """
    if config is None:
        config = CausalConfig()
    config.validate()

    results, failures = run_cells(
        {key: (*key, config.depth, config.phase, config.scale)
         for key in config.cells()}, _causal_worker,
        lambda key: config_fingerprint(config, key),
        lambda fingerprint, result: result.progress_points is not None,
        cache=cache, jobs=config.jobs, timeout=config.cell_timeout,
        verbose=verbose)
    grid = CausalResults(config=config, cells=results, failures=failures)

    missing_baselines = [
        (benchmark, family)
        for benchmark in config.benchmarks for family in config.families
        if all(grid.baseline(benchmark, family, s) is None
               for s in range(config.seeds))
    ]
    if missing_baselines:
        warnings.warn(
            f"causal grid lost every baseline seed for "
            f"{missing_baselines}; affected experiments cannot be paired",
            RuntimeWarning, stacklevel=2)
    return grid
