"""Ablation experiments for the design choices DESIGN.md calls out.

* :func:`threshold_sweep` (E8) -- the paper fixes the hot-edge threshold at
  1.5% of total profile weight.  Sweeping it shows the profile-dilution
  mechanism directly: with deeper contexts, a higher threshold suppresses
  more rules (less inlining, smaller code), a lower one re-admits the
  diluted traces.
* :func:`decay_ablation` (E9) -- the decay organizer exists so hot-edge
  detection tracks recent behaviour (Section 3.2).  Running the two-phase
  workload with and without decay measures what it buys: without decay the
  phase-1 profile never fades, the phase-2 target never becomes hot, and
  the stale guarded inline keeps missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.costs import DEFAULT_COSTS
from repro.metrics.report import format_table
from repro.policies import make_policy
from repro.provenance import ProvenanceRecorder
from repro.workloads import phase_shift
from repro.workloads.spec import build_benchmark


@dataclass
class ThresholdPoint:
    """One point of the threshold sweep."""

    threshold: float
    rules: int
    total_cycles: float
    live_code_bytes: int
    opt_compile_cycles: float


def threshold_sweep(benchmark: str = "db",
                    thresholds: Sequence[float] = (0.005, 0.010, 0.015,
                                                   0.030, 0.050),
                    family: str = "fixed", depth: int = 3,
                    scale: float = 1.0) -> Tuple[List[ThresholdPoint], str]:
    """Sweep the hot-edge threshold for one benchmark/policy."""
    points = []
    for threshold in thresholds:
        costs = DEFAULT_COSTS.replace(hot_edge_threshold=threshold)
        generated = build_benchmark(benchmark, scale=scale)
        runtime = AdaptiveRuntime(generated.program,
                                  make_policy(family, depth, costs), costs)
        result = runtime.run()
        points.append(ThresholdPoint(
            threshold=threshold,
            rules=result.rule_count,
            total_cycles=result.total_cycles,
            live_code_bytes=result.live_opt_code_bytes,
            opt_compile_cycles=result.opt_compile_cycles))

    rows = [[f"{p.threshold * 100:.1f}%", str(p.rules),
             f"{p.total_cycles / 1e6:.3f}M", str(p.live_code_bytes),
             f"{p.opt_compile_cycles / 1e3:.0f}k"]
            for p in points]
    rendered = format_table(
        ["threshold", "rules", "cycles", "opt code B", "compile cyc"],
        rows,
        title=(f"E8: hot-edge threshold sweep on {benchmark} "
               f"({family}, max={depth}; paper uses 1.5%)"))
    return points, rendered


@dataclass
class DecayOutcome:
    """One arm of the decay ablation."""

    label: str
    guard_misses: int
    recompiles_of_hot_method: int
    total_cycles: float
    final_rule_targets: Tuple[str, ...]


def decay_ablation(iterations: int = 80_000,
                   switch_fraction: float = 0.75
                   ) -> Tuple[Dict[str, DecayOutcome], str]:
    """Two-phase workload with and without profile decay.

    The receiver flips late in the run (default: at 75%), so only a system
    that *forgets* the first phase can re-optimize for the second.
    """
    outcomes: Dict[str, DecayOutcome] = {}
    for label, costs in (
            ("decay on", DEFAULT_COSTS),
            ("decay off", DEFAULT_COSTS.replace(
                decay_period=10 ** 12))):
        built = phase_shift.build(iterations, switch_fraction)
        recorder = ProvenanceRecorder(label)
        runtime = AdaptiveRuntime(built.program, make_policy("cins", 1),
                                  costs, sinks=[recorder])
        result = runtime.run()
        targets = tuple(sorted(
            rule.callee for rule in runtime.state.rules
            if rule.context[0] == ("App.work", built.step_site)))
        outcomes[label] = DecayOutcome(
            label=label,
            guard_misses=result.guard_misses,
            recompiles_of_hot_method=sum(
                record.method == "App.work"
                for record in recorder.compilations),
            total_cycles=result.total_cycles,
            final_rule_targets=targets)

    rows = [[o.label, str(o.guard_misses),
             str(o.recompiles_of_hot_method),
             f"{o.total_cycles / 1e6:.3f}M",
             ", ".join(o.final_rule_targets) or "(none)"]
            for o in outcomes.values()]
    rendered = format_table(
        ["config", "guard misses", "App.work versions", "cycles",
         "final rules at step site"],
        rows,
        title="E9: decay organizer ablation on the two-phase workload")
    return outcomes, rendered
