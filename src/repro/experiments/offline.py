"""Offline vs online profile-directed inlining (paper Section 6 context).

The paper's related work contrasts its *online* system -- decisions made
mid-run on partial, decayed profiles -- with *offline* systems like Vortex
(Grove et al.), which post-process a complete training-run profile before
compiling.  This module quantifies the online penalty on our substrate:

1. **Training run** -- execute the benchmark online and capture every
   trace the listener ever recorded (undecayed, full-run totals);
2. **Offline rule derivation** -- apply the same 1.5% threshold to the
   complete profile, once, like an offline post-processing step;
3. **Production run** -- re-execute with the rule set *pinned*: the AI
   organizer is frozen, so the compiler sees the final rules from the
   first compilation on.  No dilution-timing effects, no missing-edge
   recompilation churn, no decay.

The offline configuration is an upper bound for what the online system's
policy could achieve with perfect foresight -- exactly the gap the paper's
Section 2 warns about ("decisions must be based on a limited history").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.aos.organizers import rules_fingerprint_of
from repro.aos.runtime import AdaptiveRuntime, RunResult
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.metrics.report import format_table
from repro.policies import make_policy
from repro.profiles.dcg import DynamicCallGraph
from repro.profiles.trace import InlineRule
from repro.workloads.spec import build_benchmark


class _FrozenAIOrganizer:
    """An AI organizer replacement that pins a precomputed rule set."""

    def __init__(self, state, rules: Sequence[InlineRule]):
        self._state = state
        self._rules = list(rules)
        self._fingerprint = rules_fingerprint_of(self._rules)

    def run(self, machine) -> List[InlineRule]:
        state = self._state
        state.rules = list(self._rules)
        state.rules_fingerprint = self._fingerprint
        return state.rules


def collect_full_profile(benchmark: str, family: str, depth: int,
                         scale: float = 1.0,
                         costs: CostModel = DEFAULT_COSTS
                         ) -> Tuple[DynamicCallGraph, RunResult]:
    """Training run: capture the complete (undecayed) trace profile."""
    generated = build_benchmark(benchmark, scale=scale)
    policy = make_policy(family, depth, costs)
    # Disable decay so the training profile reflects full-run totals, the
    # way an offline instrumentation pass would see them.
    training_costs = costs.replace(decay_period=10 ** 12)
    runtime = AdaptiveRuntime(generated.program, policy, training_costs)
    result = runtime.run()
    return runtime.state.dcg, result


def derive_offline_rules(dcg: DynamicCallGraph,
                         costs: CostModel = DEFAULT_COSTS
                         ) -> List[InlineRule]:
    """Offline post-processing: threshold the complete profile once."""
    total = dcg.total_weight
    return [InlineRule(key, weight, weight / total if total else 0.0)
            for key, weight in dcg.hot_traces(costs.hot_edge_threshold)]


def run_with_pinned_rules(benchmark: str, family: str, depth: int,
                          rules: Sequence[InlineRule],
                          scale: float = 1.0,
                          costs: CostModel = DEFAULT_COSTS) -> RunResult:
    """Production run against a frozen, offline-derived rule set."""
    generated = build_benchmark(benchmark, scale=scale)
    policy = make_policy(family, depth, costs)
    runtime = AdaptiveRuntime(generated.program, policy, costs)
    runtime.ai_organizer = _FrozenAIOrganizer(runtime.state, rules)
    # Seed the rules immediately so even the first compilations see them.
    runtime.ai_organizer.run(runtime.machine)
    return runtime.run()


@dataclass
class OfflineComparison:
    """Online vs offline outcomes for one (benchmark, policy) pair."""

    benchmark: str
    family: str
    depth: int
    online: RunResult
    offline: RunResult
    offline_rules: int

    @property
    def online_penalty_percent(self) -> float:
        """How much slower the online system runs than the offline bound."""
        return 100.0 * (self.online.total_cycles
                        / self.offline.total_cycles - 1.0)

    @property
    def compile_churn_ratio(self) -> float:
        """Online compilations relative to offline (recompile churn)."""
        if self.offline.opt_compilations == 0:
            return float("inf")
        return self.online.opt_compilations / self.offline.opt_compilations


def compare_online_offline(benchmark: str = "jess", family: str = "fixed",
                           depth: int = 3, scale: float = 1.0,
                           costs: CostModel = DEFAULT_COSTS
                           ) -> Tuple[OfflineComparison, str]:
    """The full three-step experiment, with a rendered summary."""
    dcg, online = collect_full_profile(benchmark, family, depth, scale,
                                       costs)
    rules = derive_offline_rules(dcg, costs)
    offline = run_with_pinned_rules(benchmark, family, depth, rules, scale,
                                    costs)
    comparison = OfflineComparison(benchmark, family, depth, online,
                                   offline, len(rules))

    rows = []
    for label, result in (("online", online), ("offline", offline)):
        rows.append([
            label,
            f"{result.total_cycles / 1e6:.3f}M",
            str(result.opt_compilations),
            f"{result.opt_compile_cycles / 1e3:.0f}k",
            str(result.live_opt_code_bytes),
            str(result.guard_misses),
        ])
    rendered = format_table(
        ["system", "cycles", "compiles", "compile cyc", "opt code B",
         "guard misses"],
        rows,
        title=(f"Online vs offline profile-directed inlining "
               f"({benchmark}, {family} max={depth}; "
               f"{len(rules)} offline rules)"))
    rendered += (f"\nonline penalty: "
                 f"{comparison.online_penalty_percent:+.2f}% cycles, "
                 f"{comparison.compile_churn_ratio:.2f}x compilations")
    return comparison, rendered
