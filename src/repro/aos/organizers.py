"""AOS organizers (paper Section 3.2, Figure 3).

Organizers periodically convert raw listener samples into digested forms
and feed the controller:

* :class:`DCGOrganizer` -- collates trace samples into the weighted
  dynamic call graph (and gives adaptive policies their feedback hook);
* :class:`AIOrganizer` -- derives inlining rules from traces above the hot
  threshold (1.5% of total profile weight);
* :class:`HotMethodsOrganizer` -- aggregates method samples and raises
  hot-method events for the controller;
* :class:`DecayOrganizer` -- decays profile data toward recent behaviour so
  the system adapts to phase shifts;
* :class:`MissingEdgeOrganizer` -- finds hot optimized methods whose code
  predates a rule that would now apply, and requests recompilation unless
  the AOS database says the compiler already refused that edge.

Each organizer charges its cycles to its Figure-6 component.  (As in the
paper's figure, the dynamic-call-graph work is accounted under the AI
organizer.)
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.aos.cost_accounting import (AI_ORGANIZER, DECAY_ORGANIZER,
                                       METHOD_ORGANIZER)
from repro.aos.database import AOSDatabase
from repro.aos.listeners import MethodListener, TraceListener
from repro.compiler.code_cache import CodeCache
from repro.compiler.compiled_method import GUARDED
from repro.compiler.opt_compiler import iter_call_sites
from repro.compiler.oracle import build_site_trace_index, guard_coverage
from repro.jvm.program import S_INTERFACE_CALL, S_VIRTUAL_CALL
from repro.jvm.costs import CostModel
from repro.policies.base import ContextSensitivityPolicy
from repro.profiles.dcg import DynamicCallGraph
from repro.profiles.partial_match import candidate_targets
from repro.profiles.trace import InlineRule

#: Hard cap on optimizing recompilations of one method, bounding any
#: recompile churn from rapidly-shifting early profiles.
MAX_OPT_VERSIONS = 4


def rules_fingerprint_of(rules) -> int:
    """Process-independent fingerprint of a rule *list*, in its order.

    The AI organizer lists its rules by descending weight, so the
    fingerprint changes when two rules swap places by weight, not only
    when the rule set changes; a changed fingerprint does not imply a
    changed set.  The builtin ``hash()`` is salted by PYTHONHASHSEED, so
    the AOS uses a CRC over each rule's identity instead, and
    decision-provenance logs recorded on different machines carry
    comparable fingerprints.
    """
    return zlib.crc32(repr(
        tuple((r.key.callee, r.key.context) for r in rules)).encode())


class AOSState:
    """Profile state shared between organizers and the controller."""

    def __init__(self) -> None:
        self.dcg = DynamicCallGraph()
        self.rules: List[InlineRule] = []
        self.rules_fingerprint: int = 0
        self.method_samples: Dict[str, float] = {}


class DCGOrganizer:
    """Drains the trace listener's buffer into the dynamic call graph."""

    def __init__(self, state: AOSState, policy: ContextSensitivityPolicy,
                 costs: CostModel):
        self._state = state
        self._policy = policy
        self._costs = costs

    def run(self, machine, trace_listener: TraceListener) -> int:
        samples = trace_listener.drain()
        for key in samples:
            self._state.dcg.add(key)
        if samples:
            machine.charge(AI_ORGANIZER,
                           len(samples) * self._costs.dcg_ingest_cost)
            # Adaptive policies (imprecision-driven) react to fresh data.
            self._policy.observe(self._state.dcg)
        return len(samples)


class AIOrganizer:
    """Derives inlining rules from hot traces (threshold share of weight).

    Traces whose share hovers at the threshold would otherwise enter and
    leave the rule set on every epoch (sampling noise plus decay pruning),
    and each flicker looks like "rules changed" to the missing-edge
    organizer -- triggering useless recompilation.  The organizer therefore
    applies hysteresis: a trace must be hot for :data:`ENTER_STREAK`
    consecutive epochs to become a rule, and a rule is only dropped after
    :data:`EXIT_STREAK` consecutive cold epochs.
    """

    #: Consecutive hot epochs before a trace becomes a rule.
    ENTER_STREAK = 1
    #: Consecutive epochs below the retention band before a rule retires.
    EXIT_STREAK = 4
    #: A rule is retained while its share stays above this fraction of the
    #: entry threshold (hysteresis in share space).
    RETAIN_FRACTION = 0.6

    def __init__(self, state: AOSState, costs: CostModel):
        self._state = state
        self._costs = costs
        self._hot_streak: Dict[object, int] = {}
        self._cold_streak: Dict[object, int] = {}
        self._active: Dict[object, float] = {}  # key -> last hot weight

    def run(self, machine) -> List[InlineRule]:
        state = self._state
        machine.charge(AI_ORGANIZER,
                       len(state.dcg) * self._costs.ai_examine_cost)
        total = state.dcg.total_weight
        if total < self._costs.ai_min_total_weight:
            return state.rules  # too little data to act on yet

        threshold = self._costs.hot_edge_threshold
        hot = state.dcg.hot_traces(threshold)
        hot_keys = {key for key, _weight in hot}
        retained_keys = {key for key, _weight in state.dcg.hot_traces(
            threshold * self.RETAIN_FRACTION)}

        for key, weight in hot:
            self._hot_streak[key] = self._hot_streak.get(key, 0) + 1
            self._cold_streak.pop(key, None)
            if (key in self._active
                    or self._hot_streak[key] >= self.ENTER_STREAK):
                self._active[key] = weight
        for key in list(self._hot_streak):
            if key not in hot_keys:
                del self._hot_streak[key]
        for key in list(self._active):
            if key in retained_keys:
                self._cold_streak.pop(key, None)
                continue
            streak = self._cold_streak.get(key, 0) + 1
            self._cold_streak[key] = streak
            if streak >= self.EXIT_STREAK:
                del self._active[key]
                del self._cold_streak[key]

        rules = [InlineRule(key, weight, weight / total if total else 0.0)
                 for key, weight in sorted(
                     self._active.items(),
                     key=lambda kv: (-kv[1], kv[0].callee, kv[0].context))]
        state.rules = rules
        state.rules_fingerprint = rules_fingerprint_of(rules)
        return rules


class HotMethodsOrganizer:
    """Aggregates method samples; raises hot-method events."""

    def __init__(self, state: AOSState, costs: CostModel):
        self._state = state
        self._costs = costs

    def run(self, machine, method_listener: MethodListener,
            controller) -> int:
        samples = method_listener.drain()
        if not samples:
            return 0
        machine.charge(METHOD_ORGANIZER,
                       len(samples) * self._costs.method_organizer_cost)
        counts = self._state.method_samples
        touched: Set[str] = set()
        for method_id in samples:
            counts[method_id] = counts.get(method_id, 0.0) + 1.0
            touched.add(method_id)
        for method_id in sorted(touched):
            if counts[method_id] >= self._costs.hot_method_samples:
                controller.method_is_hot(method_id, counts[method_id])
        return len(samples)


class DecayOrganizer:
    """Periodically decays all profile data (paper Section 3.2)."""

    def __init__(self, state: AOSState, costs: CostModel):
        self._state = state
        self._costs = costs
        self.runs = 0

    def run(self, machine) -> None:
        self.runs += 1
        state = self._state
        processed = state.dcg.decay(self._costs.decay_rate)
        for method_id in list(state.method_samples):
            decayed = state.method_samples[method_id] * self._costs.decay_rate
            if decayed < 0.25:
                del state.method_samples[method_id]
            else:
                state.method_samples[method_id] = decayed
        processed += len(state.method_samples)
        machine.charge(DECAY_ORGANIZER,
                       processed * self._costs.decay_entry_cost)


class MissingEdgeOrganizer:
    """Detects hot edges that became hot after their caller was compiled.

    For every installed optimized method compiled under an older rule set,
    checks whether some current rule names a call site in that method whose
    callee is not inlined there.  Unless the AOS database records a refusal
    for that edge, a recompilation event is raised.
    """

    def __init__(self, state: AOSState, code_cache: CodeCache,
                 database: AOSDatabase, costs: CostModel):
        self._state = state
        self._code_cache = code_cache
        self._database = database
        self._costs = costs

    def run(self, machine, controller) -> int:
        state = self._state
        rules_by_site: Dict[Tuple[str, int], List[InlineRule]] = {}
        for rule in state.rules:
            rules_by_site.setdefault(rule.context[0], []).append(rule)
        # The replay must agree with the oracle's guard-coverage test or it
        # will request recompiles the compiler then declines, forever.
        self._site_traces = build_site_trace_index(state.dcg)

        self._checks = 0
        requested = 0
        hot_bar = self._costs.hot_method_samples
        for compiled in self._code_cache.opt_methods():
            if compiled.rules_fingerprint == state.rules_fingerprint:
                continue  # compiled under the current rules already
            method_id = compiled.method.id
            if compiled.version >= MAX_OPT_VERSIONS:
                continue
            # Only *hot* optimized methods are examined (Section 3.2).
            if state.method_samples.get(method_id, 0.0) < hot_bar:
                continue
            if self._needs_recompile(compiled.root, (), rules_by_site):
                controller.recompile_for_missing_edge(method_id)
                requested += 1
        if self._checks:
            machine.charge(AI_ORGANIZER,
                           self._checks * self._costs.missing_edge_check_cost)
        return requested

    def _needs_recompile(self, node, ctx_above,
                         rules_by_site: Dict[Tuple[str, int],
                                             List[InlineRule]]) -> bool:
        """Replay the oracle's profile predictions over an inline tree.

        A recompile is worthwhile when some call site in the compiled code
        (at its actual compilation context) either

        * *misses* a target the current rules would now inline there
          (the edge became hot after the last compile), or
        * carries a *stale guard*: a speculatively inlined target the
          current rules no longer predict -- meaning the guard is wasted
          (or worse, the dominant target changed).

        Sites the oracle refused for durable reasons (size, space,
        recursion -- recorded in the AOS database) and sites at the
        inline-depth cap are skipped; recommending those again would be
        pure churn.
        """
        method_id = node.method.id
        for stmt in iter_call_sites(node.method.body):
            self._checks += 1
            site = stmt.site
            site_key = (method_id, site)
            decision = node.decisions.get(site)
            inlined = ({option.target.id for option in decision.options}
                       if decision is not None else set())

            site_rules = rules_by_site.get(site_key)
            if site_rules and node.depth < self._costs.max_inline_depth:
                comp_context = ((method_id, site),) + ctx_above
                predicted = candidate_targets(site_rules, comp_context)
                if predicted and stmt.kind in (S_VIRTUAL_CALL,
                                               S_INTERFACE_CALL):
                    # Mirror the oracle: a guarded inline only happens when
                    # the predicted targets cover enough dispatches.  Ties
                    # break by id, in the oracle's order (``predicted``
                    # follows set order, which string hashing decides).
                    chosen = set(sorted(predicted,
                                        key=lambda t: (-predicted[t], t))
                                 [:self._costs.max_guarded_targets])
                    coverage = guard_coverage(
                        self._site_traces.get(site_key, ()),
                        comp_context, chosen)
                    if coverage < self._costs.guard_coverage_min:
                        predicted = {}
                for target_id in predicted:
                    if (target_id not in inlined
                            and not self._database.was_refused(
                                method_id, site, target_id)):
                        return True
                if decision is not None and decision.kind == GUARDED:
                    for target_id in inlined:
                        if target_id not in predicted:
                            return True  # stale guard
            elif (decision is not None and decision.kind == GUARDED
                  and not site_rules):
                return True  # every rule for this guarded site retired

            if decision is not None:
                comp_context = ((method_id, site),) + ctx_above
                for option in decision.options:
                    if self._needs_recompile(option.node, comp_context,
                                             rules_by_site):
                        return True
        return False
