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
from functools import lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.aos.cost_accounting import (AI_ORGANIZER, DECAY_ORGANIZER,
                                       METHOD_ORGANIZER)
from repro.aos.database import AOSDatabase
from repro.aos.listeners import MethodListener, TraceListener
from repro.compiler.code_cache import CodeCache
from repro.compiler.compiled_method import GUARDED, InlineNode
from repro.compiler.opt_compiler import iter_call_sites
from repro.compiler.oracle import guard_coverage
from repro.jvm.program import S_STATIC_CALL
from repro.jvm.costs import AI_MIN_TOTAL_WEIGHT, HOT_METHOD_SAMPLES, CostModel
from repro.policies.base import ContextSensitivityPolicy
from repro.profiles.dcg import DynamicCallGraph
from repro.profiles.partial_match import candidate_targets
from repro.profiles.trace import Context, InlineRule, TraceKey

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

    The CRC covers the repr of the tuple of ``(callee, context)`` pairs,
    joined from each trace's text, which is built once per trace.
    """
    texts = [_trace_text(rule.key) for rule in rules]
    trailer = "," if len(texts) == 1 else ""  # as in ``repr((x,))``
    return zlib.crc32(f"({', '.join(texts)}{trailer})".encode())


@lru_cache(maxsize=4096)
def _trace_text(key: TraceKey) -> str:
    return repr((key.callee, key.context))


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
        add = self._state.dcg.add
        for key in samples:
            add(key)
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
        if total < AI_MIN_TOTAL_WEIGHT:
            return state.rules  # too little data to act on yet

        # One read of the DCG: the retained traces (share above the
        # retention band) and, among them, the hot ones (share above the
        # threshold; the band is a fraction of it), cut as
        # ``DynamicCallGraph.hot_traces`` cuts.  The rules are sorted by a
        # total order below, so the order of this pass does not matter.
        retained: Dict[object, float] = {}
        hot: Dict[object, float] = {}
        if total > 0.0:
            threshold = self._costs.hot_edge_threshold
            retain_cutoff = (threshold * self.RETAIN_FRACTION) * total
            retained = {key: weight for key, weight in state.dcg.items()
                        if weight > retain_cutoff}
            cutoff = threshold * total
            hot = {key: weight for key, weight in retained.items()
                   if weight > cutoff}

        # A streak counts consecutive hot epochs, so only hot keys keep one.
        streaks = self._hot_streak
        self._hot_streak = streaks = {key: streaks.get(key, 0) + 1
                                      for key in hot}
        for key, weight in hot.items():
            self._cold_streak.pop(key, None)
            if key in self._active or streaks[key] >= self.ENTER_STREAK:
                self._active[key] = weight
        for key in list(self._active):
            if key in retained:
                self._cold_streak.pop(key, None)
                continue
            streak = self._cold_streak.get(key, 0) + 1
            self._cold_streak[key] = streak
            if streak >= self.EXIT_STREAK:
                del self._active[key]
                del self._cold_streak[key]

        # A TraceKey orders as its (callee, context) tuple.
        rules = [InlineRule(key, weight, weight / total if total else 0.0)
                 for key, weight in sorted(self._active.items(),
                                           key=lambda kv: (-kv[1], kv[0]))]
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
            if counts[method_id] >= HOT_METHOD_SAMPLES:
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


class ReplaySite(NamedTuple):
    """One call site of a compiled inline tree, as the replay sees it."""

    key: Tuple[str, int]    #: (enclosing method id, site id)
    context: Context        #: compilation context, innermost first
    kind: int               #: the call statement's kind
    depth: int              #: inline depth of the enclosing body
    guarded: bool           #: a guarded decision inlined targets here
    inlined: FrozenSet[str]  #: ids of the targets inlined here


def site_table(node: InlineNode, ctx_above: Context = ()
               ) -> Tuple[ReplaySite, ...]:
    """The call sites of an inline tree in replay walk order.

    The walk visits a body's call sites in statement order, nested
    blocks included, and descends into a site's inlined bodies right
    after the site itself.
    """
    table: List[ReplaySite] = []
    method_id = node.method.id
    for stmt in iter_call_sites(node.method.body):
        site = stmt.site
        context = ((method_id, site),) + ctx_above
        decision = node.decisions.get(site)
        if decision is None:
            table.append(ReplaySite(context[0], context, stmt.kind,
                                    node.depth, False, frozenset()))
            continue
        table.append(ReplaySite(
            context[0], context, stmt.kind, node.depth,
            decision.kind == GUARDED,
            frozenset(option.target.id for option in decision.options)))
        for option in decision.options:
            table.extend(site_table(option.node, context))
    return tuple(table)


class _Predictions:
    """One wake's profile predictions, each computed once.

    ``rules_by_site`` maps a site key to ``[rules, depth, cache]``.  A
    site's prediction depends on its compilation context only as deep as
    its deepest rule and, at a virtual site, its deepest trace (guard
    coverage reads those), so ``cache`` holds it per context prefix of
    that ``depth``; the prefix's head is the site.  ``cache`` is ``None``
    until :meth:`resolve` picks it: this wake's for a virtual site, whose
    traces it reads from the DCG, and ``static`` for a static one.
    ``static`` outlives the wake: a static site's prediction is read only
    for its targets, which the rules' traces decide and their weights do
    not.
    """

    def __init__(self, state: AOSState, costs: CostModel,
                 static: Dict[Context, Dict[str, float]]):
        self.rules_by_site: Dict[Tuple[str, int], list] = {}
        for rule in state.rules:
            context = rule.key.context
            entry = self.rules_by_site.get(context[0])
            if entry is None:
                self.rules_by_site[context[0]] = [[rule], len(context),
                                                  None]
            else:
                entry[0].append(rule)
                if len(context) > entry[1]:
                    entry[1] = len(context)
        self._static = static
        self._dispatched: Dict[Context, Dict[str, float]] = {}
        self._dcg = state.dcg
        self._costs = costs
        self._site_traces: Dict[Tuple[str, int], list] = {}

    def resolve(self, key: Tuple[str, int], kind: int,
                entry: list) -> Dict[Context, Dict[str, float]]:
        """Fix a site's prefix depth and prediction cache this wake."""
        if kind == S_STATIC_CALL:
            entry[2] = self._static
            return self._static
        # The site's traces keep DCG order, as the oracle's site index
        # does, so coverage sums their weights in its order.
        traces = [(trace, weight) for trace, weight in self._dcg.items()
                  if trace.context[0] == key]
        self._site_traces[key] = traces
        for trace, _weight in traces:
            if len(trace.context) > entry[1]:
                entry[1] = len(trace.context)
        entry[2] = self._dispatched
        return self._dispatched

    def predict(self, key: Tuple[str, int], context: Context, kind: int,
                rules: List[InlineRule]) -> Dict[str, float]:
        """The targets the oracle would now inline at a site."""
        predicted = candidate_targets(rules, context)
        if predicted and kind != S_STATIC_CALL:
            # Mirror the oracle: a guarded inline only happens when the
            # predicted targets cover enough dispatches.  Ties break by
            # id, in the oracle's order (``predicted`` follows set order,
            # which string hashing decides).
            chosen = set(sorted(predicted, key=lambda t: (-predicted[t], t))
                         [:self._costs.max_guarded_targets])
            coverage = guard_coverage(self._site_traces[key], context,
                                      chosen)
            if coverage < self._costs.guard_coverage_min:
                return {}
        return predicted


class MissingEdgeOrganizer:
    """Detects hot edges that became hot after their caller was compiled.

    For every installed optimized method compiled under an older rule set,
    checks whether some current rule names a call site in that method whose
    callee is not inlined there.  Unless the AOS database records a refusal
    for that edge, a recompilation event is raised.

    The replay walks each compiled method's :func:`site_table`,
    built on its first replay and kept on the compiled method.  It
    charges ``missing_edge_check_cost`` per site walked, up to and
    including the first one that asks for a recompile.
    """

    def __init__(self, state: AOSState, code_cache: CodeCache,
                 database: AOSDatabase, costs: CostModel):
        self._state = state
        self._code_cache = code_cache
        self._database = database
        self._costs = costs
        #: Static sites' predictions by context prefix, kept while the
        #: rules name the same traces.
        self._rule_traces: FrozenSet[TraceKey] = frozenset()
        self._static: Dict[Context, Dict[str, float]] = {}

    def run(self, machine, controller) -> int:
        state = self._state
        fingerprint = state.rules_fingerprint
        method_samples = state.method_samples
        predictions = None
        checks = 0
        requested = 0
        for compiled in self._code_cache.opt_methods():
            if compiled.rules_fingerprint == fingerprint:
                continue  # compiled under the current rules already
            if compiled.version >= MAX_OPT_VERSIONS:
                continue
            method_id = compiled.method.id
            # Only *hot* optimized methods are examined (Section 3.2).
            if method_samples.get(method_id, 0.0) < HOT_METHOD_SAMPLES:
                continue
            sites = compiled.replay_sites
            if sites is None:
                sites = compiled.replay_sites = site_table(compiled.root)
            if not sites:
                continue
            if predictions is None:
                rule_traces = frozenset(rule.key for rule in state.rules)
                if rule_traces != self._rule_traces:
                    self._rule_traces = rule_traces
                    self._static = {}
                predictions = _Predictions(state, self._costs, self._static)
            position = self._first_trigger(sites, predictions)
            if position is None:
                checks += len(sites)
            else:
                checks += position + 1
                controller.recompile_for_missing_edge(method_id)
                requested += 1
        if checks:
            machine.charge(AI_ORGANIZER,
                           checks * self._costs.missing_edge_check_cost)
        return requested

    def _first_trigger(self, sites: Tuple[ReplaySite, ...],
                       predictions: _Predictions) -> Optional[int]:
        """Replay the oracle's profile predictions over an inline tree.

        Returns the walk position of the first site that makes a
        recompile worthwhile, or ``None``.  A site does when, at its
        compilation context, it either

        * *misses* a target the current rules would now inline there
          (the edge became hot after the last compile), or
        * carries a *stale guard*: a speculatively inlined target the
          current rules no longer predict -- meaning the guard is wasted
          (or worse, the dominant target changed).

        Sites the oracle refused for durable reasons (size, space,
        recursion -- recorded in the AOS database) and sites at the
        inline-depth cap are skipped; recommending those again would be
        pure churn.  Only a site some current rule names, or a guarded
        one, can trigger.
        """
        rules_by_site = predictions.rules_by_site
        depth_cap = self._costs.max_inline_depth
        was_refused = self._database.was_refused
        for position, (key, context, kind, depth, guarded,
                       inlined) in enumerate(sites):
            entry = rules_by_site.get(key)
            if entry is None:
                if guarded:
                    return position  # every rule for this site retired
                continue
            if depth >= depth_cap:
                continue
            cache = entry[2]
            if cache is None:
                cache = predictions.resolve(key, kind, entry)
            prefix = context[:entry[1]]
            predicted = cache.get(prefix)
            if predicted is None:
                predicted = cache[prefix] = predictions.predict(
                    key, context, kind, entry[0])
            for target_id in predicted:
                if (target_id not in inlined
                        and not was_refused(key[0], key[1], target_id)):
                    return position
            if guarded:
                for target_id in inlined:
                    if target_id not in predicted:
                        return position  # stale guard
        return None
