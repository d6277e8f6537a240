"""Partial context matching (paper Section 3.3, Equation 3).

When the inline oracle asks which rules apply to a call site, the
compilation context (the chain of inlined callers above the site being
compiled) rarely has exactly the same depth as the profiled traces.  The
paper's hybrid solution:

* traces are **not** merged at collection time;
* at query time, a rule applies when its context agrees with the
  compilation context on every level up to ``min(k, j)`` (Equation 3);
* applicable rules are grouped by identical context, each group yields a
  set of target methods, and the **intersection** of those sets gives the
  inlining candidates -- a callee must be hot in *all* applicable traced
  contexts to be predicted.

This module implements that algorithm as pure functions so it can be
property-tested in isolation and reused by both the oracle and the
missing-edge organizer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.profiles.trace import Context, InlineRule


def contexts_compatible(rule_context: Context, comp_context: Context) -> bool:
    """Equation 3: agree on every level up to the shallower depth.

    Both contexts are innermost-first; level ``i`` compares the i-th
    (caller, callsite) pair.  Because ``min(k, j) >= 1``, compatibility
    always requires at least the immediate (caller, callsite) to match,
    i.e. the rule is about the same call site.
    """
    if len(rule_context) <= len(comp_context):
        return comp_context[:len(rule_context)] == rule_context
    return rule_context[:len(comp_context)] == comp_context


def applicable_rules(rules: Iterable[InlineRule],
                     comp_context: Context) -> List[InlineRule]:
    """All rules whose context is Eq.-3-compatible with ``comp_context``."""
    return [r for r in rules if contexts_compatible(r.context, comp_context)]


def candidate_targets(rules: Iterable[InlineRule],
                      comp_context: Context) -> Dict[str, float]:
    """The oracle's intersection-of-target-sets algorithm.

    Returns ``{callee_id: summed weight}`` for every callee present in the
    target set of **every** group of applicable rules sharing an identical
    context.  An empty dict means the profile predicts nothing here.

    The returned weights (summed rule weights across applicable groups) let
    the oracle order guarded-inline targets by hotness.
    """
    groups: Dict[Context, Set[str]] = {}
    weights: Dict[str, float] = {}
    for rule in rules:
        callee, context = rule.key
        if not contexts_compatible(context, comp_context):
            continue
        groups.setdefault(context, set()).add(callee)
        weights[callee] = weights.get(callee, 0.0) + rule.weight

    if not groups:
        return {}

    group_iter = iter(groups.values())
    candidates = set(next(group_iter))
    for target_set in group_iter:
        candidates &= target_set
        if not candidates:
            return {}
    return {callee: weights[callee] for callee in candidates}


def ordered_candidates(candidates: Dict[str, float]) -> List[Tuple[str, float]]:
    """Candidates sorted hottest-first with deterministic tie-breaking."""
    return sorted(candidates.items(), key=lambda item: (-item[1], item[0]))
