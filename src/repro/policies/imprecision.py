"""The imprecision-driven adaptive policy (paper Section 4.3, final scheme).

The paper describes -- but did not implement -- a policy that starts with
context-insensitive profiling everywhere and *adds* context sensitivity
only at call sites whose profiles are demonstrably imprecise:

1. all sites begin at depth 1 (plain edge profiling);
2. each time the DCG organizer processes a batch, it identifies
   polymorphic call sites whose target distribution is not highly skewed
   (no target holds a dominant share).  Such sites cannot be guard-inlined
   from the data at hand, so their depth is increased;
3. iteration continues until the imprecision resolves (some context-
   qualified view of the site is skewed) or the site is declared
   *inherently polymorphic* and abandoned back to depth 1.

This module implements that loop as an extension of the reproduction
(experiment E10 in DESIGN.md).  Plevyak's iterative call-graph
construction used the same idea offline.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.policies.base import ContextSensitivityPolicy
from repro.profiles.dcg import SKEW_THRESHOLD, DynamicCallGraph

#: After this many consecutive epochs at maximum depth with the site still
#: unskewed, the site is declared inherently polymorphic.
GIVE_UP_EPOCHS = 3


class ImprecisionDriven(ContextSensitivityPolicy):
    """Adaptively deepen profiling only at imprecise polymorphic sites."""

    label = "imprecision"

    def __init__(self, max_depth: int):
        super().__init__(max_depth)
        self._site_depth: Dict[Tuple[str, int], int] = {}
        self._epochs_at_max: Dict[Tuple[str, int], int] = {}
        self._abandoned: Dict[Tuple[str, int], bool] = {}
        #: Number of observe() epochs processed (diagnostics).
        self.epochs = 0

    # -- listener-facing API ---------------------------------------------------

    def depth_limit(self, caller_id: str, site: int) -> int:
        return self._site_depth.get((caller_id, site), 1)

    # -- organizer feedback ------------------------------------------------------

    def observe(self, dcg: DynamicCallGraph) -> None:
        """One iteration of the imprecision-resolution loop."""
        self.epochs += 1
        flagged = set(dcg.polymorphic_unskewed_sites())

        for site_key in flagged:
            if self._abandoned.get(site_key):
                continue
            current = self._site_depth.get(site_key, 1)
            if current < self.max_depth:
                # Depth-1 view is unskewed only if the *contextual* views
                # are too -- but deeper samples haven't accumulated yet, so
                # check whether added context has already resolved it.
                if current == 1 or not self._context_resolves(dcg, site_key,
                                                              current):
                    self._site_depth[site_key] = current + 1
                self._epochs_at_max.pop(site_key, None)
            else:
                if self._context_resolves(dcg, site_key, current):
                    self._epochs_at_max.pop(site_key, None)
                    continue
                stuck = self._epochs_at_max.get(site_key, 0) + 1
                self._epochs_at_max[site_key] = stuck
                if stuck >= GIVE_UP_EPOCHS:
                    # Inherently too polymorphic: stop paying for context.
                    self._abandoned[site_key] = True
                    self._site_depth[site_key] = 1

        # Sites no longer flagged have resolved; keep their depth (the
        # useful context) but clear any give-up counters.
        for site_key in list(self._epochs_at_max):
            if site_key not in flagged:
                del self._epochs_at_max[site_key]

    def _context_resolves(self, dcg: DynamicCallGraph,
                          site_key: Tuple[str, int], depth: int) -> bool:
        """Is some depth>1 contextual view of this site skewed?

        If any context-qualified slice of the site's samples has a dominant
        target, the added context is paying off.
        """
        caller_id, site = site_key
        by_context: Dict[tuple, Dict[str, float]] = {}
        for key, weight in dcg.items():
            c0 = key.context[0]
            if c0[0] != caller_id or c0[1] != site or key.depth < 2:
                continue
            targets = by_context.setdefault(key.context, {})
            targets[key.callee] = targets.get(key.callee, 0.0) + weight
        for targets in by_context.values():
            total = sum(targets.values())
            if total > 0 and max(targets.values()) / total >= SKEW_THRESHOLD:
                return True
        return False

    # -- diagnostics ---------------------------------------------------------------

    def deepened_sites(self) -> Dict[Tuple[str, int], int]:
        """Sites currently profiled deeper than depth 1."""
        return {k: d for k, d in self._site_depth.items() if d > 1}

    def abandoned_sites(self) -> int:
        """Sites declared inherently polymorphic."""
        return sum(1 for v in self._abandoned.values() if v)
