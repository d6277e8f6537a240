"""The weighted dynamic call graph (DCG) over sampled traces.

The dynamic call graph organizer collates raw listener samples into this
structure (paper Section 3.2).  Entries are keyed by full
:class:`~repro.profiles.trace.TraceKey`; traces of different depths for the
same underlying edge are kept **separate** (the paper's hybrid scheme does
not merge partial matches at collection time).

The DCG also answers the aggregate queries the rest of the AOS needs:

* total profile weight (the denominator of the 1.5% hot threshold),
* the context-insensitive *edge projection* (for the imprecision-driven
  policy and for diagnostics),
* per-call-site receiver/target distributions and their skew,
* periodic decay (Section 3.2's decay organizer) that biases hot-edge
  detection toward recent samples.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.profiles.trace import TraceKey

#: Entries whose decayed weight falls below this are dropped.
PRUNE_EPSILON = 0.05

#: A call-site target distribution counts as *skewed* (predictable) when its
#: dominant target holds at least this share -- below it, the imprecision
#: policy flags the site as needing more context (paper Section 4.3).
SKEW_THRESHOLD = 0.75


class DynamicCallGraph:
    """Weighted multiset of sampled call traces."""

    def __init__(self) -> None:
        self._weights: Dict[TraceKey, float] = {}
        self._total = 0.0
        #: Monotone count of samples ever added (not decayed).
        self.samples_added = 0

    # -- ingestion -----------------------------------------------------------

    def add(self, key: TraceKey, weight: float = 1.0) -> None:
        self._weights[key] = self._weights.get(key, 0.0) + weight
        self._total += weight
        self.samples_added += 1

    # -- bulk queries --------------------------------------------------------

    @property
    def total_weight(self) -> float:
        return self._total

    def __len__(self) -> int:
        return len(self._weights)

    def weight(self, key: TraceKey) -> float:
        return self._weights.get(key, 0.0)

    def items(self) -> Iterable[Tuple[TraceKey, float]]:
        return self._weights.items()

    def hot_traces(self, threshold: float) -> List[Tuple[TraceKey, float]]:
        """Traces contributing more than ``threshold`` of total weight.

        This is where *profile dilution* (Section 4) bites: deeper contexts
        split an edge's weight over more keys, so each key's share of the
        (unchanged) total shrinks and may fall below the threshold.
        """
        if self._total <= 0.0:
            return []
        cutoff = threshold * self._total
        hot = [(k, w) for k, w in self._weights.items() if w > cutoff]
        hot.sort(key=lambda item: (-item[1], item[0].callee, item[0].context))
        return hot

    # -- projections ---------------------------------------------------------

    def site_target_distribution(self, caller_id: str,
                                 site: int) -> Dict[str, float]:
        """``{callee: weight}`` observed at one call site, all contexts."""
        out: Dict[str, float] = {}
        for key, weight in self._weights.items():
            c0 = key.context[0]
            if c0[0] == caller_id and c0[1] == site:
                out[key.callee] = out.get(key.callee, 0.0) + weight
        return out

    def polymorphic_unskewed_sites(self) -> List[Tuple[str, int]]:
        """Call sites with multiple targets and no dominant one.

        These are the sites the imprecision-driven policy flags as needing
        additional context sensitivity.
        """
        by_site: Dict[Tuple[str, int], Dict[str, float]] = {}
        for key, weight in self._weights.items():
            site_key = key.context[0]
            targets = by_site.setdefault(site_key, {})
            targets[key.callee] = targets.get(key.callee, 0.0) + weight

        flagged = []
        for site_key, targets in by_site.items():
            if len(targets) < 2:
                continue
            total = sum(targets.values())
            if total > 0 and max(targets.values()) / total < SKEW_THRESHOLD:
                flagged.append(site_key)
        flagged.sort()
        return flagged

    # -- decay ---------------------------------------------------------------

    def decay(self, rate: float) -> int:
        """Multiply all weights by ``rate``; prune tiny entries.

        Returns the number of entries processed (the decay organizer's cost
        driver).  The total weight is decayed consistently so threshold
        shares are unaffected by decay alone.
        """
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"decay rate must be in (0, 1], got {rate}")
        processed = len(self._weights)
        pruned_weight = 0.0
        new_weights: Dict[TraceKey, float] = {}
        for key, weight in self._weights.items():
            w = weight * rate
            if w >= PRUNE_EPSILON:
                new_weights[key] = w
            else:
                pruned_weight += w
        self._weights = new_weights
        self._total = self._total * rate - pruned_weight
        if self._total < 0.0:
            self._total = 0.0
        return processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DCG {len(self._weights)} traces, "
                f"total weight {self._total:.1f}>")
