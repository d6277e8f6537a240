"""Derived metrics over decision records.

These are the quantities the paper's claims are *about* but which raw
run metrics do not expose directly:

* **refusal histogram** -- how often each reason code blocked an inline;
* **guard-elimination count** -- virtual/interface sites inlined with no
  runtime guard (closed-world CHA or pre-existence), the mechanism
  behind the paper's guard-removal claims;
* **dilution ratio** -- averaged over guarded decisions, the fraction of
  context-applicable dispatch weight the chosen targets do *not* cover.
  0.0 means every guard covers its full context; values near the
  ``guard_coverage_min`` complement mean guards barely clear the
  skew test and will miss often.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.provenance.reasons import VERDICT_DIRECT, VERDICT_REFUSED
from repro.provenance.records import DecisionRecord

#: Site kinds that dispatch dynamically (a direct inline there is a
#: guard/dispatch eliminated).
_DYNAMIC_SITE_KINDS = ("virtual", "interface")


def refusal_histogram(decisions: Iterable[DecisionRecord]) -> Dict[str, int]:
    """``{reason code: count}`` over refused decisions (sorted keys)."""
    histogram: Dict[str, int] = {}
    for record in decisions:
        if record.verdict == VERDICT_REFUSED:
            histogram[record.reason] = histogram.get(record.reason, 0) + 1
    return dict(sorted(histogram.items()))


def guard_elimination_count(decisions: Iterable[DecisionRecord]) -> int:
    """Dynamic-dispatch sites inlined *without* a runtime guard.

    Counts direct verdicts at virtual/interface sites whose guard kind is
    not a runtime test (closed-world CHA needs nothing; pre-existence
    trades the guard for an invalidation dependency).
    """
    return sum(1 for record in decisions
               if record.verdict == VERDICT_DIRECT
               and record.site_kind in _DYNAMIC_SITE_KINDS)


def dilution_ratio(decisions: Iterable[DecisionRecord]) -> float:
    """Mean uncovered dispatch-weight fraction over guarded decisions.

    Only guarded decisions that actually consulted coverage data (their
    ``coverage`` field is set) participate; 0.0 when none did.
    """
    total = 0.0
    count = 0
    for record in decisions:
        if record.verdict == "guarded" and record.coverage is not None:
            total += 1.0 - record.coverage
            count += 1
    return total / count if count else 0.0


def derived_metrics(decisions: Sequence[DecisionRecord]) -> Dict[str, float]:
    """All derived metrics as a flat ``{metric name: value}`` mapping."""
    metrics: Dict[str, float] = {
        "provenance.decisions": float(len(decisions)),
        "provenance.inlines.direct": float(sum(
            1 for r in decisions if r.verdict == VERDICT_DIRECT)),
        "provenance.inlines.guarded": float(sum(
            1 for r in decisions if r.verdict == "guarded")),
        "provenance.refusals": float(sum(
            1 for r in decisions if r.verdict == VERDICT_REFUSED)),
        "provenance.guard_eliminations": float(
            guard_elimination_count(decisions)),
        "provenance.dilution_ratio": dilution_ratio(decisions),
    }
    for reason, count in refusal_histogram(decisions).items():
        metrics[f"provenance.refusals.{reason}"] = float(count)
    return metrics

