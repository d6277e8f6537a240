"""Per-component overhead/latency summaries over telemetry snapshots.

The summary is the tabular counterpart of Figure 6: for each AOS
component it reports how many spans ran, the cycles they consumed
(span ``self_cycles``, which sums to the component's
:class:`~repro.aos.cost_accounting.CostAccounting` total by
construction), the fraction of total execution time, and simple span
latency statistics.  :func:`reconcile` asserts that agreement against a
run's actual accounting snapshot -- the subsystem's own measurement
honesty check.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.aos.cost_accounting import ALL_COMPONENTS, APP
from repro.metrics.report import format_table
from repro.telemetry.recorder import TelemetrySnapshot

#: Relative disagreement tolerated between span totals and accounting
#: (floating-point summation order differs between the two sides).
RECONCILE_REL_TOL = 1e-9


def component_totals(snapshot: TelemetrySnapshot) -> Dict[str, float]:
    """Sum span ``self_cycles`` per component track.

    ``app`` is reported as the residual (total minus every span-covered
    component): the application has no spans of its own, exactly as it
    has no listener/organizer/compiler regions.
    """
    totals: Dict[str, float] = {}
    for span in snapshot.spans:
        totals[span.component] = totals.get(span.component, 0.0) \
            + span.self_cycles
    totals[APP] = snapshot.total_cycles - sum(
        cycles for component, cycles in totals.items() if component != APP)
    return totals


def span_stats(snapshot: TelemetrySnapshot) \
        -> Dict[str, Tuple[int, float, float]]:
    """Per component: (span count, mean span cycles, max span cycles)."""
    grouped: Dict[str, List[float]] = {}
    for span in snapshot.spans:
        grouped.setdefault(span.component, []).append(span.self_cycles)
    return {component: (len(values), sum(values) / len(values), max(values))
            for component, values in grouped.items()}


def summarize(snapshot: TelemetrySnapshot) -> Tuple[List[dict], str]:
    """Build the per-component overhead table; returns (rows, rendered)."""
    totals = component_totals(snapshot)
    stats = span_stats(snapshot)
    total = snapshot.total_cycles or 1.0

    components = [c for c in ALL_COMPONENTS if c in totals]
    components += sorted(c for c in totals if c not in ALL_COMPONENTS)

    rows = []
    for component in components:
        count, mean, peak = stats.get(component, (0, 0.0, 0.0))
        rows.append({
            "component": component,
            "spans": count,
            "cycles": totals[component],
            "fraction": totals[component] / total,
            "mean_span_cycles": mean,
            "max_span_cycles": peak,
        })
    rendered = format_table(
        ["component", "spans", "cycles", "% of total", "mean span", "max span"],
        [[r["component"], str(r["spans"]), f"{r['cycles']:,.0f}",
          f"{100.0 * r['fraction']:.3f}%", f"{r['mean_span_cycles']:,.1f}",
          f"{r['max_span_cycles']:,.1f}"] for r in rows],
        title=f"Telemetry component summary ({snapshot.label}, "
              f"{snapshot.total_cycles:,.0f} cycles)")
    return rows, rendered


def reconcile(snapshot: TelemetrySnapshot,
              accounting: Mapping[str, float],
              rel_tol: float = RECONCILE_REL_TOL) -> Tuple[bool, List[dict], str]:
    """Check span totals against a run's cost-accounting snapshot.

    ``accounting`` is :meth:`CostAccounting.snapshot` (or the equal
    ``RunResult.component_cycles``).  Returns ``(ok, rows, rendered)``
    where ``ok`` means every component agrees within ``rel_tol``
    (relative to total cycles).
    """
    totals = component_totals(snapshot)
    total = snapshot.total_cycles or 1.0
    ok = True
    rows = []
    for component in ALL_COMPONENTS:
        measured = totals.get(component, 0.0)
        expected = accounting.get(component, 0.0)
        diff = measured - expected
        agrees = abs(diff) <= rel_tol * max(total, 1.0)
        ok = ok and agrees
        rows.append({
            "component": component,
            "span_cycles": measured,
            "accounting_cycles": expected,
            "diff": diff,
            "ok": agrees,
        })
    rendered = format_table(
        ["component", "span cycles", "accounting", "diff", "ok"],
        [[r["component"], f"{r['span_cycles']:,.1f}",
          f"{r['accounting_cycles']:,.1f}", f"{r['diff']:+.3g}",
          "yes" if r["ok"] else "NO"] for r in rows],
        title="Telemetry vs cost accounting reconciliation")
    return ok, rows, rendered

