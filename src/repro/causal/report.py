"""The "what's worth optimizing" report over a causal grid.

Predicted speedups are *progress-rate* changes: for each seed the
experiment's marks-per-cycle throughput is paired against its same-seed
baseline, and ``100 * (rate_exp / rate_base - 1)`` is one replicate.
Replicates feed Student-t confidence intervals
(:func:`repro.metrics.stats.confidence_interval`); a cell whose relative
CI width exceeds :data:`NOISY_RCIW` -- or that has fewer than two
replicates -- is flagged noisy, following the JMH-style guidance that a
wide interval means "collect more data", not "trust the mean".

Each component's measured causal effect is reported next to its
*accounted* share of execution time (what a conventional profiler would
say).  The interesting rows are where they disagree: a component with a
2% accounted share whose virtual speedup buys 6% throughput is a
leverage point no flat profile would surface.

Everything is emitted as a versioned ``repro.causal/v1`` JSON bundle;
:func:`validate_causal_bundle` checks structure plus the acceptance
invariant that the top-ranked component's progress-rate effect is
reproduced in sign by the plain wall-clock (total-cycles) effect of the
same cost-model override.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, List, Optional, Sequence

from repro.atomic_file import write_atomic
from repro.causal.components import accounted_share, component_names
from repro.causal.engine import CausalResults
from repro.jvm.costs import DEFAULT_COSTS
from repro.metrics.report import format_table
from repro.metrics.stats import confidence_interval, relative_ci_width
from repro.telemetry.progress import progress_rate

#: Schema identifier of the causal report bundle.
CAUSAL_SCHEMA = "repro.causal/v1"

#: Relative-CI-width threshold above which a cell is flagged noisy.
NOISY_RCIW = 0.25

#: The magnitude (in percent speedup) below which a sign disagreement
#: between progress-rate and wall-clock effects is treated as noise
#: around zero rather than a validation failure.
SIGN_EPSILON = 0.5


def _finite(value: float) -> Optional[float]:
    """JSON-safe float: ``None`` for infinities/NaN (strict JSON)."""
    return value if math.isfinite(value) else None


def cell_stats(results: CausalResults, benchmark: str, family: str,
               component: str, factor: float) -> dict:
    """Paired multi-seed statistics for one experiment cell."""
    pairs = results.pairs(benchmark, family, component, factor)
    rate_speedups: List[float] = []
    cycle_speedups: List[float] = []
    for _seed, base, exp in pairs:
        base_rate = progress_rate(base.progress_points, base.total_cycles)
        exp_rate = progress_rate(exp.progress_points, exp.total_cycles)
        if base_rate > 0.0:
            rate_speedups.append(100.0 * (exp_rate / base_rate - 1.0))
        if exp.total_cycles > 0.0:
            cycle_speedups.append(
                100.0 * (base.total_cycles / exp.total_cycles - 1.0))
    if rate_speedups:
        interval = confidence_interval(rate_speedups)
        rciw = relative_ci_width(rate_speedups)
        noisy = interval.n < 2 or rciw > NOISY_RCIW
        stats = {
            "mean_speedup_pct": round(interval.mean, 4),
            "ci_low": _finite(round(interval.low, 4)),
            "ci_high": _finite(round(interval.high, 4)),
            "rciw": _finite(round(rciw, 4)),
            "noisy": noisy,
        }
    else:
        stats = {"mean_speedup_pct": None, "ci_low": None, "ci_high": None,
                 "rciw": None, "noisy": True}
    stats.update({
        "factor": factor,
        "seeds": len(pairs),
        "expected_seeds": results.config.seeds,
        "cycles_speedup_pct": round(
            sum(cycle_speedups) / len(cycle_speedups), 4)
        if cycle_speedups else None,
        "per_seed_speedup_pct": [round(s, 4) for s in rate_speedups],
    })
    return stats


def component_curve(results: CausalResults, benchmark: str, family: str,
                    component: str) -> dict:
    """One component's factor curve plus its accounted-share contrast."""
    factors = sorted(results.config.factors)
    cells = [cell_stats(results, benchmark, family, component, factor)
             for factor in factors]
    share: Optional[float] = None
    base = next((results.baseline(benchmark, family, seed)
                 for seed in range(results.config.seeds)
                 if results.baseline(benchmark, family, seed) is not None),
                None)
    if base is not None:
        share = accounted_share(component, base, DEFAULT_COSTS)
    peak = max((cell["mean_speedup_pct"] for cell in cells
                if cell["mean_speedup_pct"] is not None),
               default=None)
    return {
        "component": component,
        "accounted_share_pct": round(100.0 * share, 4)
        if share is not None else None,
        "peak_speedup_pct": round(peak, 4) if peak is not None else None,
        "cells": cells,
    }


def _max_factor_speedup(curve: dict) -> Optional[float]:
    """Mean speedup of the curve's highest-factor cell."""
    if not curve["cells"]:
        return None
    return curve["cells"][-1]["mean_speedup_pct"]


def benchmark_report(results: CausalResults, benchmark: str,
                     family: str) -> dict:
    """Full per-(benchmark, family) causal report."""
    curves = [component_curve(results, benchmark, family, component)
              for component in results.config.components]
    ranking = sorted(
        (curve["component"] for curve in curves
         if _max_factor_speedup(curve) is not None),
        key=lambda name: (-next(_max_factor_speedup(c) for c in curves
                                if c["component"] == name), name))
    return {
        "benchmark": benchmark,
        "family": family,
        "depth": results.config.depth,
        "components": curves,
        "ranking": ranking,
    }


def _overall_ranking(reports: Sequence[dict]) -> List[dict]:
    """Components ranked by mean max-factor speedup across all reports."""
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    shares: Dict[str, List[float]] = {}
    for report in reports:
        for curve in report["components"]:
            speedup = _max_factor_speedup(curve)
            if speedup is None:
                continue
            name = curve["component"]
            sums[name] = sums.get(name, 0.0) + speedup
            counts[name] = counts.get(name, 0) + 1
            if curve["accounted_share_pct"] is not None:
                shares.setdefault(name, []).append(
                    curve["accounted_share_pct"])
    rows = []
    for name in sorted(sums, key=lambda n: (-sums[n] / counts[n], n)):
        mean_share = (sum(shares[name]) / len(shares[name])
                      if name in shares else None)
        rows.append({
            "component": name,
            "mean_speedup_pct": round(sums[name] / counts[name], 4),
            "benchmarks": counts[name],
            "mean_accounted_share_pct": round(mean_share, 4)
            if mean_share is not None else None,
        })
    return rows


def _validate_top_component(results: CausalResults,
                            ranking: Sequence[dict]) -> dict:
    """Cross-check the winner's effect against plain wall-clock runs.

    The causal measurement is a progress-rate delta; the same cells'
    total-cycle ratios are what a plain ``CostModel``-override run
    reports.  Both are computed from the grid's stored results, so the
    check costs nothing and stays deterministic.  Sign agreement (up to
    :data:`SIGN_EPSILON` around zero) is the acceptance invariant; the
    magnitudes are reported for the rough-agreement eyeball.
    """
    if not ranking:
        return {"top_component": None, "sign_agrees": None}
    top = ranking[0]["component"]
    max_factor = max(results.config.factors)
    rate_effects: List[float] = []
    cycle_effects: List[float] = []
    for benchmark in results.config.benchmarks:
        for family in results.config.families:
            stats = cell_stats(results, benchmark, family, top, max_factor)
            if stats["mean_speedup_pct"] is not None:
                rate_effects.append(stats["mean_speedup_pct"])
            if stats["cycles_speedup_pct"] is not None:
                cycle_effects.append(stats["cycles_speedup_pct"])
    if not rate_effects or not cycle_effects:
        return {"top_component": top, "sign_agrees": None}
    rate_mean = sum(rate_effects) / len(rate_effects)
    cycle_mean = sum(cycle_effects) / len(cycle_effects)
    near_zero = (abs(rate_mean) < SIGN_EPSILON
                 or abs(cycle_mean) < SIGN_EPSILON)
    agrees = near_zero or (rate_mean > 0) == (cycle_mean > 0)
    return {
        "top_component": top,
        "factor": max_factor,
        "progress_rate_speedup_pct": round(rate_mean, 4),
        "wall_clock_speedup_pct": round(cycle_mean, 4),
        "sign_agrees": agrees,
    }


def build_causal_bundle(results: CausalResults) -> dict:
    """The versioned ``repro.causal/v1`` bundle for one grid."""
    reports = [benchmark_report(results, benchmark, family)
               for benchmark in results.config.benchmarks
               for family in results.config.families]
    ranking = _overall_ranking(reports)
    bundle = {
        "schema": CAUSAL_SCHEMA,
        "config": dataclasses.asdict(results.config),
        "benchmarks": reports,
        "ranking": ranking,
        "validation": _validate_top_component(results, ranking),
        "failures": [dataclasses.asdict(results.failures[key])
                     for key in sorted(results.failures)],
    }
    bundle["problems"] = validate_causal_bundle(bundle)
    bundle["ok"] = not bundle["problems"]
    return bundle


def validate_causal_bundle(bundle: dict) -> List[str]:
    """Structural + acceptance checks; returns problems (empty = valid)."""
    problems: List[str] = []
    if bundle.get("schema") != CAUSAL_SCHEMA:
        problems.append(f"schema is {bundle.get('schema')!r}, "
                        f"expected {CAUSAL_SCHEMA!r}")
        return problems
    reports = bundle.get("benchmarks") or []
    if not reports:
        problems.append("bundle reports no benchmarks")
    known = set(component_names())
    for report in reports:
        name = f"{report.get('benchmark', '?')}/{report.get('family', '?')}"
        curves = report.get("components") or []
        if not curves:
            problems.append(f"{name}: no component curves")
        for curve in curves:
            if curve.get("component") not in known:
                problems.append(f"{name}: unknown component "
                                f"{curve.get('component')!r}")
            for cell in curve.get("cells") or []:
                missing = [field for field in
                           ("factor", "seeds", "mean_speedup_pct",
                            "ci_low", "ci_high", "rciw", "noisy")
                           if field not in cell]
                if missing:
                    problems.append(
                        f"{name}/{curve.get('component')}: cell missing "
                        f"{', '.join(missing)}")
                    break
                if cell["seeds"] < cell.get("expected_seeds", 0):
                    problems.append(
                        f"{name}/{curve.get('component')}@"
                        f"{cell['factor']:g}: only {cell['seeds']} of "
                        f"{cell['expected_seeds']} seed pair(s) present")
        if not report.get("ranking"):
            problems.append(f"{name}: empty component ranking")
    if not bundle.get("ranking"):
        problems.append("bundle has no overall ranking")
    validation = bundle.get("validation") or {}
    if validation.get("sign_agrees") is False:
        problems.append(
            f"top component {validation.get('top_component')!r}: "
            f"progress-rate effect "
            f"({validation.get('progress_rate_speedup_pct')}%) disagrees "
            f"in sign with wall-clock effect "
            f"({validation.get('wall_clock_speedup_pct')}%)")
    if bundle.get("failures"):
        problems.append(f"{len(bundle['failures'])} grid cell(s) failed")
    return problems


def render_causal_bundle(bundle: dict) -> str:
    """Human-readable "what's worth optimizing" summary."""
    out: List[str] = []
    config = bundle["config"]
    out.append(
        f"Causal profile: {', '.join(config['benchmarks'])} | "
        f"families {', '.join(config['families'])}"
        f"(max={config['depth']}) | {config['seeds']} seed(s), "
        f"scale {config['scale']:g}")
    out.append("")

    rows = []
    for entry in bundle["ranking"]:
        share = entry["mean_accounted_share_pct"]
        rows.append([
            entry["component"],
            f"{entry['mean_speedup_pct']:+.2f}%",
            f"{share:.2f}%" if share is not None else "-",
            str(entry["benchmarks"]),
        ])
    out.append(format_table(
        ["component", "predicted speedup", "accounted share", "benchmarks"],
        rows,
        title="What's worth optimizing (virtual speedup at max factor)"))
    out.append("")

    for report in bundle["benchmarks"]:
        rows = []
        for curve in report["components"]:
            for cell in curve["cells"]:
                mean = cell["mean_speedup_pct"]
                if mean is None:
                    ci = "-"
                    mean_text = "-"
                else:
                    mean_text = f"{mean:+.2f}%"
                    low, high = cell["ci_low"], cell["ci_high"]
                    ci = (f"[{low:+.2f}, {high:+.2f}]"
                          if low is not None and high is not None
                          else "[-inf, +inf]")
                rows.append([
                    curve["component"],
                    f"{cell['factor']:g}",
                    mean_text,
                    ci,
                    "noisy" if cell["noisy"] else "ok",
                ])
        out.append(format_table(
            ["component", "factor", "speedup", "95% CI", "signal"],
            rows,
            title=f"{report['benchmark']} / {report['family']}"
                  f"(max={report['depth']})"))
        out.append("")

    validation = bundle["validation"]
    if validation.get("top_component"):
        out.append(
            f"validation: top component {validation['top_component']!r} "
            f"at factor {validation.get('factor', 0):g} -- progress-rate "
            f"{validation.get('progress_rate_speedup_pct')}% vs wall-clock "
            f"{validation.get('wall_clock_speedup_pct')}% "
            f"({'sign agrees' if validation.get('sign_agrees') else 'SIGN DISAGREES'})")
    if bundle["ok"]:
        out.append("causal bundle: OK")
    else:
        out.append("causal bundle: INVALID")
        for problem in bundle["problems"]:
            out.append(f"  - {problem}")
    return "\n".join(out)


def write_causal_bundle(path: str, bundle: dict) -> None:
    """Atomically persist a bundle as sorted-key JSON."""
    write_atomic(path, json.dumps(bundle, indent=2, sort_keys=True))
