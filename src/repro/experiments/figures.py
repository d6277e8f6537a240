"""Regeneration of every table and figure in the paper's evaluation.

Each function consumes a :class:`~repro.experiments.runner.SweepResults`
(or runs the small dedicated experiment it needs) and returns both the raw
numbers and a rendered ASCII form, so the benches can print exactly the
rows/series the paper reports:

* :func:`table1` -- benchmark characteristics (classes, methods, bytecodes
  dynamically compiled);
* :func:`figure2` -- the HashMap example's context-insensitive vs
  context-sensitive profile split;
* :func:`figure4` -- wall-clock speedup per policy/depth/benchmark with the
  harmonic-mean bar;
* :func:`figure5` -- optimized code-space change, same axes;
* :func:`figure6` -- percent of execution time per AOS component;
* :func:`termination_stats` -- Section 4's in-text early-termination
  statistics;
* :func:`headline` -- the abstract's summary numbers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.aos.cost_accounting import (AI_ORGANIZER, COMPILATION, CONTROLLER,
                                       DECAY_ORGANIZER, LISTENERS,
                                       METHOD_ORGANIZER)
from repro.aos.listeners import TerminationStatsProbe
from repro.aos.runtime import AdaptiveRuntime
from repro.experiments.runner import SweepResults, run_single
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.metrics.report import (format_fraction_bars, format_percent,
                                  format_percent_matrix, format_table)
from repro.metrics.stats import harmonic_mean_speedup
from repro.policies import make_policy
from repro.workloads.hashmap_example import build as build_hashmap
from repro.workloads.spec import BENCHMARK_ORDER

#: Figure 6's component order (legend order in the paper).
FIGURE6_COMPONENTS = (LISTENERS, COMPILATION, DECAY_ORGANIZER, AI_ORGANIZER,
                      METHOD_ORGANIZER, CONTROLLER)

HARMEAN = "harMean"


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def table1(scale: float = 1.0) -> Tuple[List[dict], str]:
    """Benchmark characteristics, measured on a context-insensitive run."""
    rows = []
    for name in BENCHMARK_ORDER:
        result = run_single(name, "cins", 1, scale=scale)
        rows.append({
            "benchmark": name,
            "classes": result.classes_loaded,
            "methods": result.methods_compiled,
            "bytecodes": result.bytecodes_compiled,
        })
    rendered = format_table(
        ["Benchmark", "Classes", "Methods", "Bytecodes"],
        [[r["benchmark"], str(r["classes"]), str(r["methods"]),
          str(r["bytecodes"])] for r in rows],
        title="Table 1: benchmark characteristics (dynamically compiled)")
    return rows, rendered


# ---------------------------------------------------------------------------
# Figure 2 (the HashMap motivating example)
# ---------------------------------------------------------------------------

def figure2(iterations: int = 4000) -> Tuple[dict, str]:
    """Edge vs depth-2 profiles of the Figure 1 program.

    Runs the HashMapTest program once under edge profiling and once under
    depth-2 fixed sensitivity, then reports the target distribution at the
    ``hashCode`` site inside ``HashMap.get`` -- globally (50/50 in the
    paper's Figure 2b) and per ``runTest`` call-site context (100%/100% in
    Figure 2c).
    """
    data: Dict[str, dict] = {}
    for label, family, depth in (("edge", "cins", 1), ("trace", "fixed", 2)):
        built = build_hashmap(iterations)
        runtime = AdaptiveRuntime(built.program, make_policy(family, depth))
        runtime.run()
        dcg = runtime.state.dcg
        distribution = dcg.site_target_distribution(
            "HashMap.get", built.sites.hash_site)
        total = sum(distribution.values()) or 1.0
        global_split = {callee: weight / total
                        for callee, weight in sorted(distribution.items())}
        per_context: Dict[str, Dict[str, float]] = {}
        for key, weight in dcg.items():
            if (key.context[0] != ("HashMap.get", built.sites.hash_site)
                    or key.depth < 2):
                continue
            context_name = f"runTest@cs{key.context[1][1]}"
            bucket = per_context.setdefault(context_name, {})
            bucket[key.callee] = bucket.get(key.callee, 0.0) + weight
        for bucket in per_context.values():
            bucket_total = sum(bucket.values())
            for callee in bucket:
                bucket[callee] /= bucket_total
        data[label] = {"global": global_split, "per_context": per_context}

    lines = ["Figure 2: HashMap example profile data",
             "  (b) context-insensitive split at HashMap.get->hashCode:"]
    for callee, share in data["edge"]["global"].items():
        lines.append(f"      {callee}: {100 * share:.0f}%")
    lines.append("  (c) context-sensitive split per runTest call site:")
    for context_name, bucket in sorted(data["trace"]["per_context"].items()):
        for callee, share in sorted(bucket.items()):
            lines.append(f"      {context_name} => {callee}: "
                         f"{100 * share:.0f}%")
    return data, "\n".join(lines)


# ---------------------------------------------------------------------------
# Figures 4 and 5
# ---------------------------------------------------------------------------

def _metric_matrix(results: SweepResults, family: str,
                   metric) -> Dict[str, Dict[int, float]]:
    matrix: Dict[str, Dict[int, float]] = {}
    for benchmark in results.config.benchmarks:
        matrix[benchmark] = {depth: metric(benchmark, family, depth)
                             for depth in results.config.depths}
    matrix[HARMEAN] = {
        depth: harmonic_mean_speedup(
            [matrix[b][depth] for b in results.config.benchmarks])
        for depth in results.config.depths}
    return matrix


def figure4(results: SweepResults) -> Tuple[Dict[str, dict], str]:
    """Wall-clock speedup panels (one per policy family)."""
    panels = {family: _metric_matrix(results, family,
                                     results.speedup_percent)
              for family in results.config.families}
    rendered = "\n\n".join(
        format_percent_matrix(
            f"Figure 4 ({family}): wall-clock speedup vs cins",
            list(results.config.benchmarks) + [HARMEAN],
            list(results.config.depths), panels[family])
        for family in results.config.families)
    return panels, rendered


def figure5(results: SweepResults) -> Tuple[Dict[str, dict], str]:
    """Optimized code-space change panels (negative = smaller code)."""
    panels = {family: _metric_matrix(results, family,
                                     results.code_size_percent)
              for family in results.config.families}
    rendered = "\n\n".join(
        format_percent_matrix(
            f"Figure 5 ({family}): optimized code space vs cins",
            list(results.config.benchmarks) + [HARMEAN],
            list(results.config.depths), panels[family])
        for family in results.config.families)
    return panels, rendered


def compile_time(results: SweepResults) -> Tuple[Dict[str, dict], str]:
    """Optimizing-compilation-time change (the paper's compile-time claim)."""
    panels = {family: _metric_matrix(results, family,
                                     results.compile_time_percent)
              for family in results.config.families}
    rendered = "\n\n".join(
        format_percent_matrix(
            f"Compile time ({family}): optimizing compilation vs cins",
            list(results.config.benchmarks) + [HARMEAN],
            list(results.config.depths), panels[family])
        for family in results.config.families)
    return panels, rendered


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

def figure6(results: SweepResults) -> Tuple[Dict[str, Dict[str, float]], str]:
    """Percent of execution time in each AOS component.

    Averaged across benchmarks for the baseline and for each (family,
    depth) configuration, matching the paper's grouped bars.
    """
    series: Dict[str, Dict[str, float]] = {}
    labels: List[str] = []

    def average(family: str, depth: int) -> Dict[str, float]:
        sums = {component: 0.0 for component in FIGURE6_COMPONENTS}
        for benchmark in results.config.benchmarks:
            run = results.result(benchmark, family, depth)
            for component in FIGURE6_COMPONENTS:
                sums[component] += (run.component_cycles[component]
                                    / run.total_cycles)
        n = len(results.config.benchmarks)
        return {component: sums[component] / n
                for component in FIGURE6_COMPONENTS}

    labels.append("cins")
    series["cins"] = average("cins", 1)
    for family in results.config.families:
        for depth in results.config.depths:
            label = f"{family}-{depth}"
            labels.append(label)
            series[label] = average(family, depth)

    rendered = format_fraction_bars(
        "Figure 6: percent of execution time per AOS component",
        labels, series, FIGURE6_COMPONENTS)
    return series, rendered


# ---------------------------------------------------------------------------
# Section 4 in-text statistics
# ---------------------------------------------------------------------------

def termination_stats(scale: float = 1.0,
                      costs: CostModel = DEFAULT_COSTS
                      ) -> Tuple[Dict[str, dict], str]:
    """Early-termination statistics across the suite (Section 4.2/4.3)."""
    per_benchmark: Dict[str, dict] = {}
    for name in BENCHMARK_ORDER:
        probe = TerminationStatsProbe(costs)
        run_single(name, "cins", 1, scale=scale, costs=costs, sinks=[probe])
        per_benchmark[name] = {
            "samples": probe.samples,
            "immediately_parameterless":
                probe.fraction_immediately_parameterless(),
            "parameterless_within_5":
                probe.fraction_parameterless_within(5),
            "class_method_within_2":
                probe.fraction_class_method_within(2),
            "large_at_or_beyond_4":
                probe.fraction_large_at_or_beyond(4),
        }
    rows = [[name,
             f"{stats['immediately_parameterless'] * 100:.0f}%",
             f"{stats['parameterless_within_5'] * 100:.0f}%",
             f"{stats['class_method_within_2'] * 100:.0f}%",
             f"{stats['large_at_or_beyond_4'] * 100:.0f}%"]
            for name, stats in per_benchmark.items()]
    rendered = format_table(
        ["Benchmark", "paramless@0", "paramless<=5", "classMeth<=2",
         "large>=4"],
        rows,
        title=("Section 4 termination statistics "
               "(paper: ~20%, 50-80%, 50-80%, ~50%)"))
    return per_benchmark, rendered


# ---------------------------------------------------------------------------
# Headline numbers (abstract)
# ---------------------------------------------------------------------------

def headline(results: SweepResults) -> Tuple[dict, str]:
    """The abstract's summary: perf within ~+/-1% on average, ~10% code and
    compile-time reductions, with per-benchmark extremes."""
    speedups: List[float] = []
    code_changes: List[float] = []
    compile_changes: List[float] = []
    for benchmark in results.config.benchmarks:
        for family in results.config.families:
            for depth in results.config.depths:
                speedups.append(
                    results.speedup_percent(benchmark, family, depth))
                code_changes.append(
                    results.code_size_percent(benchmark, family, depth))
                compile_changes.append(
                    results.compile_time_percent(benchmark, family, depth))

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values)

    data = {
        "mean_speedup_percent": mean(speedups),
        "min_speedup_percent": min(speedups),
        "max_speedup_percent": max(speedups),
        "mean_code_change_percent": mean(code_changes),
        "best_code_reduction_percent": min(code_changes),
        "mean_compile_change_percent": mean(compile_changes),
        "best_compile_reduction_percent": min(compile_changes),
    }
    rendered = "\n".join([
        "Headline numbers (paper: perf +/-1% avg, -4.2%..+5.3% extremes;",
        "  ~10% code/compile reductions; up to -56.7% code, -33.0% compile)",
        f"  mean speedup      {format_percent(data['mean_speedup_percent'])}",
        f"  speedup extremes  {format_percent(data['min_speedup_percent'])}"
        f" .. {format_percent(data['max_speedup_percent'])}",
        f"  mean code change  "
        f"{format_percent(data['mean_code_change_percent'])}",
        f"  best code change  "
        f"{format_percent(data['best_code_reduction_percent'])}",
        f"  mean compile time "
        f"{format_percent(data['mean_compile_change_percent'])}",
        f"  best compile time "
        f"{format_percent(data['best_compile_reduction_percent'])}",
    ])
    return data, rendered
