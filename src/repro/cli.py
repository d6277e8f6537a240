"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Execute one benchmark under one policy and print the run summary.
``table1``
    Regenerate the paper's Table 1.
``sweep``
    Run the (benchmark x policy x depth) sweep and cache it as JSON.
``figures``
    Render Figures 4/5/6 (plus compile time and the headline numbers)
    from a cached sweep.
``ablations``
    Run the threshold / decay ablations (E8/E9).
``termination``
    The Section 4 early-termination statistics (E6).
``inspect``
    Run one benchmark and dump inline trees plus the AOS event log.
``trace``
    Run one benchmark with telemetry enabled, export a Chrome trace-event
    JSON (open at https://ui.perfetto.dev), and print the per-component
    overhead summary reconciled against the run's cost accounting.
``explain``
    Run one benchmark with decision provenance and print the per-site
    decision tree (verdicts, reason codes, profile evidence) for one
    compiled method.
``decisions``
    ``record`` a run's decision-provenance log as versioned JSONL, or
    ``diff`` two logs: align final decisions by (site, context), report
    flipped verdicts with their reason codes, and attribute run-level
    cycle/code-space deltas to the flips.  ``diff --attribute-static``
    additionally classifies each flip by what the static call graph
    knows of its site (static-vs-profile disagreement vs budget effects).
``causal``
    Coz-style causal profiling: re-run fixed-seed benchmarks with one
    AOS component virtually sped up at a time (guard, dispatch,
    compile, organizer, listener, invalidation) across a factor grid,
    measure the change in progress-point throughput against same-seed
    baselines, and print the component x factor "what's worth
    optimizing" ranking with multi-seed confidence intervals and
    noise flags; ``-o`` writes the versioned ``repro.causal/v1`` JSON
    bundle, ``--trace-out`` exports an annotated Chrome trace of the
    top-ranked experiment.
``analyze``
    Static analysis over benchmarks: run the program verifier, build
    call graphs at the requested precision tiers (``--precision cha rta
    0cfa kcfa``), check dynamic soundness (every executed dispatch edge
    must lie in the static target sets), and emit a versioned JSON
    report (``repro.analysis/v1``).  ``--lattice`` adds the full
    precision-lattice comparison -- per-site target-set sizes across
    ``CHA ⊇ RTA ⊇ 0CFA ⊇ 1CFA ⊇ 2CFA ⊇ observed``, the sites static
    context rescues from RTA polymorphism, and per-tier prediction
    scores against a fixed-seed replay's per-context dispatch counts --
    and widens the soundness check to every tier of the chain.
    ``--speculation`` adds the speculation-risk section: the static
    dataflow summary (receiver preexistence, dominator availability,
    invalidation-cone risk), an elision-replay run asserting no elided
    guard would ever have failed, and the guard-cycle delta against a
    speculation-off baseline.  ``--deopt`` adds the
    deoptimization-planning section: the per-method OSR-point table
    with liveness-derived live-set sizes, the OSR live-state soundness
    replay (every post-transfer read must be covered by the mapped live
    set), the planner's chosen per-site strategies, and the
    planned-vs-guard cycle delta.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis.kcfa import MAX_K
from repro.analysis.report import ANALYZE_PRECISIONS, DEFAULT_PRECISIONS
from repro.aos.cost_accounting import APP
from repro.aos.runtime import AdaptiveRuntime, is_sample_phase
from repro.atomic_file import check_writable
from repro.experiments.config import (DEFAULT_PHASES, DEPTHS,
                                      POLICY_FAMILIES, SWEEPABLE_FAMILIES,
                                      SweepConfig)
from repro.experiments.runner import (SweepResults, is_finite_positive,
                                      load_or_run_sweep, run_single)
from repro.policies import POLICY_LABELS, make_policy
from repro.workloads.spec import BENCHMARK_ORDER


def _ranged(convert, valid, expected: str):
    """An argparse type: ``convert`` the text, then require ``valid``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(
                f"must be {expected}, got {text}")
        return value
    return parse


_timeout_seconds = _ranged(float, is_finite_positive,
                           "a finite number of seconds above 0")
_scale = _ranged(float, is_finite_positive, "a finite number above 0")
_phase = _ranged(float, is_sample_phase, "in [0, 1)")
_depth = _ranged(int, lambda depth: depth >= 1, "at least 1")
_k = _ranged(int, lambda k: 0 <= k <= MAX_K, f"in [0, {MAX_K}]")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive online context-sensitive inlining "
                    "(CGO 2003) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark under one policy")
    run.add_argument("benchmark", choices=BENCHMARK_ORDER)
    run.add_argument("--policy", default="cins", choices=POLICY_LABELS)
    run.add_argument("--depth", type=_depth, default=1,
                     help="maximum context-sensitivity depth")
    run.add_argument("--scale", type=_scale, default=1.0,
                     help="run-length scale factor")
    run.add_argument("--phase", type=_phase, default=0.0,
                     help="sampling phase in [0, 1)")

    table = sub.add_parser("table1", help="regenerate Table 1")
    table.add_argument("--scale", type=_scale, default=1.0)

    sweep = sub.add_parser("sweep", help="run the full sweep and cache it")
    sweep.add_argument("--out", default="sweep.json")
    sweep.add_argument("--scale", type=_scale, default=1.0)
    sweep.add_argument("--benchmarks", nargs="*", default=None,
                       choices=BENCHMARK_ORDER)
    sweep.add_argument("--families", nargs="*", default=None,
                       choices=SWEEPABLE_FAMILIES,
                       help="context-sensitive policy families to sweep "
                            "(the cins baseline always runs; 'static' is "
                            "the no-profile static-oracle baseline)")
    sweep.add_argument("--depths", type=_depth, nargs="*", default=None)
    sweep.add_argument("--phases", type=_phase, nargs="*", default=None)
    sweep.add_argument("--jobs", type=int, default=0,
                       help="cells run at once, each in its own process "
                            "(0 = all cores, 1 = in-process)")
    sweep.add_argument("--timeout", type=_timeout_seconds, default=None,
                       help="per-cell timeout in seconds when cells run "
                            "in processes of their own (--jobs 1 runs "
                            "cells in-process, with no timeout)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore the per-cell cache and rerun the full "
                            "sweep")
    sweep.add_argument("--decision-logs", action="store_true",
                       help="persist each cell's best-run decision-"
                            "provenance log next to its cached result "
                            "(<fingerprint>.decisions.jsonl)")

    figures = sub.add_parser("figures",
                             help="render figures from a cached sweep")
    figures.add_argument("--cache", default="sweep.json")
    figures.add_argument("--which", nargs="*",
                         default=["fig4", "fig5", "fig6", "compile",
                                  "headline"],
                         choices=["fig4", "fig5", "fig6", "compile",
                                  "headline"])
    figures.add_argument("--bars", action="store_true",
                         help="also draw harMean ASCII bar charts")

    ablations = sub.add_parser("ablations", help="run E8/E9 ablations")
    ablations.add_argument("which", choices=["threshold", "decay"])
    ablations.add_argument("--scale", type=_scale, default=1.0)

    term = sub.add_parser("termination",
                          help="Section 4 early-termination statistics")
    term.add_argument("--scale", type=_scale, default=1.0)

    inspect_cmd = sub.add_parser(
        "inspect",
        help="run one benchmark and dump inline trees + the AOS event log")
    inspect_cmd.add_argument("benchmark", choices=BENCHMARK_ORDER)
    inspect_cmd.add_argument("--policy", default="cins",
                             choices=POLICY_LABELS)
    inspect_cmd.add_argument("--depth", type=_depth, default=1)
    inspect_cmd.add_argument("--scale", type=_scale, default=0.5)
    inspect_cmd.add_argument("--top", type=int, default=5,
                             help="how many inline trees to print")
    inspect_cmd.add_argument("--events", type=int, default=40,
                             help="how many timeline events to print")

    trace = sub.add_parser(
        "trace",
        help="run one benchmark with telemetry and export a Chrome trace")
    trace.add_argument("benchmark", choices=BENCHMARK_ORDER)
    trace.add_argument("--policy", default="cins", choices=POLICY_LABELS)
    trace.add_argument("--depth", type=_depth, default=1,
                       help="maximum context-sensitivity depth")
    trace.add_argument("--scale", type=_scale, default=1.0,
                       help="run-length scale factor")
    trace.add_argument("--phase", type=_phase, default=0.0,
                       help="sampling phase in [0, 1)")
    trace.add_argument("-o", "--out", default="trace.json",
                       help="output path for the Chrome trace-event JSON "
                            "(open at https://ui.perfetto.dev)")

    explain = sub.add_parser(
        "explain",
        help="run one benchmark and print a method's inlining decision "
             "tree with reason codes and profile evidence")
    explain.add_argument("benchmark", choices=BENCHMARK_ORDER)
    explain.add_argument("method",
                         help="compiled method id, e.g. Drv.t0 "
                              "(pass a wrong one to see what's available)")
    explain.add_argument("--policy", default="cins", choices=POLICY_LABELS)
    explain.add_argument("--depth", type=_depth, default=1)
    explain.add_argument("--scale", type=_scale, default=1.0)
    explain.add_argument("--phase", type=_phase, default=0.0)

    decisions = sub.add_parser(
        "decisions",
        help="record or diff decision-provenance logs")
    decisions_sub = decisions.add_subparsers(dest="decisions_command",
                                             required=True)
    record = decisions_sub.add_parser(
        "record", help="run one benchmark and write its decision log")
    record.add_argument("benchmark", choices=BENCHMARK_ORDER)
    record.add_argument("--policy", default="cins", choices=POLICY_LABELS)
    record.add_argument("--depth", type=_depth, default=1)
    record.add_argument("--scale", type=_scale, default=1.0)
    record.add_argument("--phase", type=_phase, default=0.0)
    record.add_argument("-o", "--out", default="decisions.jsonl",
                        help="output path for the versioned JSONL log")
    diff = decisions_sub.add_parser(
        "diff", help="align two decision logs and report flipped verdicts")
    diff.add_argument("log_a", help="first *.decisions.jsonl log")
    diff.add_argument("log_b", help="second *.decisions.jsonl log")
    diff.add_argument("--limit", type=int, default=None,
                      help="show at most this many flips per section")
    diff.add_argument("--attribute-static", action="store_true",
                      help="classify each flip by the static call graph: "
                           "static-vs-profile disagreement (polymorphic "
                           "sites) vs budget/ordering effects (monomorphic "
                           "sites); needs both logs from the same benchmark")

    causal = sub.add_parser(
        "causal",
        help="causal profiling: virtually speed up one AOS component at "
             "a time and rank components by the progress-rate speedup "
             "their speedup would buy")
    causal.add_argument("--benchmarks", nargs="*", default=None,
                        choices=BENCHMARK_ORDER,
                        help="benchmarks to profile (default: jess db "
                             "javac)")
    causal.add_argument("--families", nargs="*", default=None,
                        choices=POLICY_LABELS,
                        help="policy families to profile under "
                             "(default: cins)")
    causal.add_argument("--depth", type=_depth, default=2,
                        help="maximum context-sensitivity depth")
    causal.add_argument("--components", nargs="*", default=None,
                        help="causal components to speed up (default: "
                             "all six; see repro.causal.components)")
    causal.add_argument("--factors", type=float, nargs="*", default=None,
                        help="virtual-speedup factors in (0, 1] "
                             "(default: 0.1 0.25 0.5 0.75 1.0)")
    causal.add_argument("--seeds", type=int, default=3,
                        help="independent workload-seed replicates per "
                             "cell")
    causal.add_argument("--phase", type=_phase, default=0.0,
                        help="sampling phase in [0, 1)")
    causal.add_argument("--scale", type=_scale, default=1.0,
                        help="run-length scale factor")
    causal.add_argument("--jobs", type=int, default=0,
                        help="cells run at once, each in its own process "
                             "(0 = all cores, 1 = in-process)")
    causal.add_argument("--timeout", type=_timeout_seconds, default=None,
                        help="per-cell timeout in seconds when cells run "
                             "in processes of their own (--jobs 1 runs "
                             "cells in-process, with no timeout)")
    causal.add_argument("--cache", default=None,
                        help="per-cell cache directory; interrupted "
                             "grids resume from it")
    causal.add_argument("-o", "--out", default=None,
                        help="also write the repro.causal/v1 JSON bundle "
                             "here")
    causal.add_argument("--trace-out", default=None,
                        help="re-run the top-ranked experiment with "
                             "telemetry and write an annotated Chrome "
                             "trace here")

    analyze = sub.add_parser(
        "analyze",
        help="verify benchmarks, build call graphs (CHA/RTA/k-CFA), and "
             "check dynamic soundness against the static target sets")
    analyze.add_argument("--benchmarks", nargs="*", default=None,
                         choices=BENCHMARK_ORDER,
                         help="benchmarks to analyze (default: all eight)")
    analyze.add_argument("--scale", type=_scale, default=1.0,
                         help="run-length scale factor")
    analyze.add_argument("--phase", type=_phase, default=0.0,
                         help="sampling phase for the soundness run")
    analyze.add_argument("--soundness",
                         action=argparse.BooleanOptionalAction, default=True,
                         help="replay each benchmark and check that CHA "
                              "contains every executed dispatch edge "
                              "(--no-soundness skips the runs; with "
                              "--lattice the whole chain observed ⊆ kCFA "
                              "⊆ 0CFA ⊆ RTA ⊆ CHA is checked)")
    analyze.add_argument("--precision", nargs="*", default=None,
                         choices=list(ANALYZE_PRECISIONS),
                         help="call-graph tiers to summarize "
                              "(default: cha rta)")
    analyze.add_argument("--k", type=_k, default=2,
                         help="call-string depth for the kcfa tier")
    analyze.add_argument("--lattice", action="store_true",
                         help="embed the precision-lattice comparison "
                              "(per-site sizes CHA ⊇ RTA ⊇ 0CFA ⊇ kCFA ⊇ "
                              "observed, context-rescued sites, per-tier "
                              "precision scores vs a replay's "
                              "per-context dispatch counts)")
    analyze.add_argument("--speculation", action="store_true",
                         help="embed the speculation-risk section: static "
                              "dataflow summary (preexistence, dominator "
                              "availability, invalidation-cone risk), the "
                              "elision-replay soundness check, and guard "
                              "cycles vs a speculation-off baseline")
    analyze.add_argument("--deopt", action="store_true",
                         help="embed the deoptimization-planning section: "
                              "per-method OSR-point table (liveness-derived "
                              "live sets), the OSR live-state soundness "
                              "replay, chosen per-site strategies, and the "
                              "planned-vs-guard cycle delta")
    analyze.add_argument("-o", "--out", default=None,
                         help="also write the versioned JSON report here")
    return parser


def _cmd_run(args) -> int:
    result = run_single(args.benchmark, args.policy, args.depth,
                        phase=args.phase, scale=args.scale)
    print(f"benchmark      : {result.program_name}")
    print(f"policy         : {result.policy_name}")
    print(f"total cycles   : {result.total_cycles:,.0f}")
    print(f"app cycles     : {result.component_cycles[APP]:,.0f} "
          f"({100 * (1 - result.aos_fraction()):.2f}%)")
    print(f"opt compiles   : {result.opt_compilations} "
          f"({result.opt_compile_cycles:,.0f} cycles)")
    print(f"opt code bytes : {result.live_opt_code_bytes:,} live / "
          f"{result.opt_code_bytes:,} cumulative")
    print(f"inline rules   : {result.rule_count} "
          f"(refusals recorded: {result.refusals})")
    print(f"guard tests    : {result.guard_tests:,} "
          f"(misses: {result.guard_misses:,})")
    print(f"trace samples  : {result.traces_recorded:,} "
          f"(mean depth {result.mean_trace_depth:.2f})")
    print(f"OSR transfers  : {result.osr_transfers}, "
          f"invalidations: {result.invalidations}")
    print(f"classes loaded : {result.classes_loaded}, methods compiled: "
          f"{result.methods_compiled}, bytecodes: "
          f"{result.bytecodes_compiled:,}")
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments.figures import table1
    _rows, rendered = table1(scale=args.scale)
    print(rendered)
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        benchmarks=tuple(args.benchmarks) if args.benchmarks
        else BENCHMARK_ORDER,
        families=tuple(args.families) if args.families
        else POLICY_FAMILIES,
        depths=tuple(args.depths) if args.depths else DEPTHS,
        phases=tuple(args.phases) if args.phases else DEFAULT_PHASES,
        scale=args.scale, jobs=args.jobs, cell_timeout=args.timeout,
        decision_logs=args.decision_logs)
    results = load_or_run_sweep(args.out, config, verbose=True,
                                use_cache=not args.no_cache)
    print(f"sweep cached at {args.out} ({len(results.cells)} cells, "
          f"{len(results.failures)} failed)")
    for key in sorted(results.failures):
        failure = results.failures[key]
        print(f"  FAILED {key}: {failure.error_type}: {failure.message} "
              f"(attempts: {failure.attempts})", file=sys.stderr)
    return 1 if results.failures else 0


def _cmd_figures(args) -> int:
    from repro.experiments import figures as fig
    try:
        with open(args.cache) as handle:
            results = SweepResults.from_json(handle.read())
    except FileNotFoundError:
        print(f"no sweep cache at {args.cache!r}; run "
              f"`python -m repro sweep --out {args.cache}` first",
              file=sys.stderr)
        return 1
    renderers = {"fig4": fig.figure4, "fig5": fig.figure5,
                 "fig6": fig.figure6, "compile": fig.compile_time,
                 "headline": fig.headline}
    for which in args.which:
        data, rendered = renderers[which](results)
        print(rendered)
        print()
        if args.bars and which in ("fig4", "fig5", "compile"):
            from repro.experiments.figures import HARMEAN
            from repro.metrics.report import format_bar_chart
            depth = results.config.depths[-1]
            values = {family: data[family][HARMEAN][depth]
                      for family in results.config.families}
            print(format_bar_chart(
                f"harMean at max={depth} ({which})", values))
            print()
    return 0


def _cmd_ablations(args) -> int:
    from repro.experiments.ablations import decay_ablation, threshold_sweep
    if args.which == "threshold":
        _points, rendered = threshold_sweep(scale=args.scale)
    else:
        _outcomes, rendered = decay_ablation()
    print(rendered)
    return 0


def _cmd_termination(args) -> int:
    from repro.experiments.figures import termination_stats
    _stats, rendered = termination_stats(scale=args.scale)
    print(rendered)
    return 0


def _cmd_inspect(args) -> int:
    from repro.aos.event_log import EventLog
    from repro.compiler.tree_printer import render_code_cache
    from repro.workloads.spec import build_benchmark

    generated = build_benchmark(args.benchmark, scale=args.scale)
    log = EventLog()
    runtime = AdaptiveRuntime(generated.program,
                              make_policy(args.policy, args.depth),
                              sinks=[log])
    runtime.run()

    print(render_code_cache(runtime.code_cache, top=args.top))
    print()
    print(log.render_summary())
    print()
    print(log.render_timeline(limit=args.events))
    return 0


def _cmd_trace(args) -> int:
    from repro.telemetry import (TelemetryRecorder, reconcile, summarize,
                                 write_chrome_trace)

    recorder = TelemetryRecorder(
        label=f"{args.benchmark}/{args.policy}/max{args.depth}")
    result = run_single(args.benchmark, args.policy, args.depth,
                        phase=args.phase, scale=args.scale,
                        sinks=[recorder])
    snapshot = recorder.snapshot()
    events = write_chrome_trace(args.out, snapshot)

    _rows, rendered = summarize(snapshot)
    print(rendered)
    print()
    ok, _check_rows, rendered_check = reconcile(snapshot,
                                                result.component_cycles)
    print(rendered_check)
    print()
    print(f"{events} trace events -> {args.out} "
          f"(load in https://ui.perfetto.dev or chrome://tracing)")
    if not ok:
        print("telemetry does NOT reconcile with cost accounting",
              file=sys.stderr)
        return 1
    return 0


def _record_run(args):
    """Run one benchmark with provenance; return (result, recorder)."""
    from repro.provenance import ProvenanceRecorder

    recorder = ProvenanceRecorder(
        label=f"{args.benchmark}/{args.policy}/max{args.depth}"
              f"@{args.phase:g}")
    result = run_single(args.benchmark, args.policy, args.depth,
                        phase=args.phase, scale=args.scale,
                        sinks=[recorder])
    return result, recorder


def _cmd_explain(args) -> int:
    from repro.provenance import explain_method

    _result, recorder = _record_run(args)
    try:
        rendered = explain_method(recorder.records, args.method)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(rendered)
    return 0


def _cmd_decisions(args) -> int:
    if args.decisions_command == "record":
        from repro.experiments.runner import decision_log_meta

        result, recorder = _record_run(args)
        count = recorder.write_jsonl(
            args.out, decision_log_meta(args.benchmark, args.policy,
                                        args.depth, args.phase, args.scale,
                                        result))
        print(f"{count} provenance records -> {args.out}")
        return 0

    from repro.provenance import diff_logs, render_diff
    try:
        diff = diff_logs(args.log_a, args.log_b)
    except (OSError, ValueError) as exc:
        print(f"cannot diff: {exc}", file=sys.stderr)
        return 1
    print(render_diff(diff, limit=args.limit))
    if args.attribute_static:
        from repro.analysis import (attribute_flips, build_call_graph,
                                    render_attribution)
        from repro.workloads.spec import build_benchmark

        benchmark = diff.meta_a.get("benchmark")
        if benchmark is None or benchmark != diff.meta_b.get("benchmark"):
            print("cannot attribute: the two logs' headers do not name "
                  "the same benchmark", file=sys.stderr)
            return 1
        scale = float(diff.meta_a.get("scale", 1.0))
        generated = build_benchmark(benchmark, scale=scale)
        graph = build_call_graph(generated.program)
        print()
        print(render_attribution(attribute_flips(diff, graph), graph,
                                 limit=args.limit))
    return 0


def _cmd_causal(args) -> int:
    from repro.causal import (CausalConfig, apply_virtual_speedup,
                              build_causal_bundle, render_causal_bundle,
                              run_causal, write_causal_bundle)
    from repro.experiments.cell_cache import CellCache
    from repro.jvm.errors import ConfigError

    kwargs = {}
    if args.benchmarks:
        kwargs["benchmarks"] = tuple(args.benchmarks)
    if args.families:
        kwargs["families"] = tuple(args.families)
    if args.components:
        kwargs["components"] = tuple(args.components)
    if args.factors:
        kwargs["factors"] = tuple(args.factors)
    config = CausalConfig(depth=args.depth, seeds=args.seeds,
                          phase=args.phase, scale=args.scale,
                          jobs=args.jobs, cell_timeout=args.timeout,
                          **kwargs)
    try:
        config.validate()
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1

    cache = CellCache(args.cache) if args.cache else None
    results = run_causal(config, cache=cache, verbose=True)
    bundle = build_causal_bundle(results)
    print(render_causal_bundle(bundle))
    if args.out:
        write_causal_bundle(args.out, bundle)
        print(f"bundle -> {args.out}")

    if args.trace_out and bundle["ranking"]:
        from repro.jvm.costs import DEFAULT_COSTS
        from repro.telemetry import TelemetryRecorder, write_chrome_trace
        from repro.telemetry.progress import ProgressTracker, main_loop_points
        from repro.workloads.spec import build_benchmark

        top = bundle["ranking"][0]["component"]
        factor = max(config.factors)
        benchmark = config.benchmarks[0]
        family = config.families[0]
        generated = build_benchmark(benchmark, scale=config.scale)
        recorder = TelemetryRecorder(
            label=f"{benchmark}/{family}+{top}@{factor:g}")
        # The tracker names the progress points; telemetry counts their
        # marks as the trace's ``progress/<name>`` tracks.
        tracker = ProgressTracker(main_loop_points(generated.program))
        run_single(benchmark, family, config.depth, phase=config.phase,
                   costs=apply_virtual_speedup(DEFAULT_COSTS, top, factor),
                   sinks=[tracker, recorder], generated=generated)
        events = write_chrome_trace(
            args.trace_out, recorder.snapshot(),
            annotations={"causal_experiment": {
                "benchmark": benchmark, "family": family,
                "component": top, "factor": factor,
                "schema": bundle["schema"],
            }})
        print(f"{events} trace events -> {args.trace_out} "
              f"(top experiment, annotated)")
    return 0 if bundle["ok"] else 1


def _cmd_analyze(args) -> int:
    from repro.analysis import (analyze_program, bundle_reports,
                                render_bundle, write_report)
    from repro.workloads.spec import build_benchmark

    benchmarks = tuple(args.benchmarks) if args.benchmarks else BENCHMARK_ORDER
    reports = [analyze_program(
        build_benchmark(name, scale=args.scale).program,
        soundness=args.soundness, phase=args.phase,
        precisions=args.precision or DEFAULT_PRECISIONS, lattice=args.lattice,
        k=args.k, speculation=args.speculation, deopt=args.deopt)
        for name in benchmarks]
    bundle = bundle_reports(reports, scale=args.scale)
    print(render_bundle(bundle))
    if args.out:
        write_report(args.out, bundle)
        print(f"report -> {args.out}")
    return 0 if bundle["ok"] else 1


_COMMANDS = {
    "run": _cmd_run,
    "table1": _cmd_table1,
    "sweep": _cmd_sweep,
    "figures": _cmd_figures,
    "ablations": _cmd_ablations,
    "termination": _cmd_termination,
    "inspect": _cmd_inspect,
    "trace": _cmd_trace,
    "explain": _cmd_explain,
    "decisions": _cmd_decisions,
    "causal": _cmd_causal,
    "analyze": _cmd_analyze,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    # A command writes its output files only after its run; find an
    # unwritable one before the run is spent.
    for path in (getattr(args, "out", None), getattr(args, "trace_out", None)):
        if path is None:
            continue
        try:
            check_writable(path)
        except OSError as exc:
            print(f"cannot write {path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro ... | head``).  Point stdout
        # at the null device so the interpreter's final flush of what is
        # still buffered does not fail again on the way out.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
