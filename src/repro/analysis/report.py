"""The ``repro analyze`` report: versioned JSON plus a human summary.

One report bundles, per program: the verifier verdict (with every
structured error), call-graph statistics at the requested precision
tiers (CHA and RTA by default; ``0cfa``/``kcfa`` add the
context-sensitive graphs), and -- unless disabled -- the dynamic
soundness check proving the static target sets contain every dispatch
edge a fixed-seed run executes.  ``lattice=True`` additionally embeds
the full precision-lattice comparison (per-site set sizes across
``CHA ⊇ RTA ⊇ 0CFA ⊇ 1CFA ⊇ 2CFA ⊇ observed``, context-rescued sites,
and per-tier precision scores against the dynamic CCT) and upgrades the
soundness section to check every tier of the chain from one replay.

Versioning follows the provenance layer's policy: the payload carries
``schema = "repro.analysis/v1"``; adding fields is backward compatible,
renaming or removing them bumps the version.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Sequence

from repro.analysis.callgraph import CHA, RTA, build_call_graph
from repro.analysis.kcfa import build_kcfa_graph
from repro.analysis.lattice import (LATTICE_KS, build_lattice_report,
                                    lattice_to_json)
from repro.analysis.dataflow import static_speculation_summary
from repro.analysis.soundness import (check_containment,
                                      check_elision_soundness,
                                      check_lattice_soundness,
                                      check_osr_soundness,
                                      observe_context_edges,
                                      observe_dispatch_edges)
from repro.analysis.verifier import verify_program
from repro.compiler.compiled_method import (GUARDED, PLAN_DOMINATED,
                                            PLAN_FULL_GUARD, PLAN_OSR_EXIT,
                                            PLAN_PREEXIST)
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.errors import ConfigError
from repro.jvm.program import Program

#: Versioned schema identifier written into every analyze report.
ANALYSIS_SCHEMA = "repro.analysis/v1"

#: Precision tiers ``repro analyze --precision`` accepts.  ``0cfa`` is
#: the context-insensitive control-flow analysis; ``kcfa`` is the
#: k-bounded call-string analysis at the report's ``k``.
ANALYZE_PRECISIONS = (CHA, RTA, "0cfa", "kcfa")

#: Default tier selection, matching the pre-lattice report shape.
DEFAULT_PRECISIONS = (CHA, RTA)

#: The deopt section's published strategy name per guard-plan kind the
#: ``planned`` strategy installs.  A dominated site was planned with its
#: guard; the compiler's dominance pass then reused another guard's.
PLAN_REPORT_NAMES = {
    PLAN_FULL_GUARD: "full-guard",
    PLAN_DOMINATED: "full-guard",
    PLAN_OSR_EXIT: "cheap-exit-osr",
    PLAN_PREEXIST: "guard-free",
}


def analyze_program(program: Program, costs: CostModel = DEFAULT_COSTS,
                    soundness: bool = True, phase: float = 0.0,
                    precisions: Sequence[str] = DEFAULT_PRECISIONS,
                    lattice: bool = False, k: int = 2,
                    speculation: bool = False,
                    deopt: bool = False) \
        -> Dict[str, object]:
    """Full analysis of one program, as a JSON-ready dict.

    The verifier always runs.  The call graphs and the soundness replay
    only run when verification passes -- building a call graph over a
    malformed program would crash on exactly the defects the verifier
    just diagnosed.

    ``precisions`` selects which call-graph summaries the report
    carries (:data:`ANALYZE_PRECISIONS`); ``kcfa`` summaries are keyed
    by their concrete depth (``"2cfa"`` for ``k=2``).  ``lattice=True``
    adds the tiered per-site comparison and widens the soundness check
    to the whole precision chain, reusing a single context-qualified
    replay for both.  ``speculation=True`` adds the speculation-risk
    section: the static dataflow summary, an elision-replay soundness
    check (speculation forced on), and the guard-cycle comparison
    against a speculation-off baseline run.  ``deopt=True`` adds the
    deoptimization-planning section: the per-method OSR-point table
    (liveness-derived live-set sizes), the OSR live-state soundness
    replay, the per-strategy site counts the planner chose, and the
    planned-vs-guard cycle delta.
    """
    verification = verify_program(program)
    payload: Dict[str, object] = {
        "program": program.name,
        "verifier": {
            "ok": verification.ok,
            "methods_checked": verification.methods_checked,
            "sites_checked": verification.sites_checked,
            "errors": [dataclasses.asdict(e) for e in verification.errors],
        },
    }
    if not verification.ok:
        return payload

    summaries: Dict[str, object] = {}
    for precision in precisions:
        if precision in (CHA, RTA):
            graph = build_call_graph(program, precision=precision,
                                     costs=costs)
            summaries[precision] = graph.summary()
        elif precision == "0cfa":
            summaries["0cfa"] = build_kcfa_graph(program, k=0,
                                                 costs=costs).summary()
        elif precision == "kcfa":
            kgraph = build_kcfa_graph(program, k=k, costs=costs)
            summaries[kgraph.precision] = kgraph.summary()
        else:
            raise ConfigError(f"unknown analysis precision {precision!r}; "
                              f"expected one of {ANALYZE_PRECISIONS}")
    payload["callgraph"] = summaries

    edges = None
    if lattice:
        # One context-qualified replay feeds the lattice report and --
        # when enabled -- every tier of the soundness chain.
        edges = observe_context_edges(program, k=max(LATTICE_KS),
                                      costs=costs, phase=phase)
        report = build_lattice_report(program, costs=costs, phase=phase,
                                      edges=edges)
        payload["lattice"] = lattice_to_json(report)

    if soundness:
        if lattice:
            chain = check_lattice_soundness(program, costs=costs,
                                            phase=phase, edges=edges)
            payload["soundness"] = {
                "ok": chain.ok,
                "violation_codes": list(chain.violation_codes()),
                "tiers": [{
                    "precision": section.precision,
                    "sites_observed": section.sites_observed,
                    "edges_observed": section.edges_observed,
                    "violations": [
                        {"code": v.code, **dataclasses.asdict(v)}
                        for v in section.violations],
                } for section in chain.sections],
            }
        else:
            cha_graph = build_call_graph(program, precision=CHA, costs=costs)
            observed = observe_dispatch_edges(program, costs=costs,
                                              phase=phase)
            report = check_containment(cha_graph, observed)
            payload["soundness"] = {
                "ok": report.ok,
                "precision": report.precision,
                "sites_observed": report.sites_observed,
                "edges_observed": report.edges_observed,
                "violations": [dataclasses.asdict(v)
                               for v in report.violations],
            }

    if speculation:
        payload["speculation"] = _speculation_section(program, costs=costs,
                                                      phase=phase)
    if deopt:
        payload["deopt"] = _deopt_section(program, costs=costs, phase=phase)
    return payload


def _speculation_section(program: Program, costs: CostModel,
                         phase: float) -> Dict[str, object]:
    """Static summary + elision replay + off-vs-on guard-cycle delta."""
    from repro.aos.runtime import AdaptiveRuntime
    from repro.policies import make_policy

    static = static_speculation_summary(program, costs=costs)
    replay = check_elision_soundness(program, costs=costs, phase=phase)
    # The baseline pays every guard the speculative run elides; same
    # fixed seed and phase, so the runs differ only in elision.
    off_costs = costs.replace(speculation_enabled=False)
    baseline = AdaptiveRuntime(
        program, make_policy("cins", costs=off_costs), off_costs,
        sample_phase=phase).run()
    saved = (baseline.guard_tests - replay.guard_tests) * costs.guard_test
    return {
        "ok": replay.ok,
        "static": static,
        "elision_replay": {
            "ok": replay.ok,
            "elided_entries": replay.elided_entries,
            "guard_tests": replay.guard_tests,
            "guard_misses": replay.guard_misses,
            "violations": [dataclasses.asdict(v)
                           for v in replay.violations],
        },
        "guard_cycles": {
            "tests_baseline": baseline.guard_tests,
            "tests_speculative": replay.guard_tests,
            "elided_entries": replay.elided_entries,
            "estimated_cycles_saved": saved,
        },
    }


def _deopt_section(program: Program, costs: CostModel,
                   phase: float) -> Dict[str, object]:
    """OSR-point table + live-state replay + planned-vs-guard delta."""
    from repro.analysis.liveness import method_liveness
    from repro.aos.runtime import AdaptiveRuntime
    from repro.policies import make_policy

    # Static per-method OSR-point table: loop-header entry points with
    # their map-in live sets, dispatched call sites with the map-out
    # live sets a cheap exit would carry.
    methods: List[Dict[str, object]] = []
    total_loops = 0
    total_exit_candidates = 0
    for method in program.methods():
        liveness = method_liveness(method)
        if not liveness.loops and not liveness.site_live:
            continue
        methods.append({
            "method": method.id,
            "entry_live": sorted(liveness.entry_live),
            "loops": [{"path": loop.path, "live": sorted(loop.live)}
                      for loop in liveness.loops],
            "site_live": {str(site): sorted(live)
                          for site, live in sorted(liveness.site_live.items())},
        })
        total_loops += len(liveness.loops)
        total_exit_candidates += len(liveness.site_live)

    replay = check_osr_soundness(program, costs=costs, phase=phase)

    # Planned-vs-guard comparison: both runs charge identical OSR map-in
    # costs (planning enabled either way), so the delta isolates the
    # strategy choice -- guard cycles saved vs deoptimization exits paid.
    def run_strategy(strategy: str):
        run_costs = costs.replace(deopt_planning_enabled=True,
                                  deopt_strategy=strategy)
        runtime = AdaptiveRuntime(program,
                                  make_policy("cins", costs=run_costs),
                                  run_costs, sample_phase=phase)
        result = runtime.run()
        strategies: Dict[str, int] = {}
        for compiled in runtime.code_cache.opt_methods():
            for node in compiled.root.walk():
                for decision in node.decisions.values():
                    if decision.kind == GUARDED:
                        name = PLAN_REPORT_NAMES[decision.plan.kind]
                        strategies[name] = strategies.get(name, 0) + 1
        return result, strategies

    planned, strategies = run_strategy("planned")
    guard, _stock = run_strategy("guard")
    saved = (guard.guard_tests - planned.guard_tests) * costs.guard_test
    return {
        "ok": replay.ok,
        "osr_points": {
            "loops": total_loops,
            "exit_candidates": total_exit_candidates,
            "methods": methods,
        },
        "soundness_replay": {
            "ok": replay.ok,
            "osr_transfers": replay.osr_transfers,
            "deopt_entries": replay.deopt_entries,
            "deopt_exits": replay.deopt_exits,
            "reads_checked": replay.reads_checked,
            "violations": [dataclasses.asdict(v)
                           for v in replay.violations],
        },
        # Installed-code site counts per chosen strategy (planned run).
        "strategies": strategies,
        "planned_vs_guard": {
            "guard_tests_guard": guard.guard_tests,
            "guard_tests_planned": planned.guard_tests,
            "deopt_entries": planned.deopt_entries,
            "deopt_exits": planned.deopt_exits,
            "guard_cycles_saved": saved,
            "app_cycles_guard": guard.app_cycles,
            "app_cycles_planned": planned.app_cycles,
            "app_cycle_delta": guard.app_cycles - planned.app_cycles,
        },
    }


def analyze_benchmark(name: str, scale: float = 1.0,
                      costs: CostModel = DEFAULT_COSTS,
                      soundness: bool = True,
                      phase: float = 0.0,
                      precisions: Sequence[str] = DEFAULT_PRECISIONS,
                      lattice: bool = False,
                      k: int = 2,
                      speculation: bool = False,
                      deopt: bool = False) -> Dict[str, object]:
    """Build one Table-1 benchmark (seed-deterministic) and analyze it."""
    from repro.workloads.spec import build_benchmark

    generated = build_benchmark(name, scale=scale)
    return analyze_program(generated.program, costs=costs,
                           soundness=soundness, phase=phase,
                           precisions=precisions, lattice=lattice, k=k,
                           speculation=speculation, deopt=deopt)


def report_ok(payload: Dict[str, object]) -> bool:
    """True when one program's payload is verifier-clean and sound."""
    verifier = payload.get("verifier", {})
    if not verifier.get("ok", False):
        return False
    soundness = payload.get("soundness")
    if soundness is not None and not soundness.get("ok", False):
        return False
    lattice = payload.get("lattice")
    if lattice is not None and not lattice.get("ok", False):
        return False
    speculation = payload.get("speculation")
    if speculation is not None and not speculation.get("ok", False):
        return False
    deopt = payload.get("deopt")
    if deopt is not None and not deopt.get("ok", False):
        return False
    return True


def bundle_reports(reports: Sequence[Dict[str, object]],
                   scale: float = 1.0) -> Dict[str, object]:
    """Wrap per-program payloads in the versioned top-level envelope."""
    return {
        "schema": ANALYSIS_SCHEMA,
        "scale": scale,
        "ok": all(report_ok(r) for r in reports),
        "reports": list(reports),
    }


def write_report(path: str, bundle: Dict[str, object]) -> None:
    """Atomically write a report bundle as JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(bundle, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def render_analysis(payload: Dict[str, object]) -> str:
    """Human-readable summary of one program's analyze payload."""
    lines: List[str] = [str(payload["program"])]
    verifier = payload["verifier"]
    if verifier["ok"]:
        lines.append(f"  verifier : OK ({verifier['methods_checked']} "
                     f"methods, {verifier['sites_checked']} call sites)")
    else:
        lines.append(f"  verifier : {len(verifier['errors'])} error(s)")
        for error in verifier["errors"]:
            where = error["method"] or "<program>"
            if error["path"]:
                where = f"{where}.{error['path']}"
            lines.append(f"    {error['code']} @ {where}: "
                         f"{error['message']}")
        return "\n".join(lines)

    for precision, stats in payload["callgraph"].items():
        if "monomorphism_histogram" in stats:
            histogram = ", ".join(
                f"{k}->{v}"
                for k, v in stats["monomorphism_histogram"].items())
            lines.append(
                f"  {precision:<9}: {stats['methods_reachable']} reachable "
                f"/ {stats['methods_dead']} dead methods, "
                f"{stats['dispatched_sites']} dispatched sites "
                f"({stats['monomorphic_sites']} mono / "
                f"{stats['polymorphic_sites']} poly; targets {histogram})")
        else:
            lines.append(
                f"  {precision:<9}: {stats['methods_reachable']} reachable "
                f"methods over {stats['method_contexts']} contexts "
                f"(max {stats['max_contexts_per_method']}/method), "
                f"{stats['dispatched_sites']} dispatched sites "
                f"({stats['monomorphic_sites']} mono / "
                f"{stats['polymorphic_sites']} poly; "
                f"{stats['context_monomorphic_sites']} ctx-mono, "
                f"{stats['context_rescued_sites']} rescued)")

    lattice = payload.get("lattice")
    if lattice is not None:
        lines.extend(_render_lattice_section(lattice))

    soundness = payload.get("soundness")
    if soundness is not None:
        lines.extend(_render_soundness_section(soundness))

    speculation = payload.get("speculation")
    if speculation is not None:
        lines.extend(_render_speculation_section(speculation))

    deopt = payload.get("deopt")
    if deopt is not None:
        lines.extend(_render_deopt_section(deopt))
    return "\n".join(lines)


def _render_deopt_section(deopt: Dict[str, object]) -> List[str]:
    """Summary lines for the deoptimization-planning payload."""
    points = deopt["osr_points"]
    replay = deopt["soundness_replay"]
    delta = deopt["planned_vs_guard"]
    strategies = deopt["strategies"]
    chosen = ", ".join(f"{name} x{count}"
                       for name, count in sorted(strategies.items())) \
        or "none"
    status = ("replay clean" if deopt["ok"] else
              f"{len(replay['violations'])} VIOLATION(S)")
    lines = [
        f"  deopt    : {points['loops']} loop OSR point(s), "
        f"{points['exit_candidates']} exit candidate(s); "
        f"strategies [{chosen}]; guard tests "
        f"{delta['guard_tests_guard']} -> {delta['guard_tests_planned']} "
        f"({delta['deopt_exits']} exit(s) taken, app cycle delta "
        f"{delta['app_cycle_delta']:+.0f}); {status}"]
    for violation in replay["violations"]:
        lines.append(f"    [{violation['kind']}] {violation['method']} "
                     f"{violation['where']}: read local "
                     f"{violation['index']} outside live set "
                     f"({violation['count']}x)")
    return lines


def _render_speculation_section(spec: Dict[str, object]) -> List[str]:
    """Summary lines for the speculation-risk payload."""
    static = spec["static"]
    cycles = spec["guard_cycles"]
    replay = spec["elision_replay"]
    status = ("replay clean" if spec["ok"] else
              f"{len(replay['violations'])} VIOLATION(S)")
    lines = [
        f"  speculation: {static['preexistent_receiver_sites']}"
        f"/{static['virtual_sites']} preexistent-receiver sites, "
        f"{static['dominator_available_sites']} dominator-available, "
        f"max risk {static['max_risk']:.3f}; guard tests "
        f"{cycles['tests_baseline']} -> {cycles['tests_speculative']} "
        f"({cycles['elided_entries']} elided entries, "
        f"~{cycles['estimated_cycles_saved']:.0f} cycles saved); {status}"]
    for violation in replay["violations"]:
        lines.append(f"    site {violation['site']} "
                     f"[{violation['elision_kind']}]: entered "
                     f"{violation['entered']}, dispatch resolves "
                     f"{violation['resolved']} ({violation['count']}x)")
    return lines


def _render_lattice_section(lattice: Dict[str, object]) -> List[str]:
    """Summary lines for the embedded precision-lattice payload."""
    tiers = lattice["tiers"]
    status = "ok" if lattice["ok"] else (
        f"{len(lattice['containment_violations'])} VIOLATION(S)")
    lines = [f"  lattice  : {' ⊇ '.join(tiers)} ⊇ observed over "
             f"{len(lattice['sites'])} site(s); containment {status}"]
    for violation in lattice["containment_violations"]:
        lines.append(f"    site {violation['site']}: {violation['fine']} "
                     f"⊄ {violation['coarse']} "
                     f"(extra: {', '.join(violation['extra'])})")
    for tier, rescued in lattice["rescued_sites"].items():
        lines.append(f"    rta-poly->{tier}-ctx-mono: {len(rescued)} site(s)"
                     + (f" {rescued}" if rescued else ""))
    scores = ", ".join(f"{tier} {entry['score']:.3f}"
                       for tier, entry in lattice["precision_scores"].items())
    lines.append(f"    precision scores vs dynamic CCT: {scores}")
    return lines


def _render_soundness_section(soundness: Dict[str, object]) -> List[str]:
    """Summary lines for a flat or whole-chain soundness payload."""
    tiers = soundness.get("tiers")
    if tiers is None:
        if soundness["ok"]:
            return [f"  soundness: CHA contains all "
                    f"{soundness['edges_observed']} dynamic edges "
                    f"over {soundness['sites_observed']} sites"]
        lines = [f"  soundness: {len(soundness['violations'])} "
                 f"VIOLATION(S)"]
        for violation in soundness["violations"]:
            lines.append(f"    site {violation['site']} in "
                         f"{violation['caller']}: executed "
                         f"{violation['observed']} outside "
                         f"{violation['allowed']}")
        return lines
    if soundness["ok"]:
        chain = " ⊆ ".join(section["precision"] for section in
                           reversed(tiers))
        edges = max((section["edges_observed"] for section in tiers),
                    default=0)
        return [f"  soundness: observed ⊆ {chain} holds for all "
                f"{edges} dynamic edges"]
    lines = [f"  soundness: BROKEN tiers "
             f"{', '.join(soundness['violation_codes'])}"]
    for section in tiers:
        for violation in section["violations"]:
            where = (f"site {violation['site']} in {violation['caller']}")
            if violation.get("context") is not None:
                where += f" ctx={list(violation['context'])}"
            lines.append(f"    [{violation['code']}] {where}: executed "
                         f"{violation['observed']} outside "
                         f"{violation['allowed']}")
    return lines


def render_bundle(bundle: Dict[str, object]) -> str:
    """Human-readable summary of a full analyze bundle."""
    lines = [render_analysis(payload) for payload in bundle["reports"]]
    verdict = "OK" if bundle["ok"] else "FAILED"
    lines.append(f"analysis: {len(bundle['reports'])} program(s), "
                 f"schema {bundle['schema']}: {verdict}")
    return "\n".join(lines)


__all__ = [
    "ANALYSIS_SCHEMA", "ANALYZE_PRECISIONS", "DEFAULT_PRECISIONS",
    "analyze_benchmark", "analyze_program", "bundle_reports",
    "render_analysis", "render_bundle", "report_ok", "write_report",
]
