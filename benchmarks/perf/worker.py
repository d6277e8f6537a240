"""One pass of one workload, run in a fresh single-threaded process.

``run.py`` starts ``python worker.py '<job json>'`` once per pass and
reads the JSON object this prints as its last line.  A pass sets up and
runs every unit of the workload (one adaptive run per program and
config, or one static analysis per program and round), timing set-up
and execution separately from outside the program's public API.  A
burst of machine-speed probes (``probe.py``) runs between units; each
unit carries the speed factor that converts its times to reference
seconds.

With ``"mode": "trace"`` the pass also runs every unit with each
layer's public entry points patched (see :data:`LAYER_PATCHES`) and
reports that run's per-layer self time; with ``"mode": "profile"`` it
runs its units under cProfile and reports self time per module instead.
Untraced runs never see a patch.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()

import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import repro.analysis.callgraph as callgraph_mod  # noqa: E402
import repro.analysis.dataflow as dataflow_mod  # noqa: E402
import repro.analysis.kcfa as kcfa_mod  # noqa: E402
import repro.analysis.liveness as liveness_mod  # noqa: E402
import repro.analysis.verifier as verifier_mod  # noqa: E402
import repro.workloads.spec as spec_mod  # noqa: E402
from repro.analysis.deopt import DeoptPlanner  # noqa: E402
from repro.analysis.report import (ANALYZE_PRECISIONS,  # noqa: E402
                                   analyze_program)
from repro.analysis.static_oracle import StaticContextOracle  # noqa: E402
from repro.aos.controller import Controller  # noqa: E402
from repro.aos.listeners import MethodListener, TraceListener  # noqa: E402
from repro.aos.organizers import (AIOrganizer, DCGOrganizer,  # noqa: E402
                                  DecayOrganizer, HotMethodsOrganizer,
                                  MissingEdgeOrganizer)
from repro.aos.runtime import AdaptiveRuntime  # noqa: E402
from repro.compiler.code_cache import CodeCache  # noqa: E402
from repro.compiler.opt_compiler import OptCompiler  # noqa: E402
from repro.compiler.oracle import InlineOracle  # noqa: E402
from repro.jvm.costs import DEFAULT_COSTS  # noqa: E402
from repro.jvm.interpreter import Machine  # noqa: E402
from repro.policies import make_policy  # noqa: E402

import probe  # noqa: E402
from spans import SpanRecorder, chrome_trace, self_times  # noqa: E402
from workloads import (PROGRAMS, SMOKE_PROGRAMS, SMOKE_SCALE,  # noqa: E402
                       WORKLOADS, seed_offset)

IMPORT_S = time.perf_counter() - _IMPORT_START
clock = time.perf_counter

SpeculationAnalysis = dataflow_mod.SpeculationAnalysis

#: The traced layer boundaries: (owner, attribute, span name, counter).
#: The span name is the per-layer metric's stem; a counter maps each
#: call's result to a number summed per span name.
LAYER_PATCHES = (
    (spec_mod, "build_benchmark", "workloads.build", None),
    (Machine, "run", "jvm.interp", None),
    (MethodListener, "sample", "aos.listeners", None),
    (TraceListener, "sample", "aos.listeners", None),
    (DCGOrganizer, "run", "aos.organizer.dcg", None),
    (AIOrganizer, "run", "aos.organizer.ai", None),
    (HotMethodsOrganizer, "run", "aos.organizer.hot_methods", None),
    (MissingEdgeOrganizer, "run", "aos.organizer.missing_edge", None),
    (DecayOrganizer, "run", "aos.organizer.decay", None),
    (Controller, "process_events", "aos.controller", int),
    (InlineOracle, "decide", "compiler.oracle", lambda d: int(d.inline)),
    (StaticContextOracle, "decide", "compiler.oracle",
     lambda d: int(d.inline)),
    (OptCompiler, "compile", "compiler.opt_compile", None),
    (CodeCache, "compile_baseline", "compiler.baseline_compile", None),
    (verifier_mod, "verify_program", "analysis.verify", None),
    (callgraph_mod, "build_call_graph", "analysis.callgraph", None),
    (kcfa_mod, "build_kcfa_graph", "analysis.kcfa", None),
    (dataflow_mod, "static_speculation_summary", "analysis.speculation",
     None),
    (SpeculationAnalysis, "summary", "analysis.speculation", None),
    (SpeculationAnalysis, "speculate", "analysis.speculation", None),
    (SpeculationAnalysis, "speculate_exhaustive", "analysis.speculation",
     None),
    (SpeculationAnalysis, "assumption_risk", "analysis.speculation", None),
    (liveness_mod, "method_liveness", "analysis.liveness", None),
    (DeoptPlanner, "plan_site", "analysis.deopt_plan", None),
    (DeoptPlanner, "loop_live_index", "analysis.deopt_plan", None),
)

#: The adaptive tick is an instance attribute, wrapped per runtime.
TICK_SPAN = "aos.tick"


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(value, machine) -> list:
    """What a run computed, which no inlining or deopt choice may change.

    (return value, source-level invocations, virtual call sites executed,
    raw work units, classes loaded by the run).
    """
    stats = machine.stats
    return [value, stats.calls + stats.inline_entries, stats.virtual_calls,
            stats.work_cycles, machine.hierarchy.loaded_count]


#: Simulated outputs that must repeat exactly from pass to pass.
OUTCOME_FIELDS = ("total_cycles", "live_opt_code_bytes", "opt_compilations",
                  "opt_compile_cycles", "guard_tests", "guard_misses",
                  "dispatches", "inline_entries", "elided_entries",
                  "deopt_exits", "osr_transfers", "invalidations",
                  "samples_taken")


def analysis_output(program) -> list:
    """Everything the analyze workload computes for one program."""
    report = analyze_program(program, soundness=False,
                             precisions=ANALYZE_PRECISIONS)
    speculation = dataflow_mod.static_speculation_summary(program)
    liveness = []
    for method in program.methods():
        live = liveness_mod.method_liveness(method)
        liveness.append([
            live.method_id, sorted(live.entry_live),
            sorted([site, sorted(locals_)]
                   for site, locals_ in live.site_live.items()),
            [[loop.path, loop.index_local, sorted(loop.live)]
             for loop in live.loops]])
    return [report, speculation, liveness]


def _span(recorder, name):
    return recorder.span(name) if recorder is not None else nullcontext()


def run_unit(program: str, scale: float, offset: int, config,
             recorder) -> dict:
    """Build, construct and run one adaptive runtime."""
    start = clock()
    with _span(recorder, "setup"):
        built = spec_mod.build_benchmark(program, scale, seed_offset=offset)
        built_at = clock()
        costs = DEFAULT_COSTS.replace(**dict(config.overrides))
        runtime = AdaptiveRuntime(
            built.program, make_policy(config.family, config.depth, costs),
            costs)
        if recorder is not None:
            runtime.machine.tick_handler = recorder.wrap(
                TICK_SPAN, runtime.machine.tick_handler)
    ready = clock()
    with _span(recorder, "run"):
        result = runtime.run()
    end = clock()
    stats = runtime.machine.stats
    return {
        "build_s": built_at - start, "setup_s": ready - start,
        "run_s": end - ready,
        "fingerprint": fingerprint(result.return_value, runtime.machine),
        "outcome": digest([repr(getattr(result, field))
                           for field in OUTCOME_FIELDS]),
        "counts": {
            "jvm.invocations": result.calls + result.inline_entries,
            "jvm.inline_entries": result.inline_entries,
            "jvm.dispatches": result.dispatches,
            "jvm.guard_tests": result.guard_tests,
            "jvm.guard_misses": result.guard_misses,
            "jvm.elided_entries": result.elided_entries,
            "jvm.deopt_exits": result.deopt_exits,
            "jvm.osr_transfers": result.osr_transfers,
            "jvm.work_units": stats.work_cycles,
            "jvm.sim_mcycles": result.total_cycles / 1e6,
            "aos.samples": result.samples_taken,
            "compiler.opt_compilations": result.opt_compilations,
            "compiler.invalidations": result.invalidations,
            "compiler.opt_code_kb": result.live_opt_code_bytes / 1024,
            "compiler.opt_compile_mcycles": result.opt_compile_cycles / 1e6,
        },
    }


def analyze_unit(program: str, scale: float, offset: int, recorder) -> dict:
    """Build one program afresh and run every static analysis over it."""
    start = clock()
    with _span(recorder, "setup"):
        built = spec_mod.build_benchmark(program, scale, seed_offset=offset)
    ready = clock()
    with _span(recorder, "run"):
        output = analysis_output(built.program)
    end = clock()
    return {"build_s": ready - start, "setup_s": ready - start,
            "run_s": end - ready,
            "verified": output[0]["verifier"]["ok"],
            "fingerprint": digest(output), "outcome": "", "counts": {}}


#: The records a pass returns, by ``job["mode"]``.
KINDS = {"timed": ("timed",), "trace": ("timed", "traced"),
         "profile": ("profile",)}


def run_pass(job: dict) -> dict:
    """Every unit of the workload once per kind; ``{kind: record}``.

    In ``"trace"`` mode each unit runs twice in a row, untraced and
    traced, so the traced run's overhead is measured against a run made
    moments before or after it; the two alternate in order from unit to
    unit, so neither gains from the other's warm-up.
    """
    workload = WORKLOADS[job["workload"]]
    smoke = job.get("smoke", False)
    programs = SMOKE_PROGRAMS if smoke else PROGRAMS
    scale = min(workload.scale, SMOKE_SCALE) if (
        smoke and workload.kind == "run") else workload.scale
    offset = seed_offset(job["seed"])
    if workload.kind == "run":
        plan = [(program, config) for program in programs
                for config in workload.configs]
    else:
        rounds = 1 if smoke else workload.rounds
        plan = [(program, None) for _ in range(rounds)
                for program in programs]

    kinds = KINDS[job.get("mode", "timed")]
    units = {kind: [] for kind in kinds}
    recorder = SpanRecorder() if "traced" in kinds else None
    profiler = cProfile.Profile() if "profile" in kinds else None
    if recorder is not None:
        for owner, attr, name, count in LAYER_PATCHES:
            recorder.patch(owner, attr, name, count)

    def run(program, config, recorder=None) -> dict:
        if config is None:
            return analyze_unit(program, scale, offset, recorder)
        return run_unit(program, scale, offset, config, recorder)

    if recorder is not None:
        # A discarded run, so that the first unit's two runs both find
        # the interpreter's caches warm.  Should it raise, the same error
        # is counted below.
        with suppress(Exception):
            run(*plan[0])
    spans = []
    probe.sample()  # warm-up
    before = probe.sample()
    import_speed = probe.speed(before, before)
    for index, (program, config) in enumerate(plan):
        for kind in (kinds if index % 2 == 0 else kinds[::-1]):
            traced = kind == "traced"
            if traced:
                recorder.run = index
            with recorder.active() if traced else nullcontext():
                if profiler is not None:
                    profiler.enable()
                try:
                    unit = run(program, config, recorder if traced else None)
                except Exception as exc:  # a failed run is counted
                    unit = {"error": f"{type(exc).__name__}: {exc}"}
                finally:
                    if profiler is not None:
                        profiler.disable()
            after = probe.sample()
            unit["speed"] = probe.speed(before, after)
            before = after
            if traced:
                unit_spans = recorder.take()
                unit["layers"] = self_times(unit_spans)
                spans.extend(unit_spans)
            unit["program"] = program
            unit["config"] = config.label if config is not None else ""
            units[kind].append(unit)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = {kind: {"import_s": IMPORT_S * import_speed, "scale": scale,
                      "offset": offset, "units": units[kind],
                      "peak_rss_mb": peak_rss_mb}
               for kind in kinds}
    if recorder is not None:
        records["traced"]["layer_counts"] = recorder.counts
        if job.get("trace_out"):
            chrome_trace(spans, job["trace_out"])
    if profiler is not None:
        records["profile"]["profile"] = module_self_times(profiler)
    return records


def module_self_times(profiler: cProfile.Profile) -> dict:
    """cProfile self time rolled up by module (``repro.`` prefix dropped)."""
    totals: dict = {}
    src = os.path.join(SRC, "repro") + os.sep
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        if filename.startswith(src):
            module = filename[len(src):-len(".py")].replace(os.sep, ".")
        else:
            module = "other"
        totals[module] = totals.get(module, 0.0) + row[2]
    return totals


def main() -> None:
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))


if __name__ == "__main__":
    main()
