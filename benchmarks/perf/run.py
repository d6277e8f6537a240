"""Host-time benchmark of the simulator, end to end and per layer.

Every pass of a workload runs in a fresh single-threaded worker process
(``worker.py``).  Workers run one at a time, back to back (a closed
loop), and with several workloads the passes interleave: pass 1 of each
workload, then pass 2, and so on.  A workload keeps starting passes
while its longest pass so far still fits in ``--seconds``.  Host times
are in reference seconds (see ``probe.py``); a time metric describes a
typical pass, in which each unit (one run or one analysis) takes its
median over the passes.  Every run's output is checked against the
reference pinned in ``pins.json`` and against the other passes.

Usage::

    python3 benchmarks/perf/run.py --workload suite-cins --seed 0 \\
        --seconds 30 --trace 0

``--workload all`` (the default) runs every workload.  ``--trace 1``
runs every unit untraced and then traced (or the other way round) and
reports the per-layer metrics;
``--profile`` runs one cProfile pass per workload; ``--smoke`` runs one
small pass (scale 0.05, two programs); ``--out FILE`` appends one JSON
record per workload for ``compare.py``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from workloads import PROGRAMS, WORKLOADS, pin_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")
PINS_PATH = os.path.join(HERE, "pins.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
TRACE_DIR = os.path.join(HERE, "traces")

#: A pass that takes longer than this is a hang, not a measurement.
WORKER_TIMEOUT_S = 150

#: Candidate tail percentiles, reported only with >= 10 samples beyond.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10

#: Simulated work counted by every run (``worker.run_unit``).
COUNTS = ("jvm.invocations", "jvm.inline_entries", "jvm.dispatches",
          "jvm.guard_tests", "jvm.guard_misses", "jvm.elided_entries",
          "jvm.deopt_exits", "jvm.osr_transfers", "jvm.work_units",
          "jvm.sim_mcycles", "aos.samples", "compiler.opt_compilations",
          "compiler.invalidations", "compiler.opt_code_kb",
          "compiler.opt_compile_mcycles")
#: Per-layer self time: metric -> span name (see ``worker.LAYER_PATCHES``).
SELF_TIMES = {
    "jvm.interp_self_s": "jvm.interp",
    "aos.tick_self_s": "aos.tick",
    "aos.listeners_s": "aos.listeners",
    "aos.organizer.dcg_s": "aos.organizer.dcg",
    "aos.organizer.ai_s": "aos.organizer.ai",
    "aos.organizer.hot_methods_s": "aos.organizer.hot_methods",
    "aos.organizer.missing_edge_s": "aos.organizer.missing_edge",
    "aos.organizer.decay_s": "aos.organizer.decay",
    "aos.controller_s": "aos.controller",
    "compiler.oracle_s": "compiler.oracle",
    "compiler.opt_compile_self_s": "compiler.opt_compile",
    "compiler.baseline_compile_s": "compiler.baseline_compile",
}
ANALYSES = ("verify", "callgraph", "kcfa", "speculation", "liveness",
            "deopt_plan")
#: Span names that are roots: their self time is unattributed.
ROOTS = ("setup", "run")


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a failed run)."""


# -- statistics --------------------------------------------------------------


def tail_percentile(n: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with >= 10 of n samples beyond it."""
    fitting = [p for p in PERCENTILES
               if n - math.ceil(p * n / 100) >= MIN_BEYOND]
    return fitting[-1] if fitting else None


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


# -- passes ------------------------------------------------------------------


def run_worker(job: dict) -> dict:
    # A fixed hash seed makes every pass allocate alike.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(job)],
                              capture_output=True, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S}s on "
                             f"{job['workload']}") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode} on "
                             f"{job['workload']}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(names: List[str], seed: int, seconds: float, mode: str,
            smoke: bool) -> Dict[str, Dict[str, List[dict]]]:
    """Run passes, interleaved across workloads, until each budget is spent.

    ``mode`` is ``"timed"``, ``"trace"`` (every unit untraced and traced,
    see ``worker.run_pass``) or ``"profile"`` (one profiled pass).
    Returns ``{workload: {kind: [record per pass]}}``.
    """
    records: Dict[str, Dict[str, List[dict]]] = {name: {} for name in names}
    elapsed = dict.fromkeys(names, 0.0)
    longest = dict.fromkeys(names, 0.0)
    active = list(names)
    while active:
        for name in list(active):
            if records[name] and (
                    smoke or mode == "profile"
                    or elapsed[name] + longest[name] > seconds):
                active.remove(name)
                continue
            job = {"workload": name, "seed": seed, "smoke": smoke,
                   "mode": mode}
            if mode == "trace":
                os.makedirs(TRACE_DIR, exist_ok=True)
                job["trace_out"] = os.path.join(TRACE_DIR, f"{name}.json")
            start = time.perf_counter()
            for kind, record in run_worker(job).items():
                records[name].setdefault(kind, []).append(record)
            took = time.perf_counter() - start
            elapsed[name] += took
            longest[name] = max(longest[name], took)
    return records


# -- correctness -------------------------------------------------------------


def check(name: str, records: List[dict], pins: dict) -> dict:
    """Count runs and failures; a run fails if it raised, if its output
    differs from the pinned reference, or if its simulated outcome differs
    from the same unit's outcome in another pass."""
    kind = WORKLOADS[name].kind
    expected = pins["runs"] if kind == "run" else pins["analyses"]
    outcomes: Dict[tuple, str] = {}
    attempted, problems = 0, []
    for record in records:
        for unit in record["units"]:
            attempted += 1
            key = pin_key(unit["program"], record["scale"], record["offset"])
            if "error" in unit:
                problem = unit["error"]
            elif kind == "analyze" and not unit["verified"]:
                problem = "verifier rejected the program"
            elif unit["fingerprint"] != expected.get(key):
                problem = (f"output {unit['fingerprint']} != reference "
                           f"{expected.get(key)}")
            elif outcomes.setdefault((unit["program"], unit["config"]),
                                     unit["outcome"]) != unit["outcome"]:
                problem = "simulated outcome differs between passes"
            else:
                continue
            problems.append(f"{name} {key} {unit['config']}: {problem}")
    return {"attempted": attempted, "failed": len(problems),
            "problems": problems}


# -- metrics -----------------------------------------------------------------


def unit_medians(records: List[dict], field: str) -> List[tuple]:
    """``(program, median)`` per unit: the unit's ``field`` time over the
    passes, in reference seconds.  Passes run the same units in the same
    order; a unit that raised has no times."""
    medians = []
    for units in zip(*(record["units"] for record in records)):
        times = [unit[field] * unit["speed"] for unit in units
                 if field in unit]
        if times:
            medians.append((units[0]["program"], statistics.median(times)))
    return medians


def typical(records: List[dict], field: str,
            program: Optional[str] = None) -> float:
    """``field`` time of a typical pass (of one program's units)."""
    return sum(value for name, value in unit_medians(records, field)
               if program is None or name == program)


def pass_total(record: dict, field: str) -> float:
    return sum(unit[field] * unit["speed"] for unit in record["units"]
               if field in unit)


def runs_ms(records: List[dict]) -> List[float]:
    """Every unit's run time in every pass, in reference milliseconds."""
    return [unit["run_s"] * unit["speed"] * 1000
            for record in records for unit in record["units"]
            if "run_s" in unit]


def end_to_end(records: List[dict]) -> Dict[str, float]:
    return {
        "wall_s": typical(records, "run_s"),
        "run_ms_geomean": geomean([value * 1000 for _, value
                                   in unit_medians(records, "run_s")]),
        "peak_rss_mb": statistics.median(record["peak_rss_mb"]
                                         for record in records),
        "setup_s": typical(records, "setup_s"),
    }


def per_pass(records: List[dict]) -> Dict[str, List[float]]:
    """Each end-to-end metric of each pass on its own, for the spread."""
    passes = [end_to_end([record]) for record in records]
    return {key: [values[key] for values in passes] for key in passes[0]}


def layer_total(record: dict, span: str, key: str = "self_s") -> float:
    """One traced pass's ``self_s`` or ``total_s`` (in reference seconds)
    or ``calls`` of one span name."""
    return sum(unit["layers"][span][key]
               * (1 if key == "calls" else unit["speed"])
               for unit in record["units"]
               if span in unit.get("layers", {}))


def per_layer(timed: List[dict], traced: List[dict]) -> Dict[str, float]:
    med = statistics.median
    wall = typical(timed, "run_s")
    counts = dict.fromkeys(COUNTS, 0)
    for unit in timed[0]["units"]:
        for key, value in unit.get("counts", {}).items():
            counts[key] += value
    first = traced[0]

    def traced_median(span: str, key: str = "self_s") -> float:
        return med(layer_total(record, span, key) for record in traced)

    metrics = {
        "setup.import_s": med(record["import_s"] for record in timed),
        "workloads.build_s": typical(timed, "build_s"),
        "host.raw_wall_s": med(sum(unit["run_s"] for unit in record["units"]
                                   if "run_s" in unit)
                               for record in timed),
        "host.speed_factor": med(unit["speed"] for record in timed
                                 for unit in record["units"]),
        **counts,
        "jvm.sim_mcycles_per_s": counts["jvm.sim_mcycles"] / wall,
        **{metric: traced_median(span)
           for metric, span in SELF_TIMES.items()},
        "aos.tick_s": traced_median("aos.tick", "total_s"),
        "aos.ticks": layer_total(first, "aos.tick", "calls"),
        "aos.plans": first["layer_counts"].get("aos.controller", 0),
        "compiler.oracle_decisions":
            layer_total(first, "compiler.oracle", "calls"),
        "trace.wall_s": typical(traced, "run_s"),
        "trace.unattributed_s": med(sum(layer_total(record, root)
                                        for root in ROOTS)
                                    for record in traced),
        "trace.reconcile_frac": med(reconcile(record) for record in traced),
    }
    for name in ANALYSES:
        metrics[f"analysis.{name}_s"] = traced_median(f"analysis.{name}")
        metrics[f"analysis.{name}_calls"] = layer_total(
            first, f"analysis.{name}", "calls")
    decisions = metrics["compiler.oracle_decisions"]
    metrics["compiler.inline_frac"] = (
        first["layer_counts"].get("compiler.oracle", 0) / decisions
        if decisions else 0.0)
    invocations = counts["jvm.invocations"]
    metrics["jvm.ns_per_invocation"] = (
        metrics["jvm.interp_self_s"] / invocations * 1e9
        if invocations else 0.0)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / wall - 1
    for program in PROGRAMS:
        metrics[f"row.{program}.run_s"] = typical(timed, "run_s", program)
    return metrics


def reconcile(record: dict) -> float:
    """How far every span's self time (unattributed roots included) falls
    short of, or exceeds, the traced pass's set-up plus run time."""
    spans = {name for unit in record["units"]
             for name in unit.get("layers", {})}
    attributed = sum(layer_total(record, name) for name in spans)
    return attributed / (pass_total(record, "setup_s")
                         + pass_total(record, "run_s")) - 1


def profile_shares(records: List[dict]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for record in records:
        for module, seconds in record["profile"].items():
            totals[module] = totals.get(module, 0.0) + seconds
    whole = sum(totals.values()) or 1.0
    return {f"profile.self_share.{module}": seconds / whole
            for module, seconds in sorted(totals.items())}


# -- report ------------------------------------------------------------------


def summarize(name: str, records: Dict[str, List[dict]], spec: dict,
              pins: dict) -> dict:
    """Check and reduce one workload's passes; prints a readable summary."""
    all_records = [record for kind in records.values() for record in kind]
    verdict = check(name, all_records, pins)
    section = None
    if "profile" in records:
        values = profile_shares(records["profile"])
        units = dict.fromkeys(values, "frac")
    else:
        timed = records["timed"]
        section = "per_layer" if records.get("traced") else "end_to_end"
        values = (per_layer(timed, records["traced"])
                  if section == "per_layer" else end_to_end(timed))
        units = {metric["name"]: metric["unit"] for metric in spec[section]}
        missing = [key for key in units if key not in values]
        if missing:
            raise BenchmarkError(f"{name}: no value for {missing}")

    passes = len(next(iter(records.values())))
    print(f"== {name}: {passes} pass(es), one fresh worker per pass, run "
          f"one at a time; {verdict['attempted']} runs checked, "
          f"{verdict['failed']} failed")
    if section == "end_to_end":
        bounds = {metric["name"]: metric["bound"]
                  for metric in spec["end_to_end"]}
        samples = per_pass(timed)
    for key, unit in units.items():
        note = ""
        if section == "end_to_end":
            series = samples[key]
            flag = ("  NOISY" if key != "setup_s"
                    and spread(series) > bounds[key] / 3 else "")
            note = (f"  {len(series)} passes, pass-to-pass IQR/median "
                    f"{spread(series):.1%}{flag}")
        print(f"  {key:<36} {values[key]:>14.6g} {unit}{note}")
    if section == "end_to_end":
        latencies = runs_ms(timed)
        tail = tail_percentile(len(latencies))
        print(f"  per-run latency over {len(latencies)} runs: p50 "
              f"{percentile(latencies, 50):.6g} ms", end="")
        print(f", p{tail:g} {percentile(latencies, tail):.6g} ms (the "
              f"highest percentile with >= {MIN_BEYOND} runs beyond it)"
              if tail is not None else "")
    for problem in verdict["problems"]:
        print(f"  FAILED {problem}")
    return {"attempted": verdict["attempted"], "failed": verdict["failed"],
            "metrics": {key: {"value": values[key], "unit": unit}
                        for key, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="append per-workload JSON records")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    mode = "profile" if args.profile else ("trace" if args.trace else "timed")
    try:
        # The workers put this checkout's src/ first on sys.path; without
        # it they would measure whatever ``repro`` happens to be installed.
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchmarkError(f"no src/repro under {ROOT}")
        with open(BENCHMARK_PATH) as handle:
            spec = json.load(handle)
        with open(PINS_PATH) as handle:
            pins = json.load(handle)
        records = measure(names, args.seed, args.seconds, mode, args.smoke)
        results = {name: summarize(name, records[name], spec, pins)
                   for name in names}
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "a") as handle:
            for name, result in results.items():
                handle.write(json.dumps({"workload": name, "seed": args.seed,
                                         "mode": mode, **result}) + "\n")
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": value for name, result in results.items()
                   for key, value in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
