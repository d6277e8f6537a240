"""The experiment runner: executes (benchmark x policy x depth) sweeps.

One *cell* of the sweep runs a freshly generated benchmark program under a
policy at several sampling phases and keeps the best run (minimum total
cycles), mirroring the paper's best-of-N methodology for its
non-deterministic timer-sampled system.  The benchmark program is built
once per cell and shared by every phase run (generation is
seed-deterministic and each :class:`AdaptiveRuntime` owns its own
hierarchy and code cache, so per-phase regeneration was pure waste).

Cells are independent.  :func:`run_cells` is the one cell loop, shared
with the causal grid (:mod:`repro.causal.engine`): it serves cells from
the content-addressed per-cell cache
(:mod:`repro.experiments.cell_cache`), runs each of the rest in its own
process, at most ``jobs`` at once, and persists each finished cell at
once, so an interrupted run resumes where it died.  A cell whose worker
raises or whose process dies is retried once in a new process and then
recorded as a structured :class:`CellFailure` instead of killing the
run; a per-cell timeout kills only the cell that exceeds it; with one
job, or when no process can be started, the cells run in-process.

Results are plain dataclasses; :class:`SweepResults` offers the lookups
the figure formatters need plus JSON (de)serialization, and
:func:`load_or_run_sweep` writes that JSON for ``repro figures``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.aos.runtime import AdaptiveRuntime, RunResult
from repro.atomic_file import write_atomic
from repro.experiments.cell_cache import (CellCache, cell_cache_root,
                                          result_from_dict, result_to_dict)
from repro.experiments.config import SweepConfig
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.errors import ConfigError
from repro.policies import make_policy
from repro.provenance.recorder import ProvenanceRecorder
from repro.provenance.records import ProvenanceRecord
from repro.workloads.spec import GeneratedBenchmark, build_benchmark

#: Key identifying one sweep cell.
CellKey = Tuple[str, str, int]  # (benchmark, family, depth)

#: Worker attempts per cell before a failure is recorded (the first run
#: plus one retry).
MAX_CELL_ATTEMPTS = 2


def run_single(benchmark: str, family: str, depth: int,
               phase: float = 0.0, scale: float = 1.0,
               costs: CostModel = DEFAULT_COSTS,
               sinks: Sequence[object] = (),
               generated: Optional[GeneratedBenchmark] = None) -> RunResult:
    """Run one benchmark under one policy at one sampling phase.

    ``sinks`` are the run's instruments (telemetry, provenance, a
    progress tracker, ...), handed to :class:`AdaptiveRuntime` as they
    are; like every event sink they leave the result unchanged.
    ``generated`` lets callers reuse an already-built benchmark program
    (it is read-only to the runtime); without it the benchmark is built
    from scratch.
    """
    if generated is None:
        generated = build_benchmark(benchmark, scale=scale)
    policy = make_policy(family, depth, costs)
    runtime = AdaptiveRuntime(generated.program, policy, costs,
                              sample_phase=phase, sinks=sinks)
    return runtime.run()


def decision_log_meta(benchmark: str, family: str, depth: int,
                      phase: float, scale: float,
                      result: RunResult) -> Dict[str, object]:
    """JSONL header metadata for one run's decision log.

    Carries the run-level metrics ``repro decisions diff`` attributes
    flips to (cycles, live code space, guard traffic) plus enough
    identity to label the diff.
    """
    return {
        "label": f"{benchmark}/{family}/max{depth}@{phase:g}",
        "benchmark": benchmark,
        "family": family,
        "depth": depth,
        "phase": phase,
        "scale": scale,
        "total_cycles": result.total_cycles,
        "live_opt_code_bytes": result.live_opt_code_bytes,
        "opt_code_bytes": result.opt_code_bytes,
        "opt_compilations": result.opt_compilations,
        "guard_tests": result.guard_tests,
        "guard_misses": result.guard_misses,
    }


#: ``(header meta, records)`` of one cell's best-run decision log.
DecisionLog = Tuple[Dict[str, object], List[ProvenanceRecord]]


def run_cell(benchmark: str, family: str, depth: int,
             phases: Sequence[float], scale: float = 1.0,
             costs: CostModel = DEFAULT_COSTS,
             collect_provenance: bool = False) \
        -> Tuple[RunResult, Optional[DecisionLog]]:
    """Best-of-phases run for one sweep cell (paper methodology).

    The benchmark program is generated once and shared by all phase runs;
    every :class:`AdaptiveRuntime` builds its own hierarchy, code cache,
    and profile state, so runs stay independent.

    Returns ``(result, log)``: the best run and, with
    ``collect_provenance``, that run's :data:`DecisionLog` (header meta
    plus record stream); ``log`` is ``None`` otherwise.
    """
    generated = build_benchmark(benchmark, scale=scale)
    best: Optional[RunResult] = None
    best_log: Optional[DecisionLog] = None
    for phase in phases:
        provenance = None
        if collect_provenance:
            provenance = ProvenanceRecorder(
                label=f"{benchmark}/{family}/max{depth}@{phase:g}")
        result = run_single(benchmark, family, depth, phase, scale, costs,
                            sinks=() if provenance is None else [provenance],
                            generated=generated)
        if best is None or result.total_cycles < best.total_cycles:
            best = result
            if provenance is not None:
                best_log = (decision_log_meta(benchmark, family, depth,
                                              phase, scale, result),
                            provenance.records)
    assert best is not None
    return best, best_log


#: What a cell worker returns: the cell's result and, for a sweep cell
#: run with decision logs, its best run's :data:`DecisionLog`.
CellOutcome = Tuple[RunResult, Optional[DecisionLog]]


def _cell_worker(args) -> CellOutcome:
    """Run one sweep cell; module-level so a cell process can pickle it."""
    benchmark, family, depth, phases, scale, decision_logs = args
    return run_cell(benchmark, family, depth, phases, scale,
                    collect_provenance=decision_logs)


@dataclass
class CellFailure:
    """One cell that could not produce a result, with why and how hard
    the harness tried; recorded beside the results instead of killing
    the run.  ``key`` is the cell's key in :func:`run_cells`."""

    key: tuple
    error_type: str
    message: str
    attempts: int


@dataclass
class SweepResults:
    """All cell results of one sweep, with baseline-relative queries."""

    config: SweepConfig
    cells: Dict[CellKey, RunResult]
    #: Cells that failed even after retry, keyed like ``cells``.
    failures: Dict[CellKey, CellFailure] = field(default_factory=dict)

    # -- lookups ---------------------------------------------------------------

    def result(self, benchmark: str, family: str, depth: int) -> RunResult:
        return self.cells[(benchmark, family, depth)]

    def baseline(self, benchmark: str) -> RunResult:
        return self.cells[(benchmark, "cins", 1)]

    def speedup_percent(self, benchmark: str, family: str,
                        depth: int) -> float:
        """Wall-clock speedup over cins, as plotted in Figure 4."""
        base = self.baseline(benchmark).total_cycles
        new = self.result(benchmark, family, depth).total_cycles
        return 100.0 * (base / new - 1.0)

    def code_size_percent(self, benchmark: str, family: str,
                          depth: int) -> float:
        """Optimized code-space change vs cins (Figure 5; negative good)."""
        base = self.baseline(benchmark).live_opt_code_bytes
        new = self.result(benchmark, family, depth).live_opt_code_bytes
        if base == 0:
            return 0.0
        return 100.0 * (new / base - 1.0)

    def compile_time_percent(self, benchmark: str, family: str,
                             depth: int) -> float:
        """Optimizing-compile-time change vs cins (negative good)."""
        base = self.baseline(benchmark).opt_compile_cycles
        new = self.result(benchmark, family, depth).opt_compile_cycles
        if base == 0:
            return 0.0
        return 100.0 * (new / base - 1.0)

    # -- persistence ---------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "config": dataclasses.asdict(self.config),
            "cells": [
                {"key": list(key), "result": result_to_dict(result)}
                for key, result in sorted(self.cells.items())
            ],
        }
        if self.failures:
            payload["failures"] = [dataclasses.asdict(self.failures[key])
                                   for key in sorted(self.failures)]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SweepResults":
        """Rebuild results from :meth:`to_json` text.

        Files written by older versions may carry a ``stamp`` (ignored),
        may lack ``failures`` or ``config.cell_timeout``, and may name a
        failed cell by ``benchmark``, ``family`` and ``depth``.
        """
        payload = json.loads(text)
        raw_config = payload["config"]
        for field_name in ("benchmarks", "families", "depths", "phases"):
            raw_config[field_name] = tuple(raw_config[field_name])
        config = SweepConfig(**raw_config)
        cells: Dict[CellKey, RunResult] = {}
        for entry in payload["cells"]:
            key = tuple(entry["key"])
            cells[key] = result_from_dict(entry["result"])
        failures: Dict[CellKey, CellFailure] = {}
        for raw in payload.get("failures", []):
            fields = dict(raw)
            key = tuple(fields.pop("key", None) or
                        [fields.pop(name)
                         for name in ("benchmark", "family", "depth")])
            failures[key] = CellFailure(key=key, **fields)
        return cls(config=config, cells=cells, failures=failures)


# -- the fault-tolerant cell loop ------------------------------------------------

def is_finite_positive(value: float) -> bool:
    """Whether ``value`` is a finite number above zero, as a per-cell
    timeout in seconds and a run-length scale must be."""
    return 0.0 < value < math.inf


def _answer(worker: Callable[[object], CellOutcome], arg: object,
            conn) -> None:
    """Run one cell in its own process and send the parent
    ``(outcome, None)``, or ``(None, (error type, message))`` if the
    worker raised."""
    try:
        answer = (worker(arg), None)
    except Exception as exc:
        answer = (None, (type(exc).__name__, str(exc)))
    conn.send(answer)


def run_cells(cells: Mapping[tuple, object],
              worker: Callable[[object], CellOutcome],
              fingerprint: Callable[[tuple], str],
              accept: Callable[[str, RunResult], bool],
              cache: Optional[CellCache] = None, jobs: int = 0,
              timeout: Optional[float] = None, verbose: bool = False) \
        -> Tuple[Dict[tuple, RunResult], Dict[tuple, CellFailure]]:
    """Run every cell not already cached; returns ``(results, failures)``.

    ``cells`` maps each cell key (any sortable tuple) to the argument
    ``worker`` is called with; a worker returns ``(result, log)`` (see
    :data:`CellOutcome`).  With a ``cache``, a cell whose entry under
    ``fingerprint(key)`` loads and passes ``accept(fingerprint, result)``
    is served from it; every fresh result (and log) is stored the moment
    its worker finishes, so an interrupted run resumes where it died.

    With ``jobs`` above one (0 = every core) each pending cell runs in a
    process of its own, at most ``jobs`` at once, so ``worker``, its
    argument and its outcome must be picklable.  A cell's ``timeout``
    seconds count from its process's start; a cell that exceeds them has
    its process killed and is recorded as a :class:`CellFailure` without
    a retry, while the other cells run on.  A cell whose worker raises
    or whose process dies without an answer is retried once in a new
    process and then recorded as a :class:`CellFailure`.  With ``jobs``
    of one, or once a process cannot be started, the remaining cells run
    in-process, where a raising worker is retried the same way and
    ``timeout`` does not apply.  A ``timeout`` that is not a finite
    number of seconds above zero raises :class:`ConfigError` before any
    cell runs, whatever ``jobs`` is.
    """
    if timeout is not None and not is_finite_positive(timeout):
        raise ConfigError(f"the per-cell timeout must be a finite number "
                          f"of seconds above 0, got {timeout!r}")
    results: Dict[tuple, RunResult] = {}
    failures: Dict[tuple, CellFailure] = {}
    total = len(cells)
    fingerprints: Dict[tuple, str] = {}
    if cache is not None:
        fingerprints = {key: fingerprint(key) for key in cells}
        results = {key: result for key, result
                   in cache.load_many(fingerprints).items()
                   if accept(fingerprints[key], result)}
        if verbose and results:
            print(f"  resumed {len(results)}/{total} cell(s) "
                  f"from {cache.root}")
    done = len(results)

    def finish(key: tuple, outcome: CellOutcome) -> None:
        nonlocal done
        result, log = outcome
        results[key] = result
        if cache is not None:
            cache.store(fingerprints[key], key, result)
            if log is not None:
                meta, records = log
                cache.store_decision_log(fingerprints[key], records, meta)
        done += 1
        if verbose:
            print(f"  [{done}/{total}] done {key}")

    def fail(key: tuple, error_type: str, message: str,
             attempts: int) -> None:
        nonlocal done
        failures[key] = CellFailure(key=key, error_type=error_type,
                                    message=message, attempts=attempts)
        done += 1
        if verbose:
            print(f"  [{done}/{total}] FAILED {key}: {error_type}: "
                  f"{message}")

    def run_in_process(key: tuple, attempts: int) -> None:
        last: Optional[Exception] = None
        while attempts < MAX_CELL_ATTEMPTS:
            attempts += 1
            try:
                outcome = worker(cells[key])
            except Exception as exc:
                last = exc
                continue
            finish(key, outcome)
            return
        assert last is not None
        fail(key, type(last).__name__, str(last), attempts)

    # (key, attempts so far) of each cell still to start, retries first.
    queued = [(key, 0) for key in cells if key not in results]
    jobs = jobs if jobs > 0 else (os.cpu_count() or 2)
    if jobs > 1 and queued:
        import multiprocessing
        from multiprocessing.connection import wait

        # reader -> (key, attempts, process, deadline) of each running cell.
        running: Dict[object, Tuple[tuple, int, object, float]] = {}
        startable = True
        try:
            while running or (startable and queued):
                while startable and queued and len(running) < jobs:
                    key, attempts = queued[0]
                    try:
                        reader, writer = multiprocessing.Pipe(duplex=False)
                        process = multiprocessing.Process(
                            target=_answer, args=(worker, cells[key], writer))
                        process.start()
                    except Exception as exc:
                        warnings.warn(
                            f"cannot start a cell process "
                            f"({type(exc).__name__}: {exc}); running the "
                            f"remaining cells in-process",
                            RuntimeWarning, stacklevel=3)
                        startable = False
                        break
                    writer.close()
                    queued.pop(0)
                    deadline = (math.inf if timeout is None
                                else time.monotonic() + timeout)
                    running[reader] = (key, attempts + 1, process, deadline)
                if not running:
                    break
                earliest = min(entry[3] for entry in running.values())
                # poll() cannot wait 25 days at once; waiting a day at a
                # time still reaches any deadline.
                wait_s = min(max(0.0, earliest - time.monotonic()), 86400.0)
                for reader in wait(list(running), wait_s):
                    key, attempts, process, _deadline = running.pop(reader)
                    try:
                        outcome, error = reader.recv()
                    except EOFError:
                        process.join()
                        outcome, error = None, (
                            "ProcessDied", f"the cell's process exited "
                            f"with code {process.exitcode} without an answer")
                    reader.close()
                    process.join()
                    if error is None:
                        finish(key, outcome)
                    elif attempts < MAX_CELL_ATTEMPTS:
                        queued.insert(0, (key, attempts))
                    else:
                        fail(key, *error, attempts)
                now = time.monotonic()
                for reader, (key, attempts, process, deadline) \
                        in list(running.items()):
                    if deadline <= now:
                        del running[reader]
                        process.kill()
                        process.join()
                        reader.close()
                        fail(key, "TimeoutError", f"cell exceeded the "
                             f"per-cell timeout of {timeout:g}s", attempts)
        finally:
            for _key, _attempts, process, _deadline in running.values():
                process.kill()
    for key, attempts in queued:
        run_in_process(key, attempts)
    return results, failures


def run_sweep(config: Optional[SweepConfig] = None,
              verbose: bool = False,
              cache: Optional[CellCache] = None) -> SweepResults:
    """Run the full sweep through :func:`run_cells`.

    With a ``cache``, every valid cached cell is served from it and only
    the missing cells run.  Cells that fail even after retry land in
    ``SweepResults.failures`` instead of aborting the sweep.

    With ``config.decision_logs`` every freshly run cell's best run also
    carries its decision-provenance record stream back, persisted as
    ``<fingerprint>.decisions.jsonl`` beside the cached result.  A cached
    cell whose log is missing (e.g. cached by a sweep without the flag)
    is re-run so the log exists -- recording cannot change the result
    (zero-overhead contract), so the rerun reproduces the cached bits.
    """
    if config is None:
        config = SweepConfig()
    if config.decision_logs and cache is None:
        warnings.warn(
            "decision_logs requested without a per-cell cache; logs have "
            "nowhere to go and will be discarded",
            RuntimeWarning, stacklevel=2)

    def accept(fingerprint: str, result: RunResult) -> bool:
        # Results without a decision log must re-run to produce one.
        return not config.decision_logs or cache.has_decision_log(fingerprint)

    cells = {key: (*key, config.phases, config.scale, config.decision_logs)
             for key in config.configurations()}
    results, failures = run_cells(
        cells, _cell_worker, lambda key: config.cell_fingerprint(*key),
        accept, cache=cache, jobs=config.jobs, timeout=config.cell_timeout,
        verbose=verbose)
    return SweepResults(config=config, cells=results, failures=failures)


def load_or_run_sweep(path: str,
                      config: Optional[SweepConfig] = None,
                      verbose: bool = False,
                      use_cache: bool = True) -> SweepResults:
    """Run a sweep through the per-cell cache and write its results file.

    Cells are served from and stored in ``cell_cache_root(path)``;
    ``path`` itself is only written, as the input of ``repro figures``.
    ``use_cache=False`` runs every cell afresh without touching the
    per-cell cache.
    """
    if config is None:
        config = SweepConfig()
    cache = CellCache(cell_cache_root(path)) if use_cache else None
    results = run_sweep(config, verbose=verbose, cache=cache)
    write_atomic(path, results.to_json())
    return results
