"""Progress points: named throughput markers on the simulated cycle clock.

A *progress point* (Coz, arXiv:1608.03676) is a place in the program
whose rate of execution defines "progress" -- here, completion of one
iteration of a benchmark's top-level driver loop.  Causal experiments
report predicted speedups as *progress-rate* changes (marks per cycle)
rather than raw total-cycle deltas, so a what-if that merely shifts work
around without completing transactions faster scores zero.

The tracker is a machine event sink (it consumes ``progress``) that
reads the clock of the machine it watches, and follows the zero-overhead
contract: marking a progress point charges no simulated cycles and
changes no decisions, so a tracked run is cycle-identical to an
untracked one.  Only loops in its :attr:`loops` table get a mark; every
other loop lowers as in an untracked run.

A :class:`~repro.telemetry.recorder.TelemetryRecorder` on the same run
counts each mark as a ``progress/<name>`` sample, which the Chrome-trace
exporter renders as a throughput track -- the causal profiler's
experiment annotations ride along in the trace metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.jvm.costs import CENTI
from repro.jvm.program import Loop, MethodDef, Program


@dataclass
class ProgressPointStats:
    """Everything recorded about one progress point."""

    count: int = 0
    first_clock: float = 0.0
    last_clock: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"count": float(self.count),
                "first_clock": self.first_clock,
                "last_clock": self.last_clock}


class ProgressTracker:
    """Counts progress-point hits against the simulated cycle clock."""

    #: The watched machine; the adaptive runtime sets it.
    machine = None

    def __init__(self, loops: Dict[int, str]):
        #: ``id(loop statement) -> point name`` (for example
        #: :func:`main_loop_points`): the machine fires :meth:`progress`
        #: once per completed iteration of each loop.
        self.loops = loops
        self.points: Dict[str, ProgressPointStats] = {}

    def progress(self, name: str) -> None:
        """The ``progress`` event: one completion of the named point."""
        clock = self.machine.clock / CENTI
        stats = self.points.get(name)
        if stats is None:
            stats = self.points[name] = ProgressPointStats()
            stats.first_clock = clock
        stats.count += 1
        stats.last_clock = clock

    def summary(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready per-point statistics (sorted for determinism), the
        payload :func:`progress_rate` reads."""
        return {name: self.points[name].as_dict()
                for name in sorted(self.points)}


# -- rate helpers over persisted summaries ----------------------------------

def progress_rate(progress_points: Optional[Dict[str, Dict[str, float]]],
                  total_cycles: float) -> float:
    """Aggregate marks-per-1000-cycles from a persisted summary.

    Operates on the ``RunResult.progress_points`` payload so reports can
    compute rates from cached cells without re-running anything.
    """
    if not progress_points or total_cycles <= 0.0:
        return 0.0
    count = sum(stats["count"] for stats in progress_points.values())
    return 1000.0 * count / total_cycles


# -- wiring ------------------------------------------------------------------

def main_loop_points(program: Program,
                     method: Optional[MethodDef] = None) -> Dict[int, str]:
    """Progress points for a program's entry-method top-level loops.

    Each top-level ``Loop`` of the entry method is one progress point:
    a single loop is named ``main`` (the common all-drivers-per-
    iteration shape); several top-level loops are the program's phases
    and named ``phase0``, ``phase1``, ... in source order.  Keys are
    loop-statement identities, as in :attr:`ProgressTracker.loops`.
    """
    entry = method if method is not None else program.entry_method()
    loops = [stmt for stmt in entry.body if isinstance(stmt, Loop)]
    if not loops:
        return {}
    if len(loops) == 1:
        return {id(loops[0]): "main"}
    return {id(stmt): f"phase{index}"
            for index, stmt in enumerate(loops)}
