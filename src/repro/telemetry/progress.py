"""Progress points: named throughput markers on the simulated cycle clock.

A *progress point* (Coz, arXiv:1608.03676) is a place in the program
whose rate of execution defines "progress" -- here, completion of one
iteration of a benchmark's top-level driver loop.  Causal experiments
report predicted speedups as *progress-rate* changes (marks per cycle)
rather than raw total-cycle deltas, so a what-if that merely shifts work
around without completing transactions faster scores zero.

The tracker is a machine event sink (it consumes ``progress``) and
follows the zero-overhead contract: marking a progress point charges no
simulated cycles and changes no decisions, so a tracked run is
cycle-identical to an untracked one.  Only loops in its :attr:`loops`
table get a mark; every other loop lowers as in an untracked run.

When a :class:`~repro.telemetry.recorder.TelemetryRecorder` is attached,
every mark is mirrored as a ``progress/<name>`` counter sample, which
the Chrome-trace exporter renders as a throughput track -- the causal
profiler's experiment annotations ride along in the trace metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.jvm.program import Loop, MethodDef, Program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.telemetry.recorder import TelemetryRecorder


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

    def __init__(self, label: str = "run",
                 telemetry: Optional["TelemetryRecorder"] = None):
        self.label = label
        self.telemetry = telemetry
        self.points: Dict[str, ProgressPointStats] = {}
        #: ``id(loop statement) -> point name``: the machine fires
        #: :meth:`progress` once per completed iteration of each loop.
        self.loops: Dict[int, str] = {}
        self._clock: Callable[[], float] = lambda: 0.0

    def bind(self, clock: Callable[[], float]) -> None:
        """Attach the cycle-clock source (the adaptive runtime does this)."""
        self._clock = clock

    def progress(self, name: str) -> None:
        """The ``progress`` event: one completion of the named point."""
        clock = self._clock()
        stats = self.points.get(name)
        if stats is None:
            stats = self.points[name] = ProgressPointStats()
            stats.first_clock = clock
        stats.count += 1
        stats.last_clock = clock
        if self.telemetry is not None:
            self.telemetry.count(f"progress/{name}")

    # -- queries -----------------------------------------------------------

    def total_marks(self) -> int:
        return sum(stats.count for stats in self.points.values())

    def rate(self, total_cycles: float,
             name: Optional[str] = None) -> float:
        """Progress throughput in marks per 1000 cycles.

        With ``name`` the rate of one point; without, the aggregate rate
        over every point.  Zero cycles yields zero rate.
        """
        if total_cycles <= 0.0:
            return 0.0
        count = (self.points[name].count if name is not None
                 else self.total_marks())
        return 1000.0 * count / total_cycles

    def summary(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready per-point statistics (sorted for determinism)."""
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


def instrument_progress(machine, program: Program,
                        tracker: ProgressTracker) -> Dict[int, str]:
    """Make ``tracker`` the machine's event sink, marking entry loops.

    Binds the tracker to the machine clock, adds the program's entry-loop
    points to its :attr:`~ProgressTracker.loops`, and returns them as
    ``{id(loop): name}`` (empty when the entry method has no top-level
    loop).
    """
    points = main_loop_points(program)
    tracker.bind(lambda: machine.clock)
    tracker.loops.update(points)
    machine.events = tracker
    return points
