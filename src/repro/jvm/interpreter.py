"""The simulated execution engine.

:class:`Machine` executes a :class:`~repro.jvm.program.Program` under a
cycle clock.  Methods run either as *baseline* code (interpreted at a cost
multiplier, compiled lazily at first invocation) or as *optimized* code
(driven by the inline tree of an installed
:class:`~repro.compiler.compiled_method.CompiledMethod`).

Everything the paper measures flows through here:

* application cycles (work, dispatch overhead, inline guards),
* the source-level shadow stack the trace listener samples (inlined
  activations get zero-cost marker frames, reproducing Jikes RVM's
  optimized-stack-frame decoding),
* the tick hook that drives timer-based sampling and the periodic
  organizers,
* the :attr:`Machine.events` sink that observers consume.

:meth:`Machine.run` executes the program as Python functions generated
from its statement lists (see :mod:`repro.jvm.lowering`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.aos.cost_accounting import CostAccounting
from repro.compiler.code_cache import CodeCache
from repro.jvm.costs import CostModel
from repro.jvm.frames import Frame
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.lowering import MAX_STACK_DEPTH, lower_run
from repro.jvm.program import Program
from repro.jvm.values import Value
from repro.telemetry.recorder import NULL_RECORDER

__all__ = ["MAX_STACK_DEPTH", "Machine", "MachineStats", "NULL_EVENTS",
           "NullEvents"]


class NullEvents:
    """The default event sink: it consumes no event, so a run builds no
    firing code at all."""

    __slots__ = ()


#: The machine's default :attr:`Machine.events`.
NULL_EVENTS = NullEvents()


class MachineStats:
    """Lightweight dynamic-execution counters (used by tests and reports)."""

    __slots__ = ("calls", "virtual_calls", "inline_entries", "guard_tests",
                 "guard_misses", "dispatches", "work_cycles",
                 "osr_transfers", "elided_entries", "deopt_entries",
                 "deopt_exits")

    def __init__(self) -> None:
        self.calls = 0            # out-of-line invocations
        self.virtual_calls = 0    # virtual sites executed (any outcome)
        self.inline_entries = 0   # inlined bodies entered
        self.guard_tests = 0      # individual guard tests executed
        self.guard_misses = 0     # guarded sites where every guard failed
        self.dispatches = 0       # full virtual dispatches paid
        self.work_cycles = 0      # raw (unscaled) work units executed
        self.osr_transfers = 0    # loops transferred onto optimized code
        self.elided_entries = 0   # inline entries through an elided guard
        self.deopt_entries = 0    # zero-cost entries at cheap-exit OSR sites
        self.deopt_exits = 0      # deoptimization exits (mapped live state)


class Machine:
    """Cycle-accounted executor for one program run."""

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 code_cache: CodeCache, costs: CostModel,
                 accounting: Optional[CostAccounting] = None,
                 tick_handler: Optional[Callable[["Machine"], None]] = None):
        self.program = program
        self.hierarchy = hierarchy
        self.code_cache = code_cache
        self.costs = costs
        self.accounting = accounting if accounting is not None else CostAccounting()
        self.tick_handler = tick_handler

        self.clock = 0.0
        #: Telemetry sink (spans for lazy baseline compiles, OSR instants);
        #: the adaptive runtime swaps in its recorder, the NullRecorder
        #: default charges and allocates nothing.
        self.telemetry = NULL_RECORDER
        #: The next clock value at which :attr:`tick_handler` fires.
        self.next_event = float("inf")
        #: Source-level shadow stack (includes inlined activations).
        self.stack: List[Frame] = []
        self.stats = MachineStats()
        self._in_tick = False

        #: Back-edge counters for baseline loops (OSR trigger state).
        self.backedge_counts = {}
        #: Called once per method when its back-edge count crosses the OSR
        #: threshold while still at the baseline tier; the adaptive runtime
        #: points this at the controller's OSR request queue.
        self.osr_handler: Optional[Callable[[str], None]] = None
        self._osr_notified = set()
        #: Called the first time each class is instantiated (class
        #: loading); the adaptive runtime points this at CHA-dependency
        #: invalidation.
        self.class_load_handler: Optional[Callable[[str], None]] = None

        #: ``id(loop_stmt) -> live-local set`` from the deopt planner's
        #: liveness pass.  ``None`` (the default) charges no OSR
        #: state-mapping cycles, reproducing pre-planning cycle counts
        #: exactly; when set, each loop OSR transfer additionally pays
        #: ``len(live) * costs.osr_map_in_cost``.
        self.osr_liveness = None
        #: The event sink (DESIGN.md, "Events").  A sink implements only
        #: the events it reads -- ``dispatch``, ``elided``, ``osr_entry``,
        #: ``deopt_exit``, ``local``, ``progress`` (naming its points in a
        #: ``loops`` table) and the runtime's ``epoch`` -- and :meth:`run`
        #: builds firing code for those alone.  Events charge no cycles
        #: and a sink must not mutate machine state, so an observed run
        #: is cycle-identical to a bare one.
        self.events = NULL_EVENTS

    # -- cost charging -----------------------------------------------------

    def charge(self, component: str, cycles: float) -> None:
        """Advance the clock, attribute cycles, and fire any due tick."""
        self.clock += cycles
        self.accounting.charge(component, cycles)
        if self.clock >= self.next_event and not self._in_tick:
            self._fire_tick()

    def _fire_tick(self) -> None:
        handler = self.tick_handler
        if handler is None:
            self.next_event = float("inf")
            return
        self._in_tick = True
        try:
            # The handler is responsible for advancing ``next_event``.
            handler(self)
        finally:
            self._in_tick = False

    # -- deoptimization ----------------------------------------------------

    def on_code_invalidated(self, method_id: str) -> None:
        """Re-arm OSR for a method whose optimized code was discarded.

        The OSR notification is once-per-method while code is absent; a
        method deoptimized back to baseline must be able to request OSR
        again, or its hot loops spin at baseline tier until the (much
        slower) hot-method sampling path notices.  Back-edge counts are
        deliberately kept: the loop already proved itself hot.
        """
        self._osr_notified.discard(method_id)

    # -- entry point -------------------------------------------------------

    def run(self, args: Sequence[Value] = ()) -> Value:
        """Execute the program's entry method to completion."""
        entry = self.program.entry_method()
        invoke, release = lower_run(self)
        try:
            return invoke(entry, tuple(args), None)
        finally:
            release()
