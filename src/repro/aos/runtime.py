"""The adaptive runtime: wires the machine, listeners, organizers, and
controller into one online system (paper Figure 3).

:class:`AdaptiveRuntime` owns the scheduling that Jikes RVM gets from its
timer interrupts and organizer threads: the machine's tick hook fires
whenever the cycle clock crosses the next deadline, and the runtime then
takes samples, wakes periodic organizers, runs the controller, and lets
the compilation thread drain its queue.  Everything -- profiling, decision
making, and inlining -- happens *online* while the program runs, on
profile data limited to the execution so far.
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from math import ceil
from typing import Dict, Optional, Sequence

from repro.aos.controller import CompilationThread, Controller
from repro.aos.cost_accounting import (AI_ORGANIZER, APP, DECAY_ORGANIZER,
                                       LISTENERS, METHOD_ORGANIZER,
                                       CostAccounting)
from repro.aos.database import AOSDatabase
from repro.aos.listeners import MethodListener, TraceListener
from repro.aos.organizers import (AIOrganizer, AOSState, DCGOrganizer,
                                  DecayOrganizer, HotMethodsOrganizer,
                                  MissingEdgeOrganizer)
from repro.compiler.code_cache import CodeCache
from repro.jvm.costs import (CENTI, DEFAULT_COSTS, ORGANIZER_PERIOD,
                              CostModel, to_centi)
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import Machine, join_sinks
from repro.jvm.program import Program
from repro.jvm.values import Value
from repro.policies.base import ContextSensitivityPolicy

#: What :func:`span` returns when no sink consumes ``begin``.
_NO_SPAN = nullcontext()


def is_sample_phase(phase: float) -> bool:
    """Whether ``phase`` is a usable sampling phase: in [0, 1)."""
    return 0.0 <= phase < 1.0


def span(machine: Machine, component: str, name: str, **args):
    """A span on ``component``'s track around a ``with`` body: ``begin``
    on entry and ``end`` on exit, or nothing when no sink consumes
    ``begin`` (DESIGN.md, "Events")."""
    events = machine.events
    if getattr(events, "begin", None) is None:
        return _NO_SPAN
    return _span(events, component, name, args)


@contextmanager
def _span(events, component: str, name: str, args: dict):
    events.begin(component, name, **args)
    try:
        yield
    finally:
        events.end()


@dataclass
class RunResult:
    """Everything one adaptive run produces, for the experiment harness."""

    program_name: str
    policy_name: str
    return_value: Value

    total_cycles: float
    component_cycles: Dict[str, float]

    opt_code_bytes: int
    live_opt_code_bytes: int
    opt_compilations: int
    opt_compile_cycles: float
    opt_inlined_bytecodes: int

    classes_loaded: int
    methods_compiled: int
    bytecodes_compiled: int

    samples_taken: int
    traces_recorded: int
    mean_trace_depth: float
    depth_histogram: Dict[int, int]
    dcg_traces: int
    rule_count: int
    refusals: int

    guard_tests: int
    guard_misses: int
    dispatches: int
    inline_entries: int
    calls: int
    osr_transfers: int
    invalidations: int

    #: Per-progress-point statistics (``{name: {count, first_clock,
    #: last_clock}}``): a causal cell's worker stores its
    #: :class:`~repro.telemetry.progress.ProgressTracker`'s summary here;
    #: ``None`` for every other run.  The causal profiler reports
    #: speedups as progress-rate changes computed from this payload.
    progress_points: Optional[Dict[str, Dict[str, float]]] = None

    #: Inline entries through an elided guard (speculation pass); zero
    #: unless ``costs.speculation_enabled`` (default keeps old cached
    #: cells loadable).
    elided_entries: int = 0
    #: Zero-cost entries through cheap-exit OSR sites and deoptimization
    #: exits taken at them (deopt planner); both zero unless
    #: ``costs.deopt_planning_enabled`` (defaults keep old cached cells
    #: loadable).
    deopt_entries: int = 0
    deopt_exits: int = 0

    @property
    def app_cycles(self) -> float:
        return self.component_cycles[APP]

    def aos_fraction(self) -> float:
        total = self.total_cycles
        if total == 0:
            return 0.0
        return (total - self.component_cycles[APP]) / total


class AdaptiveRuntime:
    """One program execution under the adaptive optimization system."""

    def __init__(self, program: Program,
                 policy: ContextSensitivityPolicy,
                 costs: CostModel = DEFAULT_COSTS,
                 sample_phase: float = 0.0,
                 sinks: Sequence[object] = ()):
        # Verify where the program enters execution: a malformed program
        # fails here, before anything runs, with a VerificationFailure (a
        # ProgramError) naming every finding.  Imported locally, as the
        # planner is below.
        from repro.analysis.verifier import verify_program
        verify_program(program).raise_if_failed()
        self.program = program
        self.policy = policy
        self.costs = costs

        self.hierarchy = ClassHierarchy(program)
        self.code_cache = CodeCache(costs)
        self.accounting = CostAccounting()
        self.database = AOSDatabase()
        self.state = AOSState()

        self.method_listener = MethodListener()
        self.trace_listener = TraceListener(policy)
        self.dcg_organizer = DCGOrganizer(self.state, policy, costs)
        self.ai_organizer = AIOrganizer(self.state, costs)
        self.hot_methods_organizer = HotMethodsOrganizer(self.state, costs)
        self.decay_organizer = DecayOrganizer(self.state, costs)
        # Speculation and deopt planning are strictly opt-in via the cost
        # model.  One planner serves both: it owns the run's speculation
        # analysis and chooses every guarded site's plan.  Its import is
        # local, like the verifier's above (layering: aos may depend on
        # analysis, never the reverse), and the default configuration
        # builds no planner.
        self.planner = None
        if costs.speculation_enabled or costs.deopt_planning_enabled:
            from repro.analysis.deopt import DeoptPlanner
            self.planner = DeoptPlanner(program, self.hierarchy, costs)
        # A policy may supply its own per-compilation oracle (e.g. the
        # static-oracle baseline) via a ``make_oracle`` hook; the stock
        # policies have none and get the profile-directed InlineOracle.
        self.controller = Controller(program, self.hierarchy, self.state,
                                     self.code_cache, self.database, costs,
                                     oracle_factory=getattr(
                                         policy, "make_oracle", None),
                                     planner=self.planner)
        self.missing_edge_organizer = MissingEdgeOrganizer(
            self.state, self.code_cache, self.database, costs)
        self.compilation_thread = CompilationThread(
            program, self.code_cache, self.database, costs)

        self.machine = Machine(program, self.hierarchy, self.code_cache,
                               costs, self.accounting, self._tick)
        self.machine.osr_handler = self._osr_request
        self.machine.class_load_handler = self._on_class_load
        if costs.deopt_planning_enabled:
            # Loop OSR transfers now charge the liveness-derived map-in
            # cost; keyed by statement identity (shared objects).
            self.machine.osr_liveness = self.planner.loop_live_index()
        # Every instrument is an event sink that reads the machine it
        # watches; sinks charge no cycles and change no decisions, so an
        # instrumented run is cycle-identical to a bare one, which keeps
        # NULL_EVENTS and so builds the stock code (DESIGN.md, "Events").
        for sink in sinks:
            sink.machine = self.machine
        self.machine.events = join_sinks(*sinks)

        # ``sample_phase`` (in [0, 1)) offsets the first timer tick, playing
        # the role of Jikes RVM's timer nondeterminism: the paper reports
        # the best of 20 runs precisely because sampling phase shifts the
        # adaptive system's decisions.  Experiments sweep a few phases and
        # aggregate.
        if not is_sample_phase(sample_phase):
            raise ValueError(f"sample_phase must be in [0, 1), "
                             f"got {sample_phase}")
        # Deadlines are compared with the clock as whole centi-cycles:
        # ``*_due`` is ``ceil(CENTI * deadline)`` for a deadline in cycles.
        self._next_sample = float(costs.sample_interval) * (1.0 + sample_phase)
        self._sample_due = ceil(CENTI * self._next_sample)
        self._organizer_due = ceil(
            CENTI * (ORGANIZER_PERIOD * (1.0 + sample_phase)))
        self._decay_due = to_centi(costs.decay_period)
        # Timer ticks jitter around the nominal interval (as real timers
        # do); without jitter, fixed-interval sampling aliases against the
        # workload's loop structure and skews the profile's weight
        # distribution.  Seeded so runs stay reproducible.
        self._timer_rng = random.Random(int(sample_phase * 1_000_003) + 17)

    # -- scheduling --------------------------------------------------------------

    def _tick(self, machine: Machine) -> None:
        clock = machine.clock
        costs = self.costs

        while clock >= self._sample_due:
            self._take_sample(machine)
            self._next_sample += costs.sample_interval \
                * (0.5 + self._timer_rng.random())
            self._sample_due = ceil(CENTI * self._next_sample)
            clock = machine.clock

        if clock >= self._organizer_due:
            self._organizer_wake(machine)
            self._organizer_due = (machine.clock
                                   + to_centi(ORGANIZER_PERIOD))

        if clock >= self._decay_due:
            with span(machine, DECAY_ORGANIZER, "decay_organizer"):
                self.decay_organizer.run(machine)
            on_decay = getattr(machine.events, "decay", None)
            if on_decay is not None:
                on_decay(self.state.dcg.total_weight)
            self._decay_due = machine.clock + to_centi(costs.decay_period)

        machine.next_event = min(self._sample_due, self._organizer_due,
                                 self._decay_due)

    def _take_sample(self, machine: Machine) -> None:
        costs = self.costs
        events = machine.events
        stack = machine.stack
        on_begin = getattr(events, "begin", None)
        if on_begin is not None:
            on_begin(LISTENERS, "sample_tick")
        self.method_listener.sample(stack)
        key = self.trace_listener.sample(stack)
        # Neither listener reads the clock, so both pay in one charge.
        cycles = costs.method_listener_cost
        if key is not None:
            cycles += self.trace_listener.walk_cost(key, costs)
        machine.charge(LISTENERS, cycles)
        on_sample = getattr(events, "sample", None)
        if on_sample is not None:
            on_sample(stack)
        if on_begin is not None:
            events.end(depth=0 if key is None else key.depth)
        # A full trace buffer wakes the DCG organizer early (Section 3.3).
        if len(self.trace_listener.buffer) >= costs.trace_buffer_capacity:
            with span(machine, AI_ORGANIZER, "dcg_organizer",
                      trigger="buffer_full"):
                self.dcg_organizer.run(machine, self.trace_listener)

    def _organizer_wake(self, machine: Machine) -> None:
        fingerprint = self.state.rules_fingerprint
        with span(machine, "scheduler", "organizer_wake"):
            with span(machine, AI_ORGANIZER, "dcg_organizer"):
                self.dcg_organizer.run(machine, self.trace_listener)
            with span(machine, AI_ORGANIZER, "ai_organizer"):
                self.ai_organizer.run(machine)
            on_rules = getattr(machine.events, "rules", None)
            if (on_rules is not None
                    and self.state.rules_fingerprint != fingerprint):
                on_rules(self.state.rules)
            with span(machine, METHOD_ORGANIZER, "hot_methods_organizer"):
                self.hot_methods_organizer.run(machine,
                                               self.method_listener,
                                               self.controller)
            with span(machine, AI_ORGANIZER, "missing_edge_organizer"):
                self.missing_edge_organizer.run(machine, self.controller)
            self.controller.process_events(machine)
            self.compilation_thread.run(machine,
                                        self.controller.compilation_queue)

    # -- OSR ---------------------------------------------------------------------

    def _osr_request(self, method_id: str) -> None:
        """Machine OSR trigger: fire ``osr``, forward to the controller."""
        on_osr = getattr(self.machine.events, "osr", None)
        if on_osr is not None:
            on_osr(method_id)
        self.controller.osr_request(method_id)

    # -- class loading -------------------------------------------------------------

    def _on_class_load(self, class_name: str) -> None:
        """Invalidate compiled code whose CHA devirtualization just broke.

        Loading a class can add dispatch targets to selectors; any
        installed code that unguardedly inlined the previously-unique
        target of such a selector must be discarded.  Pre-existence keeps
        in-flight activations safe; future invocations run baseline until
        the hot-method machinery recompiles against the new hierarchy.
        """
        dependencies = self.database.cha_dependencies()
        for root_id, per_selector in dependencies.items():
            for selector, target_id in per_selector.items():
                allowed = (frozenset((target_id,))
                           if isinstance(target_id, str) else target_id)
                targets = self.hierarchy.loaded_targets(selector)
                if targets and not targets <= allowed:
                    # Only a *successful* invalidation may drop the
                    # root's dependency records: when there is no
                    # installed code to discard (e.g. the compile is
                    # still in flight), clearing here would orphan the
                    # remaining selectors and leave a later class load
                    # unable to ever invalidate this method.
                    removed = self.code_cache.invalidate(root_id)
                    if removed is not None:
                        on_invalidate = getattr(self.machine.events,
                                                "invalidate", None)
                        if on_invalidate is not None:
                            on_invalidate(removed, selector, class_name)
                        self.database.clear_cha_dependencies(root_id)
                        # Deoptimized back to baseline: re-arm OSR so a
                        # still-hot loop can request recompilation.
                        self.machine.on_code_invalidated(root_id)
                    break

    # -- execution ---------------------------------------------------------------

    def run(self, args: Sequence[Value] = ()) -> RunResult:
        """Execute the program to completion; return the collected metrics."""
        self.machine.next_event = min(self._sample_due, self._organizer_due,
                                      self._decay_due)
        machine = self.machine
        value = machine.run(args)
        # Flush whatever the listeners buffered after the last wake, so
        # post-run profile inspection (and the offline-rule experiments)
        # see every sample taken.
        with span(machine, AI_ORGANIZER, "dcg_organizer",
                  trigger="final_flush"):
            self.dcg_organizer.run(machine, self.trace_listener)
        with span(machine, METHOD_ORGANIZER, "hot_methods_organizer",
                  trigger="final_flush"):
            self.hot_methods_organizer.run(machine, self.method_listener,
                                           self.controller)
        return self._result(value)

    def _result(self, value: Value) -> RunResult:
        machine = self.machine
        cache = self.code_cache
        return RunResult(
            program_name=self.program.name,
            policy_name=self.policy.name,
            return_value=value,
            total_cycles=machine.clock / CENTI,
            component_cycles=self.accounting.snapshot(machine.clock),
            opt_code_bytes=cache.opt_code_bytes,
            live_opt_code_bytes=cache.live_opt_code_bytes(),
            opt_compilations=cache.opt_compilations,
            opt_compile_cycles=cache.opt_compile_cycles,
            opt_inlined_bytecodes=cache.opt_inlined_bytecodes,
            classes_loaded=len(self.program.classes),
            methods_compiled=cache.dynamically_compiled_methods,
            bytecodes_compiled=cache.dynamically_compiled_bytecodes,
            samples_taken=self.method_listener.samples_taken,
            traces_recorded=self.trace_listener.samples_taken,
            mean_trace_depth=self.trace_listener.mean_depth(),
            depth_histogram=dict(self.trace_listener.depth_histogram),
            dcg_traces=len(self.state.dcg),
            rule_count=len(self.state.rules),
            refusals=self.database.refusal_count,
            guard_tests=machine.stats.guard_tests,
            guard_misses=machine.stats.guard_misses,
            dispatches=machine.stats.dispatches,
            inline_entries=machine.stats.inline_entries,
            calls=machine.stats.calls,
            osr_transfers=machine.stats.osr_transfers,
            invalidations=cache.invalidated_compilations,
            elided_entries=machine.stats.elided_entries,
            deopt_entries=machine.stats.deopt_entries,
            deopt_exits=machine.stats.deopt_exits,
        )
