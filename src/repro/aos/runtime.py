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
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.aos.controller import CompilationThread, Controller
from repro.aos.cost_accounting import (AI_ORGANIZER, ALL_COMPONENTS, APP,
                                       CONTROLLER, DECAY_ORGANIZER,
                                       LISTENERS, METHOD_ORGANIZER,
                                       CostAccounting)
from repro.aos.database import AOSDatabase
from repro.aos.listeners import (MethodListener, TerminationStatsProbe,
                                 TraceListener)
from repro.aos.organizers import (AIOrganizer, AOSState, DCGOrganizer,
                                  DecayOrganizer, HotMethodsOrganizer,
                                  MissingEdgeOrganizer)
from repro.compiler.code_cache import CodeCache
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import Machine
from repro.jvm.program import Program
from repro.jvm.values import Value
from repro.policies.base import ContextSensitivityPolicy
from repro.provenance.metrics import fold_into_telemetry
from repro.provenance.reasons import EventKind
from repro.provenance.recorder import NULL_PROVENANCE, ProvenanceRecorder
from repro.telemetry.progress import ProgressTracker, instrument_progress
from repro.telemetry.recorder import NULL_RECORDER, TelemetryRecorder


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
    #: last_clock}}``) when the run carried a
    #: :class:`~repro.telemetry.progress.ProgressTracker`; ``None``
    #: otherwise.  The causal profiler reports speedups as
    #: progress-rate changes computed from this payload.
    progress_points: Optional[Dict[str, Dict[str, float]]] = None

    # -- warm-start / fleet metrics (defaults keep old cached cells loadable) --
    #: Clock at which the rule set first became non-empty (0.0 for
    #: warm-started runs, ``None`` when no rule ever surfaced).
    first_rule_clock: Optional[float] = None
    #: Clock of the last optimizing compilation -- the run's
    #: cycles-to-steady-state proxy (``None`` when nothing compiled).
    steady_state_clock: Optional[float] = None
    #: Whether this runtime was bootstrapped from fleet-aggregated
    #: profiles before executing.
    warm_started: bool = False
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
                 probe: Optional[TerminationStatsProbe] = None,
                 sample_phase: float = 0.0,
                 telemetry: Optional[TelemetryRecorder] = None,
                 provenance: Optional[ProvenanceRecorder] = None,
                 progress: Optional[ProgressTracker] = None):
        program.validate()
        self.program = program
        self.policy = policy
        self.costs = costs
        self.probe = probe
        # Telemetry is pure instrumentation (see repro.telemetry): it
        # charges no cycles, so traced and untraced runs are
        # cycle-identical.  The NullRecorder default makes every
        # instrumentation point a no-op.
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        # Decision provenance follows the same contract (see
        # repro.provenance): recording changes no decisions and charges no
        # cycles, so recorded and unrecorded runs are bit-identical.
        self.provenance = (provenance if provenance is not None
                           else NULL_PROVENANCE)

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
        # analysis and chooses every guarded site's plan.  The import is
        # local and gated so the default configuration never touches
        # repro.analysis (layering: aos may depend on analysis, never
        # the reverse).
        self.planner = None
        if costs.speculation_enabled or costs.deopt_planning_enabled:
            from repro.analysis.deopt import DeoptPlanner
            self.planner = DeoptPlanner(program, self.hierarchy, costs)
        # A policy may supply its own per-compilation oracle (e.g. the
        # static-oracle baseline) via a ``make_oracle`` hook; the stock
        # policies have none and get the profile-directed InlineOracle.
        self.controller = Controller(program, self.hierarchy, self.state,
                                     self.code_cache, self.database, costs,
                                     telemetry=self.telemetry,
                                     provenance=self.provenance,
                                     oracle_factory=getattr(
                                         policy, "make_oracle", None),
                                     planner=self.planner)
        self.missing_edge_organizer = MissingEdgeOrganizer(
            self.state, self.code_cache, self.database, costs)
        self.compilation_thread = CompilationThread(
            program, self.hierarchy, self.code_cache, self.database, costs,
            telemetry=self.telemetry, provenance=self.provenance,
            planner=self.planner)

        self.machine = Machine(program, self.hierarchy, self.code_cache,
                               costs, self.accounting, self._tick)
        self.machine.osr_handler = self._osr_request
        self.machine.class_load_handler = self._on_class_load
        if costs.deopt_planning_enabled:
            # Loop OSR transfers now charge the liveness-derived map-in
            # cost; keyed by statement identity (shared objects).
            self.machine.osr_liveness = self.planner.loop_live_index()
        self.machine.telemetry = self.telemetry
        self.code_cache.telemetry = self.telemetry
        self.code_cache.provenance = self.provenance
        self.telemetry.bind(
            lambda: self.machine.clock,
            lambda component: self.accounting.cycles.get(component, 0.0))
        self.provenance.bind(lambda: self.machine.clock)
        # Progress points (see repro.telemetry.progress) are pure
        # instrumentation like telemetry and provenance: marking charges
        # no cycles, so tracked runs stay cycle-identical to untracked
        # ones.  Without a tracker the machine's marking hook stays cold.
        self.progress = progress
        if progress is not None:
            instrument_progress(self.machine, program, progress)

        # ``sample_phase`` (in [0, 1)) offsets the first timer tick, playing
        # the role of Jikes RVM's timer nondeterminism: the paper reports
        # the best of 20 runs precisely because sampling phase shifts the
        # adaptive system's decisions.  Experiments sweep a few phases and
        # aggregate.
        # -- warm-start bookkeeping (see repro.fleet.bootstrap) ----------------
        #: Clock at which the rule set first became non-empty.  Cold runs
        #: discover it at an organizer wake; the fleet bootstrap sets it
        #: to 0.0 when it installs warm rules before execution.
        self.first_rule_clock: Optional[float] = None
        #: True when profile state was seeded from fleet-aggregated data.
        self.warm_started = False
        #: Optional hook called after every periodic organizer wake with
        #: ``(runtime, epoch_index)``.  Pure observation on the host
        #: (Python) side: it is invoked outside any cycle charging, so a
        #: run with an observer stays cycle-identical to one without --
        #: the same zero-overhead contract as telemetry and provenance.
        self.epoch_observer: \
            Optional[Callable[["AdaptiveRuntime", int], None]] = None
        self._epoch = 0

        if not 0.0 <= sample_phase < 1.0:
            raise ValueError(f"sample_phase must be in [0, 1), "
                             f"got {sample_phase}")
        self._next_sample = float(costs.sample_interval) * (1.0 + sample_phase)
        self._next_organizer = float(costs.organizer_period) \
            * (1.0 + sample_phase)
        self._next_decay = float(costs.decay_period)
        # Timer ticks jitter around the nominal interval (as real timers
        # do); without jitter, fixed-interval sampling aliases against the
        # workload's loop structure and skews the profile's weight
        # distribution.  Seeded so runs stay reproducible.
        self._timer_rng = random.Random(int(sample_phase * 1_000_003) + 17)

    # -- scheduling --------------------------------------------------------------

    def _tick(self, machine: Machine) -> None:
        clock = machine.clock
        costs = self.costs

        while clock >= self._next_sample:
            self._take_sample(machine)
            self._next_sample += costs.sample_interval \
                * (0.5 + self._timer_rng.random())
            clock = machine.clock

        if clock >= self._next_organizer:
            self._organizer_wake(machine)
            self._next_organizer = machine.clock + costs.organizer_period

        if clock >= self._next_decay:
            with self.telemetry.span(DECAY_ORGANIZER, "decay_organizer"):
                self.decay_organizer.run(machine)
            self._next_decay = machine.clock + costs.decay_period

        machine.next_event = min(self._next_sample, self._next_organizer,
                                 self._next_decay)

    def _take_sample(self, machine: Machine) -> None:
        costs = self.costs
        telemetry = self.telemetry
        stack = machine.stack
        span_id = telemetry.begin_span(LISTENERS, "sample_tick")
        self.method_listener.sample(stack)
        machine.charge(LISTENERS, costs.method_listener_cost)
        key = self.trace_listener.sample(stack)
        if key is not None:
            machine.charge(LISTENERS,
                           self.trace_listener.walk_cost(key, costs))
        if self.probe is not None:
            self.probe.sample(stack)
        telemetry.end_span(span_id,
                           depth=0 if key is None else key.depth)
        # A full trace buffer wakes the DCG organizer early (Section 3.3).
        if len(self.trace_listener.buffer) >= costs.trace_buffer_capacity:
            with telemetry.span(AI_ORGANIZER, "dcg_organizer",
                                trigger="buffer_full"):
                self.dcg_organizer.run(machine, self.trace_listener)

    def _organizer_wake(self, machine: Machine) -> None:
        telemetry = self.telemetry
        fingerprint = self.state.rules_fingerprint
        wake_id = telemetry.begin_span("scheduler", "organizer_wake")
        with telemetry.span(AI_ORGANIZER, "dcg_organizer"):
            self.dcg_organizer.run(machine, self.trace_listener)
        with telemetry.span(AI_ORGANIZER, "ai_organizer"):
            self.ai_organizer.run(machine)
        with telemetry.span(METHOD_ORGANIZER, "hot_methods_organizer"):
            self.hot_methods_organizer.run(machine, self.method_listener,
                                           self.controller)
        with telemetry.span(AI_ORGANIZER, "missing_edge_organizer"):
            self.missing_edge_organizer.run(machine, self.controller)
        self.controller.process_events(machine)
        self.compilation_thread.run(machine,
                                    self.controller.compilation_queue)
        if self.state.rules_fingerprint != fingerprint:
            telemetry.instant(AI_ORGANIZER, "rules_changed",
                              rules=len(self.state.rules))
        if self.first_rule_clock is None and self.state.rules:
            self.first_rule_clock = machine.clock
        telemetry.end_span(wake_id)
        self._epoch += 1
        if self.epoch_observer is not None:
            self.epoch_observer(self, self._epoch)

    # -- OSR ---------------------------------------------------------------------

    def _osr_request(self, method_id: str) -> None:
        """Machine OSR trigger: note the event, forward to the controller."""
        self.telemetry.instant(CONTROLLER, "osr_request", method=method_id)
        self.provenance.event(EventKind.OSR, method_id)
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
                    if self.code_cache.invalidate(
                            root_id, selector=selector,
                            loaded_class=class_name):
                        self.database.log_invalidation(
                            root_id, selector, self.machine.clock)
                        self.telemetry.instant(
                            CONTROLLER, "invalidation", method=root_id,
                            selector=selector, loaded_class=class_name)
                        self.database.clear_cha_dependencies(root_id)
                        # Deoptimized back to baseline: re-arm OSR so a
                        # still-hot loop can request recompilation.
                        self.machine.on_code_invalidated(root_id)
                    break

    # -- execution ---------------------------------------------------------------

    def run(self, args: Sequence[Value] = ()) -> RunResult:
        """Execute the program to completion; return the collected metrics."""
        self.machine.next_event = min(self._next_sample, self._next_organizer,
                                      self._next_decay)
        value = self.machine.run(args)
        # Flush whatever the listeners buffered after the last wake, so
        # post-run profile inspection (and the offline-rule experiments)
        # see every sample taken.
        with self.telemetry.span(AI_ORGANIZER, "dcg_organizer",
                                 trigger="final_flush"):
            self.dcg_organizer.run(self.machine, self.trace_listener)
        with self.telemetry.span(METHOD_ORGANIZER, "hot_methods_organizer",
                                 trigger="final_flush"):
            self.hot_methods_organizer.run(self.machine,
                                           self.method_listener,
                                           self.controller)
        if self.provenance.enabled:
            # Fold the derived provenance metrics (dilution ratio, guard
            # eliminations, refusal histogram) into telemetry gauges so
            # they land in snapshots and the Chrome-trace export.
            fold_into_telemetry(self.provenance.decisions, self.telemetry)
        return self._result(value)

    def _result(self, value: Value) -> RunResult:
        machine = self.machine
        cache = self.code_cache
        return RunResult(
            program_name=self.program.name,
            policy_name=self.policy.name,
            return_value=value,
            total_cycles=machine.clock,
            component_cycles=self.accounting.snapshot(),
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
            invalidations=self.database.invalidation_count,
            elided_entries=machine.stats.elided_entries,
            deopt_entries=machine.stats.deopt_entries,
            deopt_exits=machine.stats.deopt_exits,
            progress_points=(self.progress.summary()
                             if self.progress is not None else None),
            first_rule_clock=self.first_rule_clock,
            steady_state_clock=(self.database.compilations[-1].clock
                                if self.database.compilations else None),
            warm_started=self.warm_started,
        )
