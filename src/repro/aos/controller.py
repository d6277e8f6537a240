"""The AOS controller and compilation thread (paper Section 3.2).

The controller is the decision-making component: it reads organizer events
and uses an analytic cost/benefit model (in the style of Arnold et al.,
OOPSLA 2000) to decide what to recompile.  Approved decisions become
compilation plans -- each carrying an :class:`~repro.compiler.oracle.
InlineOracle` that encapsulates the inlining rules current at plan-creation
time -- and the compilation thread executes them, charging compile cycles
and installing the new code.

Analytic model.  A method with ``S`` timer samples has executed for about
``S * sample_interval`` cycles.  Assuming the program continues to behave
as it has so far (the standard online assumption; the paper stresses that
online decisions cannot see the future), the method's *future* time equals
its past time.  Recompiling at the optimizing tier is worthwhile when::

    compile_cost  <  future_time * (1 - 1/estimated_speedup)

where ``compile_cost`` scales with the method's size (times an expansion
allowance for inlining).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, NamedTuple, Set

from repro.aos.cost_accounting import COMPILATION, CONTROLLER
from repro.aos.database import AOSDatabase
from repro.aos.organizers import AOSState, MAX_OPT_VERSIONS
from repro.compiler.code_cache import CodeCache
from repro.compiler.opt_compiler import OptCompiler
from repro.compiler.oracle import InlineOracle
from repro.jvm.costs import FIRST_COMPILE_MIN_WEIGHT, CostModel, to_centi
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import Program

#: Inlining typically grows the compiled size; the controller's cost model
#: assumes this expansion factor when estimating compile cost up front.
EXPANSION_GUESS = 1.6


class CompilationPlan(NamedTuple):
    """One approved recompilation, ready for the compilation thread."""

    method_id: str
    oracle: InlineOracle
    version: int
    rules_fingerprint: int
    reason: str


class Controller:
    """Reads organizer events, applies the analytic model, emits plans."""

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 state: AOSState, code_cache: CodeCache,
                 database: AOSDatabase, costs: CostModel,
                 oracle_factory=None, planner=None):
        self._program = program
        self._hierarchy = hierarchy
        self._state = state
        self._code_cache = code_cache
        self._database = database
        self._costs = costs
        #: Optional guard planner handed to every *stock* oracle.
        #: Factory-made oracles (static policies) keep their fixed keyword
        #: contract and never see it.
        self._planner = planner
        #: Optional hook replacing the stock :class:`InlineOracle` for
        #: every compilation plan.  Called with the same keyword wiring
        #: the stock oracle receives (refusal and CHA-dependency sinks);
        #: policies expose it as ``make_oracle`` so e.g. the static
        #: oracle rides the unmodified controller.
        self._oracle_factory = oracle_factory

        self._hot_events: Dict[str, float] = {}
        self._missing_edge_events: Set[str] = set()
        self._osr_events: Set[str] = set()
        #: Clock (centi-cycles) of each method's last compilation plan.
        self._last_plan_clock: Dict[str, int] = {}
        self.compilation_queue: Deque[CompilationPlan] = deque()

    # -- event intake (called by organizers) -----------------------------------

    def method_is_hot(self, method_id: str, samples: float) -> None:
        self._hot_events[method_id] = samples

    def recompile_for_missing_edge(self, method_id: str) -> None:
        self._missing_edge_events.add(method_id)

    def osr_request(self, method_id: str) -> None:
        """A baseline loop crossed the OSR back-edge threshold.

        Long-running loops hide from invocation-biased timer sampling, so
        the back-edge trigger bypasses the sample-count model: the loop
        has *proved* it is hot.  The compilation itself still happens on
        the compilation thread at the next organizer wake, and the running
        loop transfers onto the new code when it polls (on-stack
        replacement).
        """
        self._osr_events.add(method_id)

    # -- decision making ----------------------------------------------------------

    def process_events(self, machine) -> int:
        """Evaluate pending events; enqueue approved compilation plans."""
        costs = self._costs
        created = 0

        hot_events = sorted(self._hot_events.items())
        self._hot_events.clear()
        missing = sorted(self._missing_edge_events)
        self._missing_edge_events.clear()
        osr = sorted(self._osr_events)
        self._osr_events.clear()

        events = len(hot_events) + len(missing) + len(osr)
        on_begin = None
        if events:
            on_begin = getattr(machine.events, "begin", None)
            if on_begin is not None:
                on_begin(CONTROLLER, "process_events", events=events)
            machine.charge(CONTROLLER, events * costs.controller_event_cost)
        on_deferred = getattr(machine.events, "plan_deferred", None)

        for method_id, samples in hot_events:
            if method_id in self._code_cache.installed:
                continue  # already optimized; missing-edge path handles more
            if self._approve_first_compile(method_id, samples):
                self._enqueue_plan(machine, method_id, "hot")
                created += 1
            elif on_deferred is not None:
                immature = (self._state.dcg.total_weight
                            < FIRST_COMPILE_MIN_WEIGHT)
                on_deferred(method_id, trigger="hot",
                            why="immature_profile" if immature
                            else "unprofitable", samples=samples)

        for method_id in osr:
            if method_id in self._code_cache.installed:
                continue
            self._enqueue_plan(machine, method_id, "osr")
            created += 1

        for method_id in missing:
            compiled = self._code_cache.installed.get(method_id)
            if compiled is None:
                # Became a candidate before ever being optimized; treat as hot.
                self._enqueue_plan(machine, method_id, "missing_edge")
                created += 1
                continue
            if compiled.version >= MAX_OPT_VERSIONS:
                if on_deferred is not None:
                    on_deferred(method_id, trigger="missing_edge",
                                why="max_versions", version=compiled.version)
                continue
            if compiled.rules_fingerprint == self._state.rules_fingerprint:
                continue  # installed code already reflects the rules
            # Rate-limit profile-driven recompilation of any one method.
            last = self._last_plan_clock.get(method_id)
            if (last is not None and machine.clock - last
                    < to_centi(costs.recompile_cooldown)):
                if on_deferred is not None:
                    on_deferred(method_id, trigger="missing_edge",
                                why="cooldown")
                continue
            self._enqueue_plan(machine, method_id, "missing_edge")
            created += 1

        if on_begin is not None:
            machine.events.end(plans=created)
        return created

    def _approve_first_compile(self, method_id: str, samples: float) -> bool:
        costs = self._costs
        # Wait for the profile to mature: optimizing against a half-formed
        # rule set just schedules a missing-edge recompile moments later.
        if self._state.dcg.total_weight < FIRST_COMPILE_MIN_WEIGHT:
            return False
        method = self._program.method(method_id)
        future_time = samples * costs.sample_interval
        speedup = costs.estimated_opt_speedup
        benefit = future_time * (1.0 - 1.0 / speedup)
        compile_cost = (method.bytecodes * EXPANSION_GUESS
                        * costs.opt_compile_cycles_per_bc)
        return benefit > compile_cost

    def _enqueue_plan(self, machine, method_id: str, reason: str) -> None:
        state = self._state
        database = self._database
        self._last_plan_clock[method_id] = machine.clock
        if self._oracle_factory is not None:
            oracle = self._oracle_factory(
                self._program, self._hierarchy, self._costs,
                on_refusal=database.record_refusal,
                on_cha_dependency=database.record_cha_dependency)
        else:
            oracle = InlineOracle(
                self._program, self._hierarchy, self._costs, state.rules,
                on_refusal=database.record_refusal, dcg=state.dcg,
                on_cha_dependency=database.record_cha_dependency,
                planner=self._planner)
        plan = CompilationPlan(
            method_id=method_id,
            oracle=oracle,
            version=self._code_cache.next_version(method_id),
            rules_fingerprint=state.rules_fingerprint,
            reason=reason)
        on_plan = getattr(machine.events, "plan", None)
        if on_plan is not None:
            on_plan(plan, len(state.rules))
        self.compilation_queue.append(plan)


class CompilationThread:
    """Executes compilation plans and installs the resulting code."""

    def __init__(self, program: Program, code_cache: CodeCache,
                 database: AOSDatabase, costs: CostModel):
        self._compiler = OptCompiler(costs)
        self._program = program
        self._code_cache = code_cache
        self._database = database

    def run(self, machine, queue: Deque[CompilationPlan]) -> None:
        events = machine.events
        on_begin = getattr(events, "begin", None)
        on_decision = getattr(events, "decision", None)
        on_compile = getattr(events, "compile", None)
        while queue:
            plan = queue.popleft()
            method = self._program.method(plan.method_id)
            # Fresh code records fresh CHA dependencies; drop the old set.
            self._database.clear_cha_dependencies(plan.method_id)
            if on_begin is not None:
                on_begin(COMPILATION, "opt_compile", method=plan.method_id,
                         version=plan.version, reason=plan.reason)
            compiled = self._compiler.compile(
                method, plan.oracle, plan.version, plan.rules_fingerprint,
                on_decision=on_decision)
            machine.charge(COMPILATION, compiled.compile_cycles)
            replaced = self._code_cache.install(compiled)
            if on_begin is not None:
                events.end(self_cycles=compiled.compile_cycles,
                           inlined_bytecodes=compiled.inlined_bytecodes,
                           code_bytes=compiled.code_bytes,
                           inline_nodes=compiled.inline_node_count(),
                           guards=compiled.guard_count(),
                           guards_elided=compiled.elided_guard_count())
            if on_compile is not None:
                on_compile(plan, compiled, replaced)
