"""Guard plans: the one place that decides what runs at a guarded site.

A speculative inline stays sound in one of the ways that form the
protection lattice of "OSR a la carte" (D'Elia & Demetrescu), each a
:class:`~repro.compiler.compiled_method.GuardPlan` kind:

* **full-guard** -- compile the guard chain with an in-code dispatch
  fallback.  Every entry pays guard cycles forever; a miss stays in
  optimized code and pays one dispatch.
* **osr-exit** -- compile the site as an extra OSR point (beyond the
  loop back edges): the fast path pays *no* guard cycles because a
  broken speculation triggers a deoptimization exit that maps the live
  frame state out (``osr_map_out_cost`` per live local, the pruned
  live-state map) and finishes the dispatch at the baseline tier.
* **preexist** -- no guard and no exit: only sound when the receiver
  preexists the activation, so CHA invalidation alone protects every
  entry.
* **exhaustive** -- the last guard of a chain goes: once every earlier
  guard missed, the chosen targets cover every class that can reach
  the site.

(The compiler's dominance pass adds a fifth kind, **dominated**, after
the fact.)  :meth:`DeoptPlanner.plan_site` picks the kind for every
guarded site the oracle inlines, under every setting of
``speculation_enabled``, ``deopt_planning_enabled`` and
``deopt_strategy``, combining three static inputs: the liveness-derived
exit cost (how expensive a mapped exit would be *here*), the
speculation analysis (whether invalidation-protected entry is safe),
and the k-CFA precision lattice (whether the compilation context proves
the site monomorphic, i.e. exits would never be taken).

The runtime builds one planner when either flag is on; it owns the
run's single :class:`~repro.analysis.dataflow.SpeculationAnalysis`.
The oracle and compiler receive it by injection and never import this
module.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.compiler.compiled_method import (FULL_GUARD, PLAN_EXHAUSTIVE,
                                            PLAN_FULL_GUARD, PLAN_OSR_EXIT,
                                            PLAN_PREEXIST, GuardPlan)
from repro.jvm.costs import CostModel, DEFAULT_COSTS, DEOPT_STRATEGIES
from repro.jvm.errors import ConfigError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import MethodDef, Program, Stmt
from repro.provenance.reasons import ReasonCode

from repro.analysis.dataflow import (ACTION_ELIDE, ACTION_REFUSE,
                                     SpeculationAnalysis)
from repro.analysis.liveness import MethodLiveness, method_liveness

__all__ = ["DeoptPlanner"]

#: Guard-free entry protected by CHA invalidation of the sole target.
PREEXIST = GuardPlan(PLAN_PREEXIST,
                     reason=ReasonCode.GUARD_ELIDED_PREEXIST.value)


class DeoptPlanner:
    """Facade combining liveness, speculation risk, and the k-CFA lattice.

    One instance serves one ``(program, hierarchy)`` pair for the life
    of a run.  Liveness summaries are immutable and cached forever; the
    k-CFA graph is built lazily on the first context query (it depends
    only on declared code, not on the load state); speculation queries
    go to :attr:`speculation`, whose caches key on the hierarchy's load
    generation.
    """

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 costs: CostModel = DEFAULT_COSTS, k: int = 1):
        if (costs.deopt_planning_enabled
                and costs.deopt_strategy not in DEOPT_STRATEGIES):
            raise ConfigError(
                f"unknown deopt_strategy {costs.deopt_strategy!r}; "
                f"valid strategies: {', '.join(DEOPT_STRATEGIES)}")
        self._program = program
        self._hierarchy = hierarchy
        self._costs = costs
        self._k = k
        self._liveness: Dict[str, MethodLiveness] = {}
        self._kcfa = None
        #: The strategy in force: ``guard`` whenever planning is off.
        self._strategy = (costs.deopt_strategy
                          if costs.deopt_planning_enabled else "guard")
        #: Whether plans weigh a cheap exit against the guard, so that a
        #: site's profile coverage is evidence for its plan.
        self.plans_exits = self._strategy != "guard"
        self.speculation = SpeculationAnalysis(program, hierarchy, costs)

    # -- liveness ----------------------------------------------------------

    def liveness(self, method: MethodDef) -> MethodLiveness:
        cached = self._liveness.get(method.id)
        if cached is None:
            cached = method_liveness(method)
            self._liveness[method.id] = cached
        return cached

    def loop_live_index(self) -> Dict[int, FrozenSet[int]]:
        """``id(loop_stmt) -> live set`` over every method in the program.

        Statement objects are shared with the executing machine, so this
        is what the interpreter charges OSR map-in costs from and what
        the soundness replay checks transfers against.
        """
        index: Dict[int, FrozenSet[int]] = {}
        for method in self._program.methods():
            index.update(self.liveness(method).loop_live_by_id)
        return index

    def _exit_live(self, stmt: Stmt,
                   comp_context: Sequence[Tuple[str, int]]) -> FrozenSet[int]:
        """Locals live before ``stmt`` in the method enclosing it."""
        if not comp_context:
            return frozenset()
        method = self._program.method(comp_context[0][0])
        return self.liveness(method).site_live.get(stmt.site, frozenset())

    # -- the k-CFA precision input -----------------------------------------

    def _graph(self):
        if self._kcfa is None:
            from repro.analysis.kcfa import build_kcfa_graph
            self._kcfa = build_kcfa_graph(self._program, self._hierarchy,
                                          k=self._k, costs=self._costs)
        return self._kcfa

    def context_monomorphic(self, site: int,
                            comp_context: Sequence[Tuple[str, int]]) -> bool:
        """Does k-CFA prove ``site`` monomorphic under the compilation
        context (the inline chain's call string, innermost first)?

        The head of ``comp_context`` names the method enclosing the
        site and carries the site's own id; the k-CFA context of the
        site is the chain of *caller* sites above it, so only the tail
        contributes to the known call-string prefix.
        """
        known = tuple(frame_site for _method, frame_site in comp_context[1:])
        targets = self._graph().targets_for_prefix(site, known)
        return len(targets) == 1

    # -- planning ----------------------------------------------------------

    def exit_premium(self, live: FrozenSet[int], interface: bool) -> float:
        """Extra cycles a cheap-exit miss pays over a full-guard miss:
        the mapped-out live state plus finishing the dispatch at the
        baseline tier instead of in optimized code."""
        costs = self._costs
        dispatch = (costs.interface_dispatch if interface
                    else costs.virtual_dispatch)
        tier_premium = dispatch * max(
            0.0, costs.baseline_exec_mult - costs.opt_exec_mult)
        return len(live) * costs.osr_map_out_cost + tier_premium

    def plan_site(self, stmt: Stmt,
                  comp_context: Sequence[Tuple[str, int]],
                  targets: Sequence[MethodDef],
                  coverage: float = 1.0,
                  interface: bool = False,
                  loaded_sole: bool = False) -> Optional[GuardPlan]:
        """Choose the guard plan for one guarded site, or ``None`` to
        refuse the inline.

        ``comp_context`` is the compiler's inline chain innermost first
        (its head names the method enclosing ``stmt``); ``targets`` are
        the guarded inline candidates; ``coverage`` is the oracle's
        profile-weight coverage of those targets (the static guard-hit
        estimate); ``loaded_sole`` says the one target is the selector's
        sole loaded implementation rather than a profile choice.

        * ``osr-exit``: every site becomes a cheap exit.
        * ``planned``: a single target the speculation analysis would
          elide runs guard-free (``preexist``); a site k-CFA proves
          monomorphic under the context, or whose expected exit cost
          ``(1 - coverage) * exit_premium`` is at or below one guard
          test, becomes a cheap exit; any other keeps its guards.
        * otherwise (planning off, or the ``guard`` strategy) only the
          speculation analysis, when enabled, removes guards: a
          loaded-sole bind is refused, elided (``preexist``) or guarded
          by its risk and receiver; a multi-target chain whose targets
          cover every class that can reach the site loses its last test
          (``exhaustive``).

        Known defect: under ``planned`` a *single profile target* takes
        the loaded-sole rule.  ``speculate()`` assumes its target is the
        sole loaded implementation -- ``speculate_exhaustive()`` checks
        ``loaded_targets(selector) <= targets``, this rule does not --
        so a preexistent receiver of another class that is already
        loaded enters the wrong body.  The recorded singleton CHA
        dependency fires only on a *later* class load, so nothing
        invalidates that code.
        """
        costs = self._costs
        if self._strategy == "osr-exit":
            return GuardPlan(PLAN_OSR_EXIT,
                             self._exit_live(stmt, comp_context),
                             reason=ReasonCode.DEOPT_PLANNED_OSR.value)
        spec = self.speculation
        if self._strategy == "planned":
            if len(targets) == 1 and spec.speculate(
                    stmt, comp_context, targets[0]).action == ACTION_ELIDE:
                return PREEXIST
            live = self._exit_live(stmt, comp_context)
            ctx_mono = self.context_monomorphic(stmt.site, comp_context)
            expected_exit = ((1.0 - min(max(coverage, 0.0), 1.0))
                             * self.exit_premium(live, interface))
            if ctx_mono or expected_exit <= costs.guard_test:
                return GuardPlan(PLAN_OSR_EXIT, live,
                                 reason=ReasonCode.DEOPT_PLANNED_OSR.value)
            return GuardPlan(PLAN_FULL_GUARD,
                             reason=ReasonCode.DEOPT_PLANNED_GUARD.value)
        if not costs.speculation_enabled:
            return FULL_GUARD
        if loaded_sole:
            action = spec.speculate(stmt, comp_context, targets[0]).action
            if action == ACTION_REFUSE:
                return None
            return PREEXIST if action == ACTION_ELIDE else FULL_GUARD
        if len(targets) >= 2:
            verdict = spec.speculate_exhaustive(stmt, comp_context, targets)
            if verdict.action == ACTION_ELIDE:
                # With a nonempty cone the elision also leans on receiver
                # preexistence: the target set becomes a CHA dependency.
                return GuardPlan(
                    PLAN_EXHAUSTIVE,
                    reason=(ReasonCode.GUARD_ELIDED_PREEXIST.value
                            if verdict.cone_size else None))
        return FULL_GUARD
