"""The inline oracle: policy module deciding what gets inlined where.

Jikes RVM cleanly separates inlining *mechanism* (the optimizing compiler)
from inlining *policy* (the oracle the compiler consults per call site);
this module is the policy side (paper Section 3.1).  One oracle class
serves both context-insensitive and context-sensitive configurations --
the difference is entirely in the depth of the
:class:`~repro.profiles.trace.InlineRule` contexts it is constructed with,
exactly as in the paper's implementation.

Static heuristics (applied before any profile data):

* **tiny** statically-bound callees are always inlined (depth-capped);
* **small** statically-bound callees are inlined subject to the code
  expansion budget and depth limit;
* **medium** callees are inlined only when a hot profile rule predicts
  them;
* **large** callees are never inlined (and the refusal is recorded in the
  AOS database so the missing-edge organizer stops recommending them).

Profile data additionally enables **guarded inlining** at virtual sites
that class hierarchy analysis cannot bind, using the paper's Equation-3
partial-context match plus intersection-of-target-sets to pick targets.
What runs at a guarded site -- which guard tests stay, what a miss does
-- is not the oracle's choice: it asks the injected
:class:`~repro.analysis.deopt.DeoptPlanner` for the site's
:class:`~repro.compiler.compiled_method.GuardPlan` (every test kept when
no planner is attached) and records the dependency a plan resting on
CHA invalidation assumes.

Every verdict carries a :class:`~repro.provenance.reasons.ReasonCode` --
a closed vocabulary instead of free text -- plus the evidence behind it
(size class, size estimate, Equation-3 coverage, profile weight, guard
kind), and is reported to the compilation's
:class:`~repro.provenance.recorder.ProvenanceRecorder` when one is
attached.  Recording is pure instrumentation: it changes no decisions
and charges no cycles.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler.compiled_method import (FULL_GUARD, PLAN_PREEXIST,
                                            GuardPlan)
from repro.compiler.size_estimator import (SizeClass, classify,
                                           count_constant_args,
                                           estimate_inlined_bytecodes)
from repro.jvm.costs import CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (E_ARG, InterfaceCall, MethodDef, Program,
                               StaticCall, VirtualCall)
from repro.profiles.partial_match import candidate_targets, contexts_compatible
from repro.profiles.trace import ORIGIN_FLEET, Context, InlineRule
from repro.provenance.reasons import (GUARD_CLASS_TEST, GUARD_METHOD_TEST,
                                      GUARD_PREEXISTENCE, ReasonCode,
                                      VERDICT_DIRECT, VERDICT_GUARDED,
                                      VERDICT_REFUSED, reason_value)
from repro.provenance.recorder import NULL_PROVENANCE
from repro.telemetry.recorder import NULL_RECORDER

#: Refusal reasons that are permanent for a given rule set and therefore
#: recorded in the AOS database (the missing-edge organizer must not keep
#: recommending recompilation for them).  Derived from the closed
#: :class:`ReasonCode` vocabulary so the two cannot drift.
RECORDED_REFUSALS = (ReasonCode.LARGE.value, ReasonCode.SPACE.value,
                     ReasonCode.BUDGET.value, ReasonCode.RECURSIVE.value)

#: Callback signature: (caller_id, site, callee_id, reason).
RefusalSink = Callable[[str, int, str, str], None]

#: Callback signature: (root_id, selector, target_id) -- a loaded-world CHA
#: devirtualization this compiled code depends on.
DependencySink = Callable[[str, str, str], None]


def build_site_trace_index(dcg) -> Dict[Tuple[str, int], list]:
    """Index DCG traces by their innermost (caller, site) edge."""
    index: Dict[Tuple[str, int], list] = {}
    for key, weight in dcg.items():
        index.setdefault(key.context[0], []).append((key, weight))
    return index


def guard_coverage(site_traces, comp_context: Context, chosen) -> float:
    """Fraction of context-applicable dispatches the chosen targets cover.

    ``site_traces`` is the (key, weight) list for one call site from
    :func:`build_site_trace_index`.  Returns 1.0 when there is no
    applicable data (nothing contradicts the choice).
    """
    total = 0.0
    covered = 0.0
    for key, weight in site_traces:
        if not contexts_compatible(key.context, comp_context):
            continue
        total += weight
        if key.callee in chosen:
            covered += weight
    if total <= 0.0:
        return 1.0
    return covered / total


class Decision:
    """The oracle's answer for one call site, with its evidence.

    ``reason`` is always a :class:`ReasonCode` value (the stable string,
    normalized in the constructor).  The evidence fields (``size_class``,
    ``estimate``, ``coverage``, ``weight``, ``guard_kind``) are filled in
    by whichever oracle branch produced the verdict and flow into the
    decision-provenance records; they never influence the verdict itself.
    """

    __slots__ = ("inline", "guarded", "targets", "reason", "size_class",
                 "estimate", "coverage", "weight", "guard_kind", "plan")

    def __init__(self, inline: bool, guarded: bool = False,
                 targets: Sequence[MethodDef] = (), reason: str = "", *,
                 size_class=None, estimate: Optional[int] = None,
                 coverage: Optional[float] = None,
                 weight: Optional[float] = None,
                 guard_kind: Optional[str] = None,
                 plan: Optional[GuardPlan] = None):
        self.inline = inline
        self.guarded = guarded
        self.targets = tuple(targets)
        self.reason = reason_value(reason)
        self.size_class = getattr(size_class, "value", size_class)
        self.estimate = estimate
        self.coverage = coverage
        self.weight = weight
        self.guard_kind = guard_kind
        #: What runs at the site for a guarded verdict (``None``
        #: otherwise).  A plan that compiles guard tests out keeps the
        #: verdict "guarded": elision changes cost, not outcome.
        self.plan = plan

    @property
    def verdict(self) -> str:
        """The provenance verdict string: direct / guarded / refused."""
        if not self.inline:
            return VERDICT_REFUSED
        return VERDICT_GUARDED if self.guarded else VERDICT_DIRECT

    @classmethod
    def no(cls, reason: str, **evidence) -> "Decision":
        return cls(False, reason=reason, **evidence)

    @classmethod
    def direct(cls, target: MethodDef, reason: str = "",
               **evidence) -> "Decision":
        return cls(True, guarded=False, targets=(target,), reason=reason,
                   **evidence)

    @classmethod
    def guarded_inline(cls, targets: Sequence[MethodDef],
                       reason: str = ReasonCode.PROFILE,
                       plan: GuardPlan = FULL_GUARD,
                       **evidence) -> "Decision":
        return cls(True, guarded=True, targets=targets, reason=reason,
                   plan=plan, **evidence)

    def __repr__(self) -> str:
        """Stable rendering derived from the verdict and reason code."""
        if not self.inline:
            return f"<Decision refused:{self.reason}>"
        kind = "guarded" if self.guarded else "direct"
        targets = ",".join(t.id for t in self.targets)
        return f"<Decision {kind}:{self.reason} [{targets}]>"


class InlineOracle:
    """Profile-directed inlining policy over a fixed rule set.

    The oracle is constructed per compilation plan (as in Jikes RVM, where
    a compilation plan carries an Inlining Oracle object encapsulating the
    applicable rules) and is therefore immutable during one compilation.
    """

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 costs: CostModel, rules: Sequence[InlineRule] = (),
                 on_refusal: Optional[RefusalSink] = None,
                 dcg=None,
                 on_cha_dependency: Optional[DependencySink] = None,
                 telemetry=NULL_RECORDER,
                 provenance=NULL_PROVENANCE,
                 planner=None):
        self._program = program
        self._hierarchy = hierarchy
        self._costs = costs
        self._on_refusal = on_refusal
        self._on_cha_dependency = on_cha_dependency
        self._telemetry = telemetry
        self._provenance = provenance
        #: Optional :class:`repro.analysis.deopt.DeoptPlanner` (duck-typed:
        #: ``plan_site`` and ``plans_exits``), the one place that chooses
        #: every guarded site's plan.  ``None`` -- the default, and the
        #: only configuration subclass oracles use -- keeps every guard.
        self._planner = planner
        #: Optional read-only view of the dynamic call graph, used for the
        #: guard-coverage (receiver-skew) test.  ``None`` disables the test
        #: (useful for unit tests of the pure rule logic).
        self._dcg = dcg
        self._site_traces = None  # lazily built (caller, site) index
        # Pre-index rules by the innermost (caller, site) edge: a rule can
        # only ever apply to the call site it names.
        self._rules_by_site: Dict[Tuple[str, int], List[InlineRule]] = {}
        for rule in rules:
            edge = rule.context[0]
            self._rules_by_site.setdefault(edge, []).append(rule)
        self.rule_count = len(tuple(rules))

    # -- public API ----------------------------------------------------------

    def decide(self, stmt, comp_context: Context, depth: int,
               current_size: int, root: MethodDef) -> Decision:
        """Decide inlining for one call statement.

        ``comp_context`` is the innermost-first chain of (method, site)
        pairs ending at the compilation root -- the context available at
        compile time for Equation-3 matching.  ``current_size`` is the
        bytecodes already committed to this compilation, ``depth`` the
        inline nesting depth of the site.
        """
        if isinstance(stmt, StaticCall):
            site_kind, selector = "static", stmt.target
            decision = self._decide_static(stmt, comp_context, depth,
                                           current_size, root)
        elif isinstance(stmt, (VirtualCall, InterfaceCall)):
            site_kind = ("interface" if isinstance(stmt, InterfaceCall)
                         else "virtual")
            selector = stmt.selector
            decision = self._decide_virtual(stmt, comp_context, depth,
                                            current_size, root)
        else:
            raise TypeError(f"not a call statement: {stmt!r}")
        self._telemetry.count("oracle.decisions")
        if decision.inline:
            self._telemetry.count("oracle.inlines.guarded" if decision.guarded
                                  else "oracle.inlines.direct")
        if self._provenance.enabled:
            caller_id, site = comp_context[0]
            self._provenance.decision(
                root=root.id, caller=caller_id, site=site, depth=depth,
                site_kind=site_kind, selector=selector,
                verdict=decision.verdict, reason=decision.reason,
                context=comp_context,
                targets=[t.id for t in decision.targets],
                size_class=decision.size_class,
                size_estimate=decision.estimate,
                current_size=current_size, coverage=decision.coverage,
                guard_kind=decision.guard_kind,
                profile_weight=decision.weight)
        return decision

    def profile_predicts(self, caller_id: str, site: int,
                         comp_context: Context) -> Dict[str, float]:
        """Profile candidates for a site under Eq. 3 + set intersection."""
        rules = self._rules_by_site.get((caller_id, site))
        if not rules:
            return {}
        return candidate_targets(rules, comp_context)

    def _profile_reason(self, default: ReasonCode, caller_id: str, site: int,
                        comp_context: Context, target_ids) -> ReasonCode:
        """FLEET_WARM when the prediction rests only on fleet-origin rules.

        A profile-driven verdict gets the ``fleet-warm`` reason code when
        every Eq.-3-applicable rule naming one of the chosen targets was
        seeded from fleet-aggregated profiles rather than this runtime's
        own samples -- the decision is then attributable to the warm
        start.  Once any local rule corroborates the target, the stock
        reason returns, so cold runs are byte-identical to pre-fleet
        builds (their rules are all local).
        """
        rules = self._rules_by_site.get((caller_id, site))
        if not rules:
            return default
        relevant = [r for r in rules
                    if r.callee in target_ids
                    and contexts_compatible(r.context, comp_context)]
        if relevant and all(r.origin == ORIGIN_FLEET for r in relevant):
            return ReasonCode.FLEET_WARM
        return default

    # -- static (and statically-bound virtual) calls --------------------------

    def _decide_static(self, stmt: StaticCall, comp_context: Context,
                       depth: int, current_size: int,
                       root: MethodDef) -> Decision:
        target = self._program.method(stmt.target)
        return self._decide_bound(target, stmt, comp_context, depth,
                                  current_size, root)

    def _decide_bound(self, target: MethodDef, stmt, comp_context: Context,
                      depth: int, current_size: int,
                      root: MethodDef) -> Decision:
        """Shared path for statically-bound callees (no guard needed)."""
        costs = self._costs
        caller_id, site = comp_context[0]

        if self._is_recursive(target, comp_context, root):
            return self._refuse(caller_id, site, target.id,
                                ReasonCode.RECURSIVE)
        if depth >= costs.max_inline_depth:
            return Decision.no(ReasonCode.DEPTH)

        const_args = count_constant_args(stmt.args)
        size_class = classify(target, costs, const_args)
        if size_class is SizeClass.LARGE:
            return self._refuse(caller_id, site, target.id, ReasonCode.LARGE,
                                size_class=size_class)

        estimate = estimate_inlined_bytecodes(target, const_args)
        if current_size + estimate > costs.absolute_size_cap:
            return self._refuse(caller_id, site, target.id, ReasonCode.SPACE,
                                size_class=size_class, estimate=estimate)

        if size_class is SizeClass.TINY:
            return Decision.direct(target, ReasonCode.TINY,
                                   size_class=size_class, estimate=estimate)

        predicted = self.profile_predicts(caller_id, site, comp_context)
        if size_class is SizeClass.SMALL:
            budget = max(root.bytecodes * costs.space_expansion_factor,
                         4.0 * costs.small_limit)
            if current_size + estimate <= budget:
                return Decision.direct(target, ReasonCode.SMALL,
                                       size_class=size_class,
                                       estimate=estimate)
            # Past the normal limits: profile data may still force it
            # (paper Section 3.1, third profile use).
            if target.id in predicted:
                reason = self._profile_reason(
                    ReasonCode.SMALL_HOT, caller_id, site, comp_context,
                    {target.id})
                return Decision.direct(target, reason,
                                       size_class=size_class,
                                       estimate=estimate,
                                       weight=predicted[target.id])
            return self._refuse(caller_id, site, target.id, ReasonCode.BUDGET,
                                size_class=size_class, estimate=estimate)

        # MEDIUM: profile-directed only.
        if target.id in predicted:
            reason = self._profile_reason(
                ReasonCode.MEDIUM_HOT, caller_id, site, comp_context,
                {target.id})
            return Decision.direct(target, reason,
                                   size_class=size_class, estimate=estimate,
                                   weight=predicted[target.id])
        return Decision.no(ReasonCode.NO_PROFILE, size_class=size_class,
                           estimate=estimate)

    # -- virtual calls ---------------------------------------------------------

    def _decide_virtual(self, stmt: VirtualCall, comp_context: Context,
                        depth: int, current_size: int,
                        root: MethodDef) -> Decision:
        declared_sole = self._hierarchy.sole_implementation(stmt.selector)
        if declared_sole is not None:
            # Closed-world CHA: no class that could ever load overrides
            # this, so the binding needs neither guard nor dependency.
            return self._decide_bound(declared_sole, stmt, comp_context,
                                      depth, current_size, root)

        loaded_sole = self._hierarchy.sole_loaded_target(stmt.selector)
        if loaded_sole is not None:
            # Loaded-world CHA (class analysis over classes instantiated so
            # far).  Sound today, breakable by future class loading:
            #
            # * a receiver that *pre-exists* the activation (flows in as a
            #   parameter) lets us inline without a guard -- in-flight
            #   activations stay safe when a conflicting class loads, and
            #   the recorded dependency gets the code invalidated for
            #   future invocations (Detlefs & Agesen's pre-existence);
            # * any other receiver might be an instance of a class loaded
            #   *during* the activation, so the inline goes behind a
            #   method-test guard, under the planner's guard plan.
            decision = self._decide_bound(loaded_sole, stmt, comp_context,
                                          depth, current_size, root)
            if not decision.inline:
                return decision
            if stmt.receiver.kind == E_ARG and depth == 0:
                # Pre-existence holds only for parameters of the *root*
                # activation: once this body is inlined into a caller, its
                # Arg slots map to the caller's locals, which may hold
                # objects allocated during the activation.
                if self._on_cha_dependency is not None:
                    self._on_cha_dependency(root.id, stmt.selector,
                                            loaded_sole.id)
                decision.guard_kind = GUARD_PREEXISTENCE
                return decision
            coverage = None
            if self._planner is not None and self._planner.plans_exits:
                # No skew test applies to a loaded-sole bind; its coverage
                # is evidence only when the plan weighs a cheap exit.
                caller_id, site = comp_context[0]
                coverage = self._coverage(caller_id, site, comp_context,
                                          {loaded_sole.id})
            return self._guarded(
                stmt, comp_context, [loaded_sole], root, decision.reason,
                GUARD_METHOD_TEST, coverage, loaded_sole=True,
                size_class=decision.size_class, estimate=decision.estimate,
                weight=decision.weight)

        costs = self._costs
        caller_id, site = comp_context[0]
        if depth >= costs.max_inline_depth:
            return Decision.no(ReasonCode.DEPTH)

        predicted = self.profile_predicts(caller_id, site, comp_context)
        if not predicted:
            return Decision.no(ReasonCode.NO_PROFILE)

        const_args = count_constant_args(stmt.args)
        survivors: List[Tuple[MethodDef, float]] = []
        total_estimate = 0
        running_size = current_size
        for callee_id, weight in sorted(predicted.items(),
                                        key=lambda kv: (-kv[1], kv[0])):
            try:
                target = self._program.method(callee_id)
            except Exception:
                continue
            if self._is_recursive(target, comp_context, root):
                self._record(caller_id, site, target.id,
                             ReasonCode.RECURSIVE)
                continue
            size_class = classify(target, costs, const_args)
            if size_class is SizeClass.LARGE:
                self._record(caller_id, site, target.id, ReasonCode.LARGE)
                continue
            estimate = estimate_inlined_bytecodes(target, const_args)
            if running_size + estimate > costs.absolute_size_cap:
                self._record(caller_id, site, target.id, ReasonCode.SPACE)
                continue
            survivors.append((target, weight))
            running_size += estimate
            total_estimate += estimate
            if len(survivors) >= costs.max_guarded_targets:
                break

        if not survivors:
            return Decision.no(ReasonCode.NO_ELIGIBLE_TARGET)
        coverage = self._coverage(caller_id, site, comp_context,
                                  {t.id for t, _w in survivors})
        if coverage is not None and coverage < costs.guard_coverage_min:
            return Decision.no(ReasonCode.UNSKEWED, coverage=coverage,
                               estimate=total_estimate,
                               weight=sum(w for _t, w in survivors))
        reason = self._profile_reason(
            ReasonCode.PROFILE, caller_id, site, comp_context,
            {t.id for t, _w in survivors})
        return self._guarded(
            stmt, comp_context, [t for t, _w in survivors], root, reason,
            GUARD_CLASS_TEST, coverage, estimate=total_estimate,
            weight=sum(w for _t, w in survivors))

    # -- guard plans -----------------------------------------------------------

    def _guarded(self, stmt, comp_context: Context,
                 targets: Sequence[MethodDef], root: MethodDef, reason,
                 guard_kind: str, coverage: Optional[float],
                 loaded_sole: bool = False, **evidence) -> Decision:
        """A guarded verdict for ``targets`` under the planner's plan.

        A ``None`` plan refuses the inline (its invalidation risk is too
        high).  A plan whose reason is ``guard-elided-preexist`` rests on
        CHA invalidation, so the dependency it assumes is recorded: the
        sole target, or the whole target set of an exhaustive plan.
        """
        plan = FULL_GUARD
        if self._planner is not None:
            plan = self._planner.plan_site(
                stmt, comp_context, targets,
                coverage=1.0 if coverage is None else coverage,
                interface=isinstance(stmt, InterfaceCall),
                loaded_sole=loaded_sole)
            if plan is None:
                return Decision.no(ReasonCode.SPECULATION_RISK,
                                   size_class=evidence["size_class"],
                                   estimate=evidence["estimate"])
        if (plan.reason == ReasonCode.GUARD_ELIDED_PREEXIST.value
                and self._on_cha_dependency is not None):
            self._on_cha_dependency(
                root.id, stmt.selector,
                targets[0].id if plan.kind == PLAN_PREEXIST
                else frozenset(t.id for t in targets))
        return Decision.guarded_inline(
            targets, reason=plan.reason or reason, plan=plan,
            coverage=coverage,
            guard_kind=(GUARD_PREEXISTENCE if plan.kind == PLAN_PREEXIST
                        else guard_kind), **evidence)

    # -- guard coverage (receiver skew) ----------------------------------------

    def _coverage(self, caller_id: str, site: int, comp_context: Context,
                  chosen: set) -> Optional[float]:
        """Eq.-3-compatible dispatch coverage of the chosen targets.

        Considers every profiled trace at the site whose context is
        Eq.-3-compatible with the compilation context -- including traces
        too cold to have become rules.  Returns ``None`` when no DCG is
        attached or the site has no trace data (nothing contradicts the
        choice); the caller compares the value against
        ``guard_coverage_min``, the skewed-receiver-distribution
        requirement of Jikes RVM's guarded inlining: guards that miss
        often cost more than plain dispatch.
        """
        if self._dcg is None:
            return None
        if self._site_traces is None:
            self._site_traces = build_site_trace_index(self._dcg)
        traces = self._site_traces.get((caller_id, site))
        if not traces:
            return None  # no data beyond the rules themselves
        return guard_coverage(traces, comp_context, chosen)

    # -- helpers ----------------------------------------------------------------

    def _is_recursive(self, target: MethodDef, comp_context: Context,
                      root: MethodDef) -> bool:
        if target.id == root.id:
            return True
        return any(caller == target.id for caller, _site in comp_context)

    def _refuse(self, caller_id: str, site: int, callee_id: str,
                reason: ReasonCode, **evidence) -> Decision:
        self._record(caller_id, site, callee_id, reason)
        return Decision.no(reason, **evidence)

    def _record(self, caller_id: str, site: int, callee_id: str,
                reason: ReasonCode) -> None:
        code = reason_value(reason)
        if self._on_refusal is not None and code in RECORDED_REFUSALS:
            self._telemetry.count(f"oracle.refusals.{code}")
            self._on_refusal(caller_id, site, callee_id, code)
