"""A profile-free inline oracle driven by the static call graph.

This is the baseline the paper argues *against*: every inlining decision
is made from information available before the program runs -- the class
hierarchy, the :class:`~repro.analysis.callgraph.StaticCallGraph` target
sets, and its static frequency estimates.  No dynamic call graph, no
context-sensitive rules, no receiver-skew data.

Decision rules, per site:

* statically-bound callees go through the same tiny/small size screens as
  the adaptive oracle, but where the adaptive oracle consults the profile
  (medium callees, small callees past budget) this one consults the
  static frequency estimate instead (:data:`ReasonCode.STATIC_HOT` /
  :data:`ReasonCode.STATIC_COLD`);
* virtual sites that whole-program CHA binds (a sole implementation)
  inline directly, exactly like the adaptive oracle;
* virtual sites the graph proves monomorphic at RTA precision inline
  behind a method-test guard (the analysis is sound over the whole run,
  but a guard keeps execution correct even against analysis bugs);
* everything else is refused with :data:`ReasonCode.STATIC_POLY` -- with
  no profile there is nothing to pick a target with, which is precisely
  the gap online profile-directed inlining exists to fill.

The oracle plugs into the unmodified adaptive machinery (hot-method
sampling, OSR, recompilation) via the controller's ``oracle_factory``
hook, so a ``static`` sweep cell differs from ``cins`` *only* in how
inlining decisions are made.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.callgraph import StaticCallGraph
from repro.analysis.kcfa import CallString, ContextSensitiveCallGraph
from repro.compiler.oracle import (Decision, DependencySink, InlineOracle,
                                   RefusalSink)
from repro.compiler.size_estimator import (SizeClass, classify,
                                           count_constant_args,
                                           estimate_inlined_bytecodes)
from repro.jvm.costs import CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import MethodDef, Program
from repro.profiles.trace import Context
from repro.provenance.reasons import GUARD_METHOD_TEST, ReasonCode


class StaticOracle(InlineOracle):
    """Inlining policy using only the static call graph (no profile)."""

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 costs: CostModel, graph: StaticCallGraph,
                 on_refusal: Optional[RefusalSink] = None,
                 on_cha_dependency: Optional[DependencySink] = None):
        super().__init__(program, hierarchy, costs, rules=(),
                         on_refusal=on_refusal, dcg=None,
                         on_cha_dependency=on_cha_dependency)
        self._graph = graph
        # A site is "statically hot" when its share of the program's total
        # static call frequency crosses the same threshold the adaptive
        # system applies to profiled edges -- the closest static analogue
        # of the paper's hot-edge test.
        self._hot_threshold = costs.hot_edge_threshold

    # -- static hotness -------------------------------------------------------

    def _statically_hot(self, site: int) -> bool:
        return self._graph.site_weight(site) >= self._hot_threshold

    # -- statically-bound callees ---------------------------------------------

    def _decide_bound(self, target: MethodDef, stmt, comp_context: Context,
                      depth: int, current_size: int,
                      root: MethodDef) -> Decision:
        """Size screens as in the adaptive oracle, static hotness instead
        of profile predictions past the tiny/small fast path."""
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

        weight = self._graph.site_weight(stmt.site)
        if size_class is SizeClass.SMALL:
            budget = max(root.bytecodes * costs.space_expansion_factor,
                         4.0 * costs.small_limit)
            if current_size + estimate <= budget:
                return Decision.direct(target, ReasonCode.SMALL,
                                       size_class=size_class,
                                       estimate=estimate)
            if self._statically_hot(stmt.site):
                return Decision.direct(target, ReasonCode.STATIC_HOT,
                                       size_class=size_class,
                                       estimate=estimate, weight=weight)
            return self._refuse(caller_id, site, target.id, ReasonCode.BUDGET,
                                size_class=size_class, estimate=estimate)

        # MEDIUM: where the adaptive oracle needs a profile prediction,
        # the static oracle needs a static hotness estimate.
        if self._statically_hot(stmt.site):
            return Decision.direct(target, ReasonCode.STATIC_HOT,
                                   size_class=size_class, estimate=estimate,
                                   weight=weight)
        return Decision.no(ReasonCode.STATIC_COLD, size_class=size_class,
                           estimate=estimate, weight=weight)

    # -- virtual sites --------------------------------------------------------

    def _decide_virtual(self, stmt, comp_context: Context, depth: int,
                        current_size: int, root: MethodDef) -> Decision:
        declared_sole = self._hierarchy.sole_implementation(stmt.selector)
        if declared_sole is not None:
            # Whole-program CHA binds the site; no guard needed in our
            # closed world (no class outside the program can ever load).
            return self._decide_bound(declared_sole, stmt, comp_context,
                                      depth, current_size, root)

        targets = self._graph.targets(stmt.site)
        if len(targets) == 1:
            # RTA-monomorphic: only one receiver class is ever allocated
            # program-wide.  Sound for the whole run, but inline behind a
            # method-test guard so execution stays correct regardless.
            target = self._program.method(next(iter(targets)))
            decision = self._decide_bound(target, stmt, comp_context, depth,
                                          current_size, root)
            if not decision.inline:
                return decision
            return Decision.guarded_inline(
                [target], reason=decision.reason,
                size_class=decision.size_class, estimate=decision.estimate,
                weight=decision.weight, guard_kind=GUARD_METHOD_TEST)

        # Polymorphic in the static view: without a profile there is no
        # basis for picking guard targets (the paper's whole point).
        return Decision.no(ReasonCode.STATIC_POLY,
                           weight=self._graph.site_weight(stmt.site))


class StaticContextOracle(StaticOracle):
    """A static oracle that conditions on the compilation context via k-CFA.

    The profile-free analogue of the paper's context-sensitive profiles:
    where :class:`StaticOracle` sees one RTA target set per site, this
    oracle asks the :class:`~repro.analysis.kcfa.ContextSensitiveCallGraph`
    what the site can dispatch to *given the inline chain above it* -- the
    known prefix of the dynamic call string, matched Equation-3 style
    against the analysis contexts (agree on the overlap, wildcard beyond).

    Two upgrades over the flat static oracle follow:

    * **guard elimination** -- a site whose every compatible context is
      monomorphic inlines *directly* (:data:`ReasonCode.STATIC_CTX_MONO`);
      the analysis is whole-program over our closed world, so like a
      declared sole implementation it needs no method-test guard (the
      dynamic lattice-soundness check polices the analysis itself);
    * **context rescue** -- sites RTA refuses as polymorphic inline once
      the context disambiguates them, which is exactly what ``decisions
      diff`` vs the ``static`` family attributes.

    Sites that stay polymorphic even under the context refuse with
    :data:`ReasonCode.STATIC_CTX_POLY`.  Hotness screens stay on the
    *flat* site weight: a context's share of a site's frequency is never
    larger than the site total, so comparing per-context weight against
    the same threshold would only refuse more bound callees -- starving
    the inlining that deepens compilation contexts in the first place.
    The context-conditioned frequency is reported as decision evidence
    instead.
    """

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 costs: CostModel, graph: StaticCallGraph,
                 kgraph: ContextSensitiveCallGraph,
                 on_refusal: Optional[RefusalSink] = None,
                 on_cha_dependency: Optional[DependencySink] = None):
        super().__init__(program, hierarchy, costs, graph,
                         on_refusal=on_refusal,
                         on_cha_dependency=on_cha_dependency)
        self._kgraph = kgraph
        self._known_prefix: CallString = ()

    def decide(self, stmt, comp_context: Context, depth: int,
               current_size: int, root: MethodDef) -> Decision:
        # ``comp_context[0]`` is (enclosing method, this site); the sites
        # of the elements above it are the call string through which the
        # enclosing method is reached in this compilation -- the provable
        # innermost-first prefix of any dynamic call string at the site.
        self._known_prefix = tuple(site for _caller, site
                                   in comp_context[1:])
        try:
            return super().decide(stmt, comp_context, depth, current_size,
                                  root)
        finally:
            self._known_prefix = ()

    def _decide_virtual(self, stmt, comp_context: Context, depth: int,
                        current_size: int, root: MethodDef) -> Decision:
        declared_sole = self._hierarchy.sole_implementation(stmt.selector)
        if declared_sole is not None:
            return self._decide_bound(declared_sole, stmt, comp_context,
                                      depth, current_size, root)

        weight = self._kgraph.prefix_weight(stmt.site, self._known_prefix)
        targets = self._kgraph.targets_for_prefix(stmt.site,
                                                  self._known_prefix)
        if len(targets) == 1:
            # Context-monomorphic: every analysis call string compatible
            # with the compilation context reaches this one target, so
            # the devirtualization needs no guard.
            target = self._program.method(next(iter(targets)))
            decision = self._decide_bound(target, stmt, comp_context,
                                          depth, current_size, root)
            if not decision.inline:
                return decision
            return Decision.direct(target, ReasonCode.STATIC_CTX_MONO,
                                   size_class=decision.size_class,
                                   estimate=decision.estimate,
                                   weight=weight)

        # Multiple targets survive even conditioned on the context (or
        # the analysis proves the site unreachable under it -- nothing to
        # gain from inlining dead dispatch either way).
        return Decision.no(ReasonCode.STATIC_CTX_POLY, weight=weight)
