"""The optimizing compiler: builds inline trees by consulting the oracle.

The compiler owns the *mechanism* of inlining: it walks a root method's
body, asks the :class:`~repro.compiler.oracle.InlineOracle` about every
call site (passing the compilation context chain needed for Equation-3
matching), expands approved callees recursively, and emits a
:class:`~repro.compiler.compiled_method.CompiledMethod` whose compile time
and machine-code size scale with the total bytecodes compiled.

Every guarded decision arrives with the :class:`GuardPlan` the oracle's
planner chose for the site, and the compiler installs it as is.  With
speculation enabled one post-pass may rewrite a plan: a dominance pass
elides guards whose outcome is implied by a same-receiver guard that
executed on every path to the site.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.compiler.compiled_method import (DIRECT, GUARDED, PLAN_DOMINATED,
                                            PLAN_FULL_GUARD, CompiledMethod,
                                            GuardOption, GuardPlan,
                                            InlineDecision, InlineNode)
from repro.compiler.guards import classes_for_target
from repro.compiler.oracle import InlineOracle
from repro.compiler.size_estimator import (count_constant_args,
                                           estimate_inlined_bytecodes)
from repro.jvm.costs import CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (S_IF, S_INTERFACE_CALL, S_LOOP,
                               S_STATIC_CALL, S_VIRTUAL_CALL, MethodDef,
                               Program, Stmt)
from repro.profiles.trace import Context
from repro.telemetry.recorder import NULL_RECORDER


def iter_call_sites(body) -> Iterator[Stmt]:
    """Yield every call statement in a body, preorder, nested blocks included."""
    for stmt in body:
        k = stmt.kind
        if k in (S_STATIC_CALL, S_VIRTUAL_CALL, S_INTERFACE_CALL):
            yield stmt
        elif k == S_IF:
            yield from iter_call_sites(stmt.then_body)
            yield from iter_call_sites(stmt.else_body)
        elif k == S_LOOP:
            yield from iter_call_sites(stmt.body)


class OptCompiler:
    """Simulated optimizing compiler for one program."""

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 costs: CostModel, telemetry=NULL_RECORDER,
                 planner=None):
        self._program = program
        self._hierarchy = hierarchy
        self._costs = costs
        self._telemetry = telemetry
        #: Optional :class:`repro.analysis.deopt.DeoptPlanner`; with
        #: speculation enabled its analysis feeds the dominance pass.
        self._planner = planner

    def compile(self, method: MethodDef, oracle: InlineOracle,
                version: int = 1,
                rules_fingerprint: int = 0) -> CompiledMethod:
        """Compile ``method`` at the optimizing tier under ``oracle``."""
        root = InlineNode(method, depth=0)
        # Mutable single-element list so nested expansion sees committed size.
        total_size = [method.bytecodes]
        sites = [0, 0]  # [considered, inlined] across the whole expansion
        self._expand(root, (), total_size, method, oracle, sites)
        if self._planner is not None and self._costs.speculation_enabled:
            self._elide_dominated(root)

        self._telemetry.count("opt_compiler.compiles")
        self._telemetry.count("opt_compiler.sites_considered", sites[0])
        self._telemetry.count("opt_compiler.sites_inlined", sites[1])
        inlined_bytecodes = total_size[0]
        code_bytes = inlined_bytecodes * self._costs.opt_bytes_per_bc
        compile_cycles = inlined_bytecodes * self._costs.opt_compile_cycles_per_bc
        return CompiledMethod(root, inlined_bytecodes, code_bytes,
                              compile_cycles, version, rules_fingerprint)

    # -- expansion --------------------------------------------------------------

    def _expand(self, node: InlineNode, context_above: Context,
                total_size: List[int], root: MethodDef,
                oracle: InlineOracle, sites: List[int]) -> None:
        """Decide every call site in ``node`` and recurse into inlined bodies."""
        for stmt in iter_call_sites(node.method.body):
            sites[0] += 1
            comp_context: Context = (
                ((node.method.id, stmt.site),) + context_above)
            decision = oracle.decide(stmt, comp_context, node.depth,
                                     total_size[0], root)
            if not decision.inline:
                continue
            sites[1] += 1

            const_args = count_constant_args(stmt.args)
            options = []
            for target in decision.targets:
                child = InlineNode(target, depth=node.depth + 1)
                total_size[0] += estimate_inlined_bytecodes(target, const_args)
                options.append(GuardOption(
                    target, child,
                    guard_class=target.klass if decision.guarded else None))
                self._expand(child, comp_context, total_size, root, oracle,
                             sites)

            kind = GUARDED if decision.guarded else DIRECT
            node.decisions[stmt.site] = InlineDecision(kind, options,
                                                       decision.plan)

    # -- dominance-based redundant-guard elimination ----------------------------

    def _elide_dominated(self, root: InlineNode) -> None:
        """Rewrite to :data:`PLAN_DOMINATED` the plans of guards implied
        by a same-receiver dominating guard.

        Within each inline-tree body, a single-target guarded site B may
        drop its own test when some other single-target guarded site A
        (whose test is still compiled in) on the *same receiver value*
        executes on every path to B -- must-availability from the
        dataflow pass -- and B's acceptance set contains A's: A's guard
        passing implies B's would too.  The compiled code for B reuses
        A's already-computed outcome (the plan's ``dominator``), paying
        no guard test; when A's guard missed, B falls through to its
        dispatch fallback exactly as a miss would.
        """
        spec = self._planner.speculation
        for node in root.walk():
            if not node.decisions:
                continue
            summary = spec.summary(node.method)
            for site in sorted(node.decisions):
                decision = node.decisions[site]
                if not _tested_sole_guard(decision):
                    continue
                option = decision.options[0]
                facts = summary.call_facts.get(site)
                tag = summary.receiver_tags.get(site)
                if facts is None or facts.selector is None or tag is None:
                    continue
                accept_here: Optional[set] = None
                for dom_site, dom_selector, dom_tag in \
                        summary.available.get(site, ()):
                    if dom_site == site or dom_tag != tag:
                        continue
                    dominator = node.decisions.get(dom_site)
                    if dominator is None or not _tested_sole_guard(dominator):
                        continue
                    dom_option = dominator.options[0]
                    accept_dom = classes_for_target(
                        self._hierarchy, dom_selector, dom_option.target)
                    if not accept_dom:
                        continue
                    if accept_here is None:
                        accept_here = classes_for_target(
                            self._hierarchy, facts.selector, option.target)
                    if accept_dom <= accept_here:
                        decision.plan = GuardPlan(
                            PLAN_DOMINATED,
                            dominator=(dom_selector, dom_option.target))
                        self._telemetry.count(
                            "opt_compiler.guards_elided_dominated")
                        break


def _tested_sole_guard(decision: InlineDecision) -> bool:
    """A single-option guarded decision whose guard test is compiled in."""
    return (decision.kind == GUARDED and len(decision.options) == 1
            and decision.plan.kind == PLAN_FULL_GUARD)
