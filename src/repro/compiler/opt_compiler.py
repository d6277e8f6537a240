"""The optimizing compiler: builds inline trees by consulting the oracle.

The compiler owns the *mechanism* of inlining: it walks a root method's
body, asks the :class:`~repro.compiler.oracle.InlineOracle` about every
call site (passing the compilation context chain needed for Equation-3
matching), expands approved callees recursively, and emits a
:class:`~repro.compiler.compiled_method.CompiledMethod` whose compile time
and machine-code size scale with the total bytecodes compiled.

Every guarded decision arrives with the :class:`GuardPlan` the oracle's
planner chose for the site, and the compiler installs it as is.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, List, Optional

from repro.compiler.compiled_method import (DIRECT, GUARDED, CompiledMethod,
                                            GuardOption, InlineDecision,
                                            InlineNode)
from repro.compiler.oracle import InlineOracle
from repro.compiler.size_estimator import (count_constant_args,
                                           estimate_inlined_bytecodes)
from repro.jvm.costs import OPT_BYTES_PER_BC, CostModel
from repro.jvm.program import (S_IF, S_LOOP, S_STATIC_CALL, S_VIRTUAL_CALL,
                               MethodDef, Stmt)
from repro.profiles.trace import Context


def iter_call_sites(body) -> Iterator[Stmt]:
    """Yield every call statement in a body, preorder, nested blocks included."""
    for stmt in body:
        k = stmt.kind
        if k in (S_STATIC_CALL, S_VIRTUAL_CALL):
            yield stmt
        elif k == S_IF:
            yield from iter_call_sites(stmt.then_body)
            yield from iter_call_sites(stmt.else_body)
        elif k == S_LOOP:
            yield from iter_call_sites(stmt.body)


class OptCompiler:
    """Simulated optimizing compiler under one cost model.

    What to inline comes from the oracle passed to :meth:`compile`; the
    compiler itself needs only the cost model's compile-time rate.
    """

    def __init__(self, costs: CostModel):
        self._costs = costs

    def compile(self, method: MethodDef, oracle: InlineOracle,
                version: int = 1, rules_fingerprint: int = 0,
                on_decision: Optional[Callable[..., None]] = None) \
            -> CompiledMethod:
        """Compile ``method`` at the optimizing tier under ``oracle``.

        ``on_decision`` is the event sink's ``decision`` handler, fired
        once per verdict (DESIGN.md, "Events").
        """
        root = InlineNode(method, depth=0)
        # Mutable single-element list so nested expansion sees committed size.
        total_size = [method.bytecodes]
        report = (None if on_decision is None
                  else partial(on_decision, method, version))
        self._expand(root, (), total_size, method, oracle, report)

        inlined_bytecodes = total_size[0]
        code_bytes = inlined_bytecodes * OPT_BYTES_PER_BC
        compile_cycles = inlined_bytecodes * self._costs.opt_compile_cycles_per_bc
        return CompiledMethod(root, inlined_bytecodes, code_bytes,
                              compile_cycles, version, rules_fingerprint)

    # -- expansion --------------------------------------------------------------

    def _expand(self, node: InlineNode, context_above: Context,
                total_size: List[int], root: MethodDef,
                oracle: InlineOracle,
                report: Optional[Callable[..., None]]) -> None:
        """Decide every call site in ``node`` and recurse into inlined
        bodies, passing each verdict to ``report`` when it is set."""
        for stmt in iter_call_sites(node.method.body):
            comp_context: Context = (
                ((node.method.id, stmt.site),) + context_above)
            current_size = total_size[0]
            decision = oracle.decide(stmt, comp_context, node.depth,
                                     current_size, root)
            if report is not None:
                report(stmt, comp_context, node.depth, current_size,
                       decision)
            if not decision.inline:
                continue

            const_args = count_constant_args(stmt.args)
            options = []
            for target in decision.targets:
                child = InlineNode(target, depth=node.depth + 1)
                total_size[0] += estimate_inlined_bytecodes(target, const_args)
                options.append(GuardOption(
                    target, child,
                    guard_class=target.klass if decision.guarded else None))
                self._expand(child, comp_context, total_size, root, oracle,
                             report)

            kind = GUARDED if decision.guarded else DIRECT
            node.decisions[stmt.site] = InlineDecision(kind, options,
                                                       decision.plan)
