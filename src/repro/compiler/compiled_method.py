"""Compiled-code artifacts: inline trees, decisions, and compiled methods.

The optimizing compiler's output for a root method is an *inline tree*
(:class:`InlineNode`): each node is one (possibly inlined) method body, and
each call site in that body may carry an :class:`InlineDecision` naming the
target(s) expanded inline at that site.  The tree doubles as

* the execution plan for the interpreter (which body to run at a call site,
  which guards to test), and
* the inline map used to reconstruct source-level stack frames, exactly as
  Jikes RVM's OPT compiler maps do (paper Section 3.3).

A guarded site carries one :class:`GuardPlan` saying what runs there:
which options keep their guard test and what a miss does.  The oracle
takes it from the deoptimization planner, the compiler installs it as
is, and lowering executes it.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.jvm.program import MethodDef

#: Inline decision kinds.
DIRECT = "direct"      # statically bound, no guard needed
GUARDED = "guarded"    # class/method-test guards with virtual fallback

#: Guard-plan kinds (``GuardPlan.kind``).
PLAN_FULL_GUARD = "full-guard"  # every option tested; a miss dispatches
PLAN_PREEXIST = "preexist"      # receiver preexists; invalidation protects
PLAN_EXHAUSTIVE = "exhaustive"  # earlier guards missing implies the last hits
PLAN_OSR_EXIT = "osr-exit"      # cheap-exit OSR point; a miss deoptimizes


class GuardPlan(NamedTuple):
    """What runs at one guarded site.

    Under :data:`PLAN_FULL_GUARD` every option is entered through its
    guard test and an all-options miss dispatches in optimized code.
    The other kinds compile tests out: :data:`PLAN_PREEXIST` enters the
    sole option unconditionally (CHA invalidation protects it),
    :data:`PLAN_EXHAUSTIVE` enters the last option unconditionally
    (the options' acceptance sets cover every class that can reach the
    site), and :data:`PLAN_OSR_EXIT` tests nothing: an option is entered
    when the resolved target matches, and a miss deoptimizes, mapping
    the ``live`` locals out and finishing at the baseline tier.

    ``reason`` is the provenance reason the plan gives its decision, or
    ``None`` to keep the oracle's own.
    """

    kind: str
    live: FrozenSet[int] = frozenset()
    reason: Optional[str] = None

    def elided(self, index: int, count: int) -> Optional[str]:
        """The plan kind when option ``index`` of ``count`` runs without
        its guard test, ``None`` when the test is compiled in."""
        if self.kind == PLAN_FULL_GUARD or (
                self.kind == PLAN_EXHAUSTIVE and index != count - 1):
            return None
        return self.kind


#: The stock plan: every option keeps its test.
FULL_GUARD = GuardPlan(PLAN_FULL_GUARD)


class InlineNode:
    """One method body within an inline tree.

    ``decisions`` maps call-site ids (within *this* body) to the decision
    taken for that site.  Sites absent from the map were left as out-of-line
    calls.
    """

    __slots__ = ("method", "decisions", "depth")

    def __init__(self, method: MethodDef, depth: int = 0):
        self.method = method
        self.depth = depth
        self.decisions: Dict[int, "InlineDecision"] = {}

    def inlined_bytecodes(self) -> int:
        """Total bytecodes of this subtree (the body plus inlined callees)."""
        total = self.method.bytecodes
        for decision in self.decisions.values():
            for option in decision.options:
                total += option.node.inlined_bytecodes()
        return total

    def walk(self):
        """Yield every node of this subtree, preorder."""
        yield self
        for decision in self.decisions.values():
            for option in decision.options:
                yield from option.node.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InlineNode {self.method.id} depth={self.depth} " \
               f"sites={sorted(self.decisions)}>"


class GuardOption:
    """One inlined target at a call site, optionally behind a guard.

    ``guard_class`` is ``None`` for an unguarded (direct) expansion; for
    guarded expansions the interpreter performs a method test: it resolves
    the receiver's dynamic class and compares the result against
    ``target`` -- unless the site's :class:`GuardPlan` compiles the test
    out.
    """

    __slots__ = ("target", "node", "guard_class")

    def __init__(self, target: MethodDef, node: InlineNode,
                 guard_class: Optional[str] = None):
        self.target = target
        self.node = node
        self.guard_class = guard_class

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        g = f" guard={self.guard_class}" if self.guard_class else ""
        return f"<GuardOption {self.target.id}{g}>"


class InlineDecision:
    """The outcome for one call site: which targets were expanded inline.

    ``plan`` is the site's :class:`GuardPlan` (:data:`FULL_GUARD` unless
    given) for a guarded decision and ``None`` for a direct one.
    """

    __slots__ = ("kind", "options", "plan")

    def __init__(self, kind: str, options: Sequence[GuardOption],
                 plan: Optional[GuardPlan] = None):
        if kind not in (DIRECT, GUARDED):
            raise ValueError(f"bad decision kind {kind!r}")
        if kind == DIRECT and len(options) != 1:
            raise ValueError("direct decisions have exactly one option")
        self.kind = kind
        self.options = tuple(options)
        self.plan = (plan or FULL_GUARD) if kind == GUARDED else None

    @property
    def sole(self) -> GuardOption:
        """The single option of a DIRECT decision."""
        return self.options[0]

    def targets(self) -> List[str]:
        return [o.target.id for o in self.options]

    def untested(self) -> List[Tuple[GuardOption, str]]:
        """``(option, plan kind)`` for every guarded option whose test
        the plan compiles out."""
        if self.kind != GUARDED:
            return []
        count = len(self.options)
        elided = [(option, self.plan.elided(index, count))
                  for index, option in enumerate(self.options)]
        return [(option, kind) for option, kind in elided if kind is not None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InlineDecision {self.kind} {self.targets()}>"


class CompiledMethod:
    """One optimizing-compiler product for a root method.

    Attributes
    ----------
    root:
        The inline tree; ``root.method`` is the compiled method itself.
    inlined_bytecodes:
        Total bytecodes compiled (root body + all inlined bodies).  Compile
        time and machine-code size scale with this -- the quantity
        context-sensitive inlining reduces in the paper.
    code_bytes:
        Emitted machine-code size in bytes (Figure 5's metric).
    compile_cycles:
        Cycles charged to the compilation thread for producing this code.
    version:
        Recompilation counter for the root method (1 = first opt compile).
    rules_fingerprint:
        :func:`~repro.aos.organizers.rules_fingerprint_of` of the rule
        list used, in weight order, letting the missing-edge organizer
        cheaply skip code compiled under the current list.  The same
        rules in another order fingerprint differently.
    replay_sites:
        ``None`` until the missing-edge organizer first replays this
        code; then the inline tree's call sites in replay walk order, as
        a tuple of :class:`~repro.aos.organizers.ReplaySite`.  The tree
        never changes once compiled, so the table is built once.
    """

    __slots__ = ("root", "inlined_bytecodes", "code_bytes", "compile_cycles",
                 "version", "rules_fingerprint", "replay_sites")

    def __init__(self, root: InlineNode, inlined_bytecodes: int,
                 code_bytes: int, compile_cycles: int, version: int,
                 rules_fingerprint: int = 0):
        self.root = root
        self.inlined_bytecodes = inlined_bytecodes
        self.code_bytes = code_bytes
        self.compile_cycles = compile_cycles
        self.version = version
        self.rules_fingerprint = rules_fingerprint
        self.replay_sites = None

    @property
    def method(self) -> MethodDef:
        return self.root.method

    def inline_node_count(self) -> int:
        """Number of method bodies in the inline tree (root included)."""
        return sum(1 for _node in self.root.walk())

    def guard_count(self) -> int:
        """Guard tests actually compiled in (untested options emit none)."""
        return sum(len(decision.options) - len(decision.untested())
                   for node in self.root.walk()
                   for decision in node.decisions.values()
                   if decision.kind == GUARDED)

    def elided_guard_count(self) -> int:
        """Guarded options whose test the site's plan compiles out."""
        return len(self.elisions())

    def elisions(self) -> List[Tuple[str, int, str, str]]:
        """Inline-map records of every elided guard.

        Each entry is ``(caller_id, site, plan_kind, target_id)`` --
        the same shape as :meth:`inlined_edges` plus the plan kind, so
        stack reconstruction and provenance tooling can see which guards
        were never emitted.
        """
        return [(node.method.id, site, kind, option.target.id)
                for node in self.root.walk()
                for site, decision in node.decisions.items()
                for option, kind in decision.untested()]

    def inlined_edges(self) -> List[Tuple[str, int, str]]:
        """All (caller_id, site, callee_id) edges expanded in this code."""
        edges = []
        for node in self.root.walk():
            for site, decision in node.decisions.items():
                for option in decision.options:
                    edges.append((node.method.id, site, option.target.id))
        return edges

    def has_inlined(self, site: int, callee_id: str) -> bool:
        """True when ``callee_id`` is inlined at ``site`` anywhere in the tree."""
        for node in self.root.walk():
            decision = node.decisions.get(site)
            if decision is not None:
                if any(o.target.id == callee_id for o in decision.options):
                    return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CompiledMethod {self.method.id} v{self.version} "
                f"{self.inlined_bytecodes} bc, {self.code_bytes} bytes>")
