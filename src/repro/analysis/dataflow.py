"""Speculation-risk static analysis: dataflow framework and clients.

Speculative inlining pays two blind costs: every guarded inline executes
its guard chain forever, and every loaded-world CHA bind carries an
unquantified invalidation risk.  This module supplies the static
machinery to spend those costs deliberately:

* :class:`ForwardAnalysis` / :class:`BackwardAnalysis` -- a small
  intraprocedural monotone dataflow framework over the statement
  bytecode (``Work``/``Let``/``New``/``If``/``Loop``/calls), one engine
  per direction over a shared lattice interface and a shared per-kind
  transfer registry (:data:`TRANSFER_REGISTRY`).  Branches are analyzed
  independently and joined; loops iterate to a fixpoint.  Facts
  recorded at call sites are accumulated with the client's join, so the
  recorded value equals the fixpoint value.  The backward engine hosts
  the live-variable client in :mod:`repro.analysis.liveness`.

* :class:`PreexistenceAnalysis` -- forward reaching-receiver facts in
  the Detlefs & Agesen invariant-argument style.  The abstract value of
  an expression is ``None`` ("may be allocated during the current
  activation") or a frozenset of parameter indices ("preexists the
  activation provided those parameters do").  A receiver that preexists
  the activation of the *compilation root* was allocated -- and hence
  had its class loaded -- before the compiled code could be entered, so
  a loaded-world CHA assumption about it can only be broken by a class
  load that also invalidates the compiled method before its next entry.
  Such receivers need no guard: invalidation alone protects them.

* :class:`AvailableGuardAnalysis` -- must-availability of guard tests:
  the set of ``(site, selector, receiver-tag)`` facts whose guard has
  executed on *every* path reaching a program point, with facts killed
  when their receiver local is reassigned.  Must-availability on a
  structured statement tree is exactly dominance of the guard site over
  the later site.  It feeds one static statistic,
  :func:`static_speculation_summary`'s ``dominator_available_sites``;
  no run reads it.

* Invalidation cones and churn-weighted risk -- per speculative
  assumption ``(selector, target)``, the set of declared-but-unloaded
  classes whose loading would break the assumption, weighted by a
  static allocation-frequency estimate of how likely each class is to
  load.  The risk score lets the guard planner choose guard vs
  guard-free (``speculation_elide_max_risk``).

:class:`SpeculationAnalysis` is the facade the guard planner
(:class:`repro.analysis.deopt.DeoptPlanner`) holds: per-method
preexistence summaries are computed once and cached (method bodies are
immutable), and cone/risk results are cached keyed on the hierarchy's
load generation.

Layering: this module depends only on :mod:`repro.jvm`; the oracle
receives the planner that holds it by injection, and nothing under
:mod:`repro.compiler` imports this module.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.jvm.costs import CostModel, DEFAULT_COSTS
from repro.jvm.errors import ExecutionError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (
    E_ARG, E_CONST, E_LOCAL, E_PICK,
    S_IF, S_LET, S_LOOP, S_NEW, S_NEWPOOL, S_RETURN,
    S_STATIC_CALL, S_VIRTUAL_CALL, S_WORK,
    Expr, MethodDef, Program, Stmt,
)

__all__ = [
    "DataflowAnalysis", "ForwardAnalysis", "BackwardAnalysis",
    "TRANSFER_REGISTRY",
    "PreexistenceAnalysis", "AvailableGuardAnalysis",
    "CallFacts", "MethodSummary", "SpeculationAnalysis",
    "SpeculationVerdict", "ACTION_ELIDE", "ACTION_GUARD",
    "NOT_PRE", "ALWAYS_PRE", "join_pre", "static_speculation_summary",
]

# ---------------------------------------------------------------------------
# The framework
# ---------------------------------------------------------------------------

#: Shared transfer-function registry: straight-line statement kind ->
#: handler method name.  Both dataflow directions dispatch through this
#: one table; a client implements only the handlers whose kinds touch
#: its lattice (a missing handler is the identity transfer) instead of
#: re-walking ``stmt.kind`` if-chains per client.  The two allocation
#: kinds share a handler -- no client has ever distinguished them.
TRANSFER_REGISTRY = {
    S_WORK: "transfer_work",
    S_LET: "transfer_let",
    S_NEW: "transfer_alloc",
    S_NEWPOOL: "transfer_alloc",
    S_STATIC_CALL: "transfer_static_call",
    S_VIRTUAL_CALL: "transfer_dispatch",
    S_RETURN: "transfer_return",
}


class DataflowAnalysis:
    """Lattice interface and transfer dispatch shared by both directions.

    Subclasses of the two engine classes define the lattice
    (``initial_state`` / ``copy_state`` / ``join_states`` /
    ``states_equal``) plus per-kind transfer handlers named by
    :data:`TRANSFER_REGISTRY`, and a ``visit`` hook that observes the
    per-statement state (used to record per-site facts).
    """

    def analyze(self, method: MethodDef):
        raise NotImplementedError

    # -- client interface --------------------------------------------------

    def initial_state(self, method: MethodDef):
        raise NotImplementedError

    def copy_state(self, state):
        raise NotImplementedError

    def join_states(self, left, right):
        raise NotImplementedError

    def states_equal(self, left, right) -> bool:
        raise NotImplementedError

    def transfer(self, stmt: Stmt, state):
        """Apply a non-control statement's effect; return the new state.

        Dispatches through :data:`TRANSFER_REGISTRY`; kinds without a
        handler on the client leave the state unchanged.
        """
        handler = getattr(self, TRANSFER_REGISTRY[stmt.kind], None)
        if handler is None:
            return state
        return handler(stmt, state)

    def transfer_loop_index(self, index_local: int, state):
        """Model the loop induction variable's per-iteration assignment."""
        raise NotImplementedError

    def visit(self, stmt: Stmt, state) -> None:
        """Observe the per-statement state (direction-dependent: the
        state flowing *into* the statement in execution order)."""


class ForwardAnalysis(DataflowAnalysis):
    """Forward monotone dataflow over a structured statement body.

    ``If`` analyzes both branches from copies of the incoming state and
    joins the exits.  ``Loop`` iterates its body until the joined state
    stabilizes; because ``visit`` accumulates recorded facts with the
    client's own join, the value recorded for a statement inside a loop
    converges to the fixpoint value.  Termination needs a finite-height
    lattice, which all clients below have.
    """

    def analyze(self, method: MethodDef):
        state = self.initial_state(method)
        return self._run_body(method.body, state)

    # -- driver ------------------------------------------------------------

    def _run_body(self, body: Sequence[Stmt], state):
        for stmt in body:
            state = self._run_stmt(stmt, state)
        return state

    def _run_stmt(self, stmt: Stmt, state):
        kind = stmt.kind
        if kind == S_IF:
            self.visit(stmt, state)
            then_state = self._run_body(stmt.then_body,
                                        self.copy_state(state))
            else_state = self._run_body(stmt.else_body,
                                        self.copy_state(state))
            return self.join_states(then_state, else_state)
        if kind == S_LOOP:
            self.visit(stmt, state)
            # state accumulates loop-entry joined with every body exit;
            # the loop may run zero times, so the entry state survives.
            while True:
                body_state = self.copy_state(state)
                self.transfer_loop_index(stmt.index_local, body_state)
                body_state = self._run_body(stmt.body, body_state)
                merged = self.join_states(state, body_state)
                if self.states_equal(merged, state):
                    return merged
                state = merged
        self.visit(stmt, state)
        return self.transfer(stmt, state)


class BackwardAnalysis(DataflowAnalysis):
    """Backward monotone dataflow over a structured statement body.

    Statements are processed in reverse execution order: ``analyze``
    starts from the client's ``initial_state`` at method exit and
    returns the state at method entry.  ``If`` analyzes both branches
    from copies of the after-statement state and joins the branch
    entries.  ``Loop`` iterates its body to a fixpoint so facts carried
    across the back edge (e.g. loop-carried liveness) are captured: the
    after-body state joins the after-loop state because an iteration is
    followed by either another iteration or the loop exit, and the
    zero-trip case keeps the after-loop state in the join.

    Two extra client hooks cover the control expressions the registry
    cannot see -- ``transfer_branch`` (an ``If`` condition) and
    ``transfer_loop_count`` (a ``Loop`` trip-count expression), both
    identity by default -- and ``visit_loop`` observes the loop-header
    fixpoint state itself: the facts holding at the back edge, which is
    exactly what an OSR entry point must reconstruct.

    ``visit`` observes the state *before* each statement in execution
    order (the same program point the forward engine's ``visit`` sees,
    reached from the other side).  Inside loops both ``visit`` hooks
    fire once per fixpoint iteration with monotonically growing (under
    the client's join) states, so clients accumulate with their join
    and the recorded value converges to the fixpoint value.
    """

    def analyze(self, method: MethodDef):
        state = self.initial_state(method)
        return self._run_body(method.body, state)

    # -- extra client hooks ------------------------------------------------

    def transfer_branch(self, stmt: Stmt, state):
        """Apply an ``If`` condition's effect (identity by default)."""
        return state

    def transfer_loop_count(self, stmt: Stmt, state):
        """Apply a ``Loop`` trip-count expression's effect (identity)."""
        return state

    def visit_loop(self, stmt: Stmt, state) -> None:
        """Observe a loop's fixpoint back-edge state (the OSR-entry
        facts), before the trip-count expression's own effect."""

    # -- driver ------------------------------------------------------------

    def _run_body(self, body: Sequence[Stmt], state):
        for stmt in reversed(body):
            state = self._run_stmt(stmt, state)
        return state

    def _run_stmt(self, stmt: Stmt, state):
        kind = stmt.kind
        if kind == S_IF:
            then_state = self._run_body(stmt.then_body,
                                        self.copy_state(state))
            else_state = self._run_body(stmt.else_body,
                                        self.copy_state(state))
            state = self.join_states(then_state, else_state)
            state = self.transfer_branch(stmt, state)
            self.visit(stmt, state)
            return state
        if kind == S_LOOP:
            # state accumulates the after-loop state joined with every
            # body-entry state; the induction variable is assigned at
            # the head of every iteration, so its per-iteration kill is
            # applied to the body state before the join.
            while True:
                body_state = self._run_body(stmt.body,
                                            self.copy_state(state))
                self.transfer_loop_index(stmt.index_local, body_state)
                merged = self.join_states(state, body_state)
                if self.states_equal(merged, state):
                    break
                state = merged
            self.visit_loop(stmt, state)
            state = self.transfer_loop_count(stmt, state)
            self.visit(stmt, state)
            return state
        state = self.transfer(stmt, state)
        self.visit(stmt, state)
        return state


# ---------------------------------------------------------------------------
# Client 1: receiver preexistence
# ---------------------------------------------------------------------------

#: Abstract preexistence value: ``None`` means "may have been allocated
#: during the current activation"; a frozenset of parameter indices
#: means "preexists provided each of those parameters preexists" (the
#: empty set is unconditional preexistence, e.g. constants).
PreFact = Optional[FrozenSet[int]]

NOT_PRE: PreFact = None
ALWAYS_PRE: PreFact = frozenset()


def join_pre(left: PreFact, right: PreFact) -> PreFact:
    """Join two preexistence facts (``None`` absorbs)."""
    if left is None or right is None:
        return None
    return left | right


class CallFacts:
    """Preexistence facts reaching one call site.

    ``receiver`` is ``None``-able twice over: static calls have no
    receiver (``receiver is None`` and ``selector is None``), and a
    virtual receiver that does not preexist carries :data:`NOT_PRE`.
    ``args`` are the explicit argument facts in order.
    """

    __slots__ = ("site", "selector", "receiver", "args")

    def __init__(self, site: int, selector: Optional[str],
                 receiver: PreFact, args: Tuple[PreFact, ...]):
        self.site = site
        self.selector = selector
        self.receiver = receiver
        self.args = args

    def merge(self, receiver: PreFact, args: Tuple[PreFact, ...]) -> None:
        self.receiver = join_pre(self.receiver, receiver) \
            if self.selector is not None else None
        self.args = tuple(join_pre(a, b) for a, b in zip(self.args, args))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CallFacts site={self.site} recv={self.receiver!r} "
                f"args={self.args!r}>")


class PreexistenceAnalysis(ForwardAnalysis):
    """Forward preexistence facts for every local, recorded at call sites.

    The state is one :data:`PreFact` per local slot.  Parameters are the
    base facts (``Arg(i)`` preexists iff parameter ``i`` does); ``New``,
    ``NewPool`` and call results are allocated during the activation and
    never preexist; ``Pick`` from a preexistent pool yields a
    preexistent element; arithmetic joins its operands.
    """

    def __init__(self):
        self.call_facts: Dict[int, CallFacts] = {}

    def initial_state(self, method: MethodDef) -> List[PreFact]:
        # Unassigned locals hold the integer 0 -- a constant, which can
        # never be the receiver of a successful dispatch.
        return [ALWAYS_PRE] * max(method.num_locals, 1)

    def copy_state(self, state: List[PreFact]) -> List[PreFact]:
        return list(state)

    def join_states(self, left: List[PreFact],
                    right: List[PreFact]) -> List[PreFact]:
        return [join_pre(a, b) for a, b in zip(left, right)]

    def states_equal(self, left: List[PreFact],
                     right: List[PreFact]) -> bool:
        return left == right

    def eval_expr(self, expr: Expr, state: List[PreFact]) -> PreFact:
        kind = expr.kind
        if kind == E_CONST:
            return ALWAYS_PRE
        if kind == E_ARG:
            return frozenset((expr.index,))
        if kind == E_LOCAL:
            if expr.index < len(state):
                return state[expr.index]
            return NOT_PRE
        if kind == E_PICK:
            # A pool element preexists whenever the pool does; the index
            # is an integer and cannot affect object identity provenance.
            return self.eval_expr(expr.pool, state)
        # Binary arithmetic: integer-valued, but join operands so the
        # lattice stays monotone even for exotic programs.
        return join_pre(self.eval_expr(expr.left, state),
                        self.eval_expr(expr.right, state))

    def transfer_let(self, stmt: Stmt,
                     state: List[PreFact]) -> List[PreFact]:
        if stmt.dst < len(state):
            state[stmt.dst] = self.eval_expr(stmt.expr, state)
        return state

    def transfer_alloc(self, stmt: Stmt,
                       state: List[PreFact]) -> List[PreFact]:
        # Allocated during this activation: by definition not
        # preexistent (its class may have loaded mid-activation).
        if stmt.dst < len(state):
            state[stmt.dst] = NOT_PRE
        return state

    def transfer_static_call(self, stmt: Stmt,
                             state: List[PreFact]) -> List[PreFact]:
        if stmt.dst is not None and stmt.dst < len(state):
            state[stmt.dst] = NOT_PRE
        return state

    # Dispatched-call results are just as freshly produced.
    transfer_dispatch = transfer_static_call

    def transfer_loop_index(self, index_local: int,
                            state: List[PreFact]) -> None:
        if index_local < len(state):
            state[index_local] = ALWAYS_PRE

    def visit(self, stmt: Stmt, state: List[PreFact]) -> None:
        kind = stmt.kind
        if kind == S_VIRTUAL_CALL:
            receiver = self.eval_expr(stmt.receiver, state)
            args = tuple(self.eval_expr(a, state) for a in stmt.args)
            selector = stmt.selector
        elif kind == S_STATIC_CALL:
            receiver = None
            args = tuple(self.eval_expr(a, state) for a in stmt.args)
            selector = None
        else:
            return
        existing = self.call_facts.get(stmt.site)
        if existing is None:
            self.call_facts[stmt.site] = CallFacts(stmt.site, selector,
                                                   receiver, args)
        else:
            existing.merge(receiver, args)


# ---------------------------------------------------------------------------
# Client 2: must-available guards (dominance)
# ---------------------------------------------------------------------------

#: Receiver tags identify "the same value" syntactically: a parameter
#: (never reassigned) or a local (facts killed on reassignment).
ReceiverTag = Tuple


def receiver_tag(expr: Expr) -> Optional[ReceiverTag]:
    """Stable identity tag for a receiver expression, or ``None``."""
    if expr.kind == E_ARG:
        return ("arg", expr.index)
    if expr.kind == E_LOCAL:
        return ("local", expr.index)
    return None


class AvailableGuardAnalysis(ForwardAnalysis):
    """Must-availability of virtual-site guard evaluations.

    A fact ``(site, selector, tag)`` is in the state when the dispatch
    at ``site`` -- and hence any guard compiled there -- has executed on
    every path reaching the current point with the receiver named by
    ``tag`` still holding the same value.  Facts on ``('local', i)`` die
    when local ``i`` is reassigned; ``('arg', i)`` facts are immortal
    (parameters have no assignment form).  Join is set intersection, so
    an available fact's site dominates the current point within the
    method body.
    """

    def __init__(self):
        #: site -> facts available on entry to the site (fixpoint).
        self.available: Dict[int, FrozenSet[Tuple]] = {}
        #: site -> this site's own receiver tag (or None).
        self.receiver_tags: Dict[int, Optional[ReceiverTag]] = {}

    def initial_state(self, method: MethodDef) -> set:
        return set()

    def copy_state(self, state: set) -> set:
        return set(state)

    def join_states(self, left: set, right: set) -> set:
        return left & right

    def states_equal(self, left: set, right: set) -> bool:
        return left == right

    def _kill_local(self, state: set, index: int) -> None:
        dead = [fact for fact in state if fact[2] == ("local", index)]
        for fact in dead:
            state.discard(fact)

    def transfer_let(self, stmt: Stmt, state: set) -> set:
        self._kill_local(state, stmt.dst)
        return state

    # Allocations overwrite their destination local the same way.
    transfer_alloc = transfer_let

    def transfer_static_call(self, stmt: Stmt, state: set) -> set:
        if stmt.dst is not None:
            self._kill_local(state, stmt.dst)
        return state

    def transfer_dispatch(self, stmt: Stmt, state: set) -> set:
        tag = receiver_tag(stmt.receiver)
        if tag is not None:
            state.add((stmt.site, stmt.selector, tag))
        if stmt.dst is not None:
            self._kill_local(state, stmt.dst)
        return state

    def transfer_loop_index(self, index_local: int, state: set) -> None:
        self._kill_local(state, index_local)

    def visit(self, stmt: Stmt, state: set) -> None:
        if stmt.kind != S_VIRTUAL_CALL:
            return
        self.receiver_tags[stmt.site] = receiver_tag(stmt.receiver)
        snapshot = frozenset(state)
        existing = self.available.get(stmt.site)
        if existing is None:
            self.available[stmt.site] = snapshot
        else:
            # Must-facts shrink across loop iterations; intersecting
            # every visit converges on the fixpoint availability.
            self.available[stmt.site] = existing & snapshot


# ---------------------------------------------------------------------------
# Per-method summaries and the facade
# ---------------------------------------------------------------------------


class MethodSummary:
    """Cached preexistence facts for one (immutable) method body."""

    __slots__ = ("method_id", "call_facts")

    def __init__(self, method_id: str, call_facts: Dict[int, CallFacts]):
        self.method_id = method_id
        self.call_facts = call_facts


#: Loop-nesting frequency multiplier for the static allocation-churn
#: estimate (same convention as the static call graph's frequencies).
LOOP_FREQ = 10.0
_MAX_LOOP_DEPTH = 6

#: Cone/risk cache entries kept before the cache resets.
_CONE_CACHE_LIMIT = 4096

ACTION_ELIDE = "elide"
ACTION_GUARD = "guard"


class SpeculationVerdict:
    """What the risk analysis recommends for one speculative inline."""

    __slots__ = ("action", "risk", "cone_size")

    def __init__(self, action: str, risk: float, cone_size: int):
        self.action = action
        self.risk = risk
        self.cone_size = cone_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SpeculationVerdict {self.action} risk={self.risk:.3f} "
                f"cone={self.cone_size}>")


class SpeculationAnalysis:
    """Facade over the preexistence client and the cone/risk analysis,
    held by the guard planner.

    One instance serves one ``(program, hierarchy)`` pair for the life
    of a run.  Method summaries are immutable and cached forever;
    cone/risk results are cached keyed on the hierarchy's load
    generation so class loads invalidate them implicitly.
    """

    def __init__(self, program: Program, hierarchy: ClassHierarchy,
                 costs: CostModel = DEFAULT_COSTS):
        self._program = program
        self._hierarchy = hierarchy
        self._costs = costs
        self._summaries: Dict[str, MethodSummary] = {}
        self._cone_cache: Dict[Tuple, Tuple[Tuple[str, ...], float]] = {}
        self._churn: Optional[Dict[str, float]] = None

    # -- summaries ---------------------------------------------------------

    def summary(self, method: MethodDef) -> MethodSummary:
        cached = self._summaries.get(method.id)
        if cached is not None:
            return cached
        pre = PreexistenceAnalysis()
        pre.analyze(method)
        built = MethodSummary(method.id, pre.call_facts)
        self._summaries[method.id] = built
        return built

    def summary_for(self, method_id: str) -> MethodSummary:
        return self.summary(self._program.method(method_id))

    # -- preexistence through the compilation context ----------------------

    @staticmethod
    def _resolve_fact(fact: PreFact, vector: Tuple[bool, ...]) -> bool:
        if fact is None:
            return False
        return all(index < len(vector) and vector[index] for index in fact)

    def receiver_preexists(self, stmt: Stmt,
                           comp_context: Sequence[Tuple[str, int]]) -> bool:
        """Does ``stmt``'s receiver preexist the compilation root's
        activation?

        ``comp_context`` is the compiler's inline chain, innermost
        first: ``(method_id, site)`` pairs ending at the root.  The walk
        starts at the root with every parameter preexistent (arguments
        to the root activation were produced by its caller, hence
        allocated before the activation began -- the classic
        preexistence base case) and propagates per-parameter facts down
        each inlined call edge.
        """
        frames = tuple(reversed(tuple(comp_context)))
        if not frames:
            return False
        try:
            root = self._program.method(frames[0][0])
        except Exception:
            return False
        vector: Tuple[bool, ...] = (True,) * root.num_params
        for method_id, site in frames[:-1]:
            facts = self.summary_for(method_id).call_facts.get(site)
            if facts is None:
                return False
            if facts.selector is None:
                # Static call: arguments map to parameters positionally
                # (conduit-style calls pass an explicit receiver first).
                param_facts: Tuple[PreFact, ...] = facts.args
            else:
                # Virtual dispatch: the receiver becomes parameter 0.
                param_facts = (facts.receiver,) + facts.args
            vector = tuple(self._resolve_fact(fact, vector)
                           for fact in param_facts)
        leaf_method, leaf_site = frames[-1]
        facts = self.summary_for(leaf_method).call_facts.get(leaf_site)
        if facts is None or facts.selector is None:
            return False
        if stmt.site != leaf_site:
            return False
        return self._resolve_fact(facts.receiver, vector)

    # -- invalidation cones and churn-weighted risk ------------------------

    def _allocation_churn(self) -> Dict[str, float]:
        """Static allocation-frequency estimate per class.

        Each ``New``/``NewPool`` site contributes ``LOOP_FREQ`` to the
        power of its loop-nesting depth; a class's weight predicts how
        soon it will be instantiated -- i.e. loaded -- relative to the
        others.  Classes with no allocation site can never load.
        """
        if self._churn is not None:
            return self._churn
        weights: Dict[str, float] = {}

        def walk(body: Sequence[Stmt], depth: int) -> None:
            freq = LOOP_FREQ ** min(depth, _MAX_LOOP_DEPTH)
            for stmt in body:
                kind = stmt.kind
                if kind == S_NEW:
                    weights[stmt.class_name] = \
                        weights.get(stmt.class_name, 0.0) + freq
                elif kind == S_NEWPOOL:
                    for class_name in stmt.class_names:
                        weights[class_name] = \
                            weights.get(class_name, 0.0) + freq
                elif kind == S_IF:
                    walk(stmt.then_body, depth)
                    walk(stmt.else_body, depth)
                elif kind == S_LOOP:
                    walk(stmt.body, depth + 1)

        for method in self._program.methods():
            walk(method.body, 0)
        self._churn = weights
        return weights

    def _escapes_targets(self, class_name: str, selector: str,
                         target_ids: FrozenSet[str]) -> bool:
        try:
            resolved = self._hierarchy.resolve(class_name, selector)
        except ExecutionError:
            return False  # selector not understood: load cannot break it
        return resolved.id not in target_ids

    def assumption_risk(self, selector: str,
                        target: MethodDef) -> Tuple[Tuple[str, ...], float]:
        """Invalidation cone and churn-weighted risk for one assumption.

        The loaded-sole assumption "``selector`` only dispatches into
        ``target``": the one-target case of :meth:`exhaustive_risk`.
        The *cone* is every declared-but-unloaded, allocatable class
        whose loading would invalidate code compiled against it; the
        *risk* is the cone's share of all predicted future
        class-loading churn, in ``[0, 1]``: 0 when no remaining load can
        break the assumption, 1 when every remaining load would.
        """
        return self.exhaustive_risk(selector, (target,))

    # -- the oracle's entry point ------------------------------------------

    def speculate(self, stmt: Stmt, comp_context: Sequence[Tuple[str, int]],
                  target: MethodDef) -> SpeculationVerdict:
        """Recommend guard-free or guarded for one speculative
        loaded-sole inline of ``target`` at ``stmt``."""
        cone, risk = self.assumption_risk(stmt.selector, target)
        if (risk <= self._costs.speculation_elide_max_risk
                and self.receiver_preexists(stmt, comp_context)):
            return SpeculationVerdict(ACTION_ELIDE, risk, len(cone))
        return SpeculationVerdict(ACTION_GUARD, risk, len(cone))

    def exhaustive_risk(self, selector: str,
                        targets: Sequence[MethodDef]) \
            -> Tuple[Tuple[str, ...], float]:
        """Cone and risk for the assumption "every receiver of
        ``selector`` resolves into ``targets``".

        The cone is every declared-but-unloaded, allocatable class whose
        loading would let a receiver resolve ``selector`` outside the
        target set.  An empty cone (with the loaded world already
        covered) means the set is exhaustive for any receiver the
        program can ever produce.
        """
        target_ids = frozenset(target.id for target in targets)
        key = (self._hierarchy.generation, selector,
               tuple(sorted(target_ids)))
        cached = self._cone_cache.get(key)
        if cached is not None:
            return cached
        churn = self._allocation_churn()
        hierarchy = self._hierarchy
        cone = tuple(sorted(
            class_name for class_name, weight in churn.items()
            if weight > 0.0
            and not hierarchy.is_loaded(class_name)
            and self._escapes_targets(class_name, selector, target_ids)))
        unloaded_weight = sum(
            weight for class_name, weight in churn.items()
            if not hierarchy.is_loaded(class_name))
        if unloaded_weight > 0.0:
            cone_weight = sum(churn[class_name] for class_name in cone)
            risk = cone_weight / unloaded_weight
        else:
            risk = 0.0
        if len(self._cone_cache) >= _CONE_CACHE_LIMIT:
            self._cone_cache.clear()
        self._cone_cache[key] = (cone, risk)
        return cone, risk

    def speculate_exhaustive(self, stmt: Stmt,
                             comp_context: Sequence[Tuple[str, int]],
                             targets: Sequence[MethodDef]) \
            -> SpeculationVerdict:
        """Can the *last* guard of a multi-target guarded inline go?

        The last test is redundant once every earlier guard missed iff
        the targets' acceptance sets cover every class the receiver can
        be.  With an empty cone (no future load can break coverage) the
        elision is unconditional; with a nonempty cone it additionally
        needs a preexistent receiver -- in-flight activations stay safe,
        and the recorded dependency invalidates the code for future
        invocations -- and a cone risk within the elide threshold.
        """
        target_ids = frozenset(target.id for target in targets)
        if not self._hierarchy.loaded_targets(stmt.selector) <= target_ids:
            # A loaded receiver class already dispatches outside the
            # chosen targets: the fallthrough path is live today.
            return SpeculationVerdict(ACTION_GUARD, 1.0, 0)
        cone, risk = self.exhaustive_risk(stmt.selector, targets)
        if not cone:
            return SpeculationVerdict(ACTION_ELIDE, 0.0, 0)
        if (risk <= self._costs.speculation_elide_max_risk
                and self.receiver_preexists(stmt, comp_context)):
            return SpeculationVerdict(ACTION_ELIDE, risk, len(cone))
        return SpeculationVerdict(ACTION_GUARD, risk, len(cone))


# ---------------------------------------------------------------------------
# Static program-level summary (for `repro analyze --speculation`)
# ---------------------------------------------------------------------------


def static_speculation_summary(program: Program,
                               hierarchy: Optional[ClassHierarchy] = None,
                               costs: CostModel = DEFAULT_COSTS) -> Dict:
    """Whole-program statistics from the three clients, load-free.

    Computed against a fresh (nothing-loaded) hierarchy: preexistent
    receiver sites, sites with a same-receiver dominating guard
    available (the only use of :class:`AvailableGuardAnalysis`, run
    here per method), and per-assumption cone sizes/risks for every
    virtual selector's implementations.
    """
    hierarchy = hierarchy or ClassHierarchy(program)
    spec = SpeculationAnalysis(program, hierarchy, costs)
    virtual_sites = 0
    preexistent_sites = 0
    dominated_sites = 0
    selectors = set()
    for method in program.methods():
        summary = spec.summary(method)
        avail = AvailableGuardAnalysis()
        avail.analyze(method)
        for site in sorted(summary.call_facts):
            facts = summary.call_facts[site]
            if facts.selector is None:
                continue
            virtual_sites += 1
            selectors.add(facts.selector)
            if facts.receiver is not None:
                preexistent_sites += 1
            tag = avail.receiver_tags.get(site)
            if tag is not None and any(
                    fact[2] == tag and fact[0] != site
                    for fact in avail.available.get(site, ())):
                dominated_sites += 1
    risks: List[float] = []
    cone_sizes: List[int] = []
    for selector in sorted(selectors):
        for target in hierarchy.implementations(selector):
            cone, risk = spec.assumption_risk(selector, target)
            risks.append(risk)
            cone_sizes.append(len(cone))
    return {
        "methods": len(program.methods()),
        "virtual_sites": virtual_sites,
        "preexistent_receiver_sites": preexistent_sites,
        "dominator_available_sites": dominated_sites,
        "assumptions": len(risks),
        "max_risk": round(max(risks), 6) if risks else 0.0,
        "mean_risk": round(sum(risks) / len(risks), 6) if risks else 0.0,
        "max_cone": max(cone_sizes) if cone_sizes else 0,
    }
