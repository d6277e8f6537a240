"""k-CFA: context-sensitive static call graphs over mini-JVM programs.

Where CHA and RTA (:mod:`repro.analysis.callgraph`) compute one target set
per call site, k-CFA qualifies every site by the *call string* through
which its enclosing method was reached -- the innermost ``k`` call-site
ids.  The analysis is a whole-program worklist fixpoint over
``(method, context)`` pairs with a flow-insensitive-per-context abstract
domain: each value abstracts to the ``frozenset`` of class names it may
hold (integers and other non-objects abstract to the empty set).

Precision forms a lattice by construction:

* **0-CFA refines RTA**: receiver sets only contain classes allocated in
  0-CFA-reachable code, which is a subset of RTA-reachable code, so every
  0-CFA target at a site is an RTA target.
* **k-CFA refines (k-1)-CFA**: truncating a k-context onto its (k-1)
  prefix commutes with context extension
  (``push_k(s, c)[:k-1] == push_{k-1}(s, c[:k-1])``), so merging a
  k-graph's contexts by that prefix yields exactly the (k-1) abstract
  states joined -- target sets per truncated context can only grow.

The dynamic soundness checker (:mod:`repro.analysis.soundness`) asserts
the full chain ``observed ⊆ kCFA(ctx) ⊆ 0CFA ⊆ RTA ⊆ CHA`` on replayed
workloads, and the precision-lattice report
(:mod:`repro.analysis.lattice`) quantifies how much each tier narrows.

Frequencies mirror the flat builder: loop bounds multiply (clamped),
``If`` branches halve, and invocation weight propagates from the entry --
but per *(method, context)* pair, split over a virtual site's targets in
proportion to how many receiver classes resolve to each, so a context
that proves a site monomorphic concentrates its whole weight on the one
target.  This is what lets :class:`~repro.analysis.static_oracle.
StaticContextOracle` rank context-qualified inlining candidates without
any dynamic profile.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.callgraph import (MIN_PROPAGATED_WEIGHT,
                                      method_site_multipliers, site_kind)
from repro.compiler.opt_compiler import iter_call_sites
from repro.compiler.size_estimator import classify
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.errors import ExecutionError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (
    E_ARG, E_LOCAL, E_PICK,
    S_IF, S_LET, S_LOOP, S_NEW, S_NEWPOOL,
    S_RETURN, S_STATIC_CALL, S_VIRTUAL_CALL,
    Expr, Program,
)

#: A call string: innermost-first call-site ids, at most ``k`` of them.
#: Site ids are program-unique, so a site id determines its caller and
#: the string doubles as a (caller, site) chain.
CallString = Tuple[int, ...]

#: The empty abstract value (no classes: integers, unanalyzed flows).
NO_CLASSES: FrozenSet[str] = frozenset()

#: Context depths the analysis is exercised at by ``repro analyze``.
SUPPORTED_KS = (0, 1, 2)

#: Hard ceiling on ``k`` -- call-string spaces grow geometrically and
#: nothing in the paper's evaluation needs deeper strings.
MAX_K = 8

_MethodContext = Tuple[str, CallString]


def truncate(call_string: CallString, k: int) -> CallString:
    """Keep the innermost ``k`` elements of a call string."""
    return call_string[:k]


def extend(site: int, call_string: CallString, k: int) -> CallString:
    """The callee context for a call at ``site`` under ``call_string``."""
    if k == 0:
        return ()
    return ((site,) + call_string)[:k]


def strings_compatible(known: CallString, full: CallString) -> bool:
    """Equation-3-style partial match on call strings.

    ``known`` is the prefix the compiler can prove (inlining chain below
    the compilation root); ``full`` is an analysis context.  They are
    compatible when they agree on their overlap -- the unknown remainder
    is treated as wildcard, exactly like
    :func:`repro.profiles.partial_match.contexts_compatible`.
    """
    return all(a == b for a, b in zip(known, full))


@dataclass(frozen=True)
class ContextTargets:
    """Targets and static frequency of one ``(site, context)`` pair."""

    context: CallString
    targets: Tuple[str, ...]     #: sorted possible target method ids
    frequency: float             #: static execution-frequency estimate
    #: per-target share of ``frequency`` (receiver-class-count weighted),
    #: sorted by target id
    target_weights: Tuple[Tuple[str, float], ...]

    @property
    def monomorphic(self) -> bool:
        return len(self.targets) == 1


@dataclass
class KSite:
    """One call site with its per-context target sets."""

    site: int                    #: program-unique call-site id
    caller: str                  #: enclosing method id
    kind: str                    #: "static" | "virtual"
    selector: str                #: selector (or target id for static calls)
    by_context: Dict[CallString, ContextTargets] = field(default_factory=dict)

    @property
    def dispatched(self) -> bool:
        return self.kind != "static"

    def union_targets(self) -> FrozenSet[str]:
        """Targets joined over every analysis context."""
        out: Set[str] = set()
        for info in self.by_context.values():
            out.update(info.targets)
        return frozenset(out)

    @property
    def context_monomorphic(self) -> bool:
        """True when *every* context proves the site monomorphic."""
        return bool(self.by_context) and all(
            info.monomorphic for info in self.by_context.values())

    @property
    def frequency(self) -> float:
        return sum(info.frequency for info in self.by_context.values())


@dataclass
class ContextSensitiveCallGraph:
    """A whole-program call graph keyed by k-bounded call strings."""

    program_name: str
    k: int
    entry: str
    sites: Dict[int, KSite] = field(default_factory=dict)
    #: method id -> sorted analysis contexts it was analyzed under
    contexts: Dict[str, Tuple[CallString, ...]] = field(default_factory=dict)
    #: (method id, context) -> static invocation-frequency estimate
    method_frequency: Dict[_MethodContext, float] = field(default_factory=dict)
    size_classes: Dict[str, str] = field(default_factory=dict)

    @property
    def precision(self) -> str:
        return f"{self.k}cfa"

    @property
    def reachable(self) -> FrozenSet[str]:
        return frozenset(self.contexts)

    # -- target queries -------------------------------------------------------

    def targets(self, site: int,
                context: Optional[CallString] = None) -> FrozenSet[str]:
        """Possible targets of a site, optionally under one exact context.

        With ``context=None`` this is the context-insensitive join -- the
        set a flat consumer (soundness containment vs RTA, lattice sizes)
        should compare against.
        """
        info = self.sites.get(site)
        if info is None:
            return frozenset()
        if context is None:
            return info.union_targets()
        ctx = self.sites[site].by_context.get(truncate(context, self.k))
        return frozenset(ctx.targets) if ctx is not None else frozenset()

    def targets_for_prefix(self, site: int,
                           known: CallString) -> FrozenSet[str]:
        """Targets joined over every context compatible with ``known``.

        ``known`` is a (possibly shorter than k) innermost-first prefix
        of call-site ids the caller can prove -- e.g. the inlining chain
        above a compilation point.  Contexts are matched Equation-3
        style: agree on the overlap, wildcard beyond it.  The join over
        all compatible contexts keeps the answer sound for any concrete
        execution whose call string extends ``known``.
        """
        info = self.sites.get(site)
        if info is None:
            return frozenset()
        known = truncate(known, self.k)
        out: Set[str] = set()
        for ctx, targets in info.by_context.items():
            if strings_compatible(known, ctx):
                out.update(targets.targets)
        return frozenset(out)

    def prefix_weight(self, site: int, known: CallString) -> float:
        """Share of total static call frequency reaching ``site`` through
        contexts compatible with ``known``."""
        info = self.sites.get(site)
        total = self.total_site_frequency
        if info is None or total <= 0.0:
            return 0.0
        known = truncate(known, self.k)
        freq = sum(ct.frequency for ctx, ct in info.by_context.items()
                   if strings_compatible(known, ctx))
        return freq / total

    def predicted_majority(self, site: int,
                           context: CallString) -> Optional[str]:
        """The statically predicted most-likely target under a context.

        Joins target weights over every analysis context compatible with
        ``context`` (truncated to k) and returns the argmax, breaking
        ties toward the lexicographically smallest target id.  This is
        the prediction the precision-lattice report scores against the
        per-context majority of a replay's dispatch counts.
        """
        info = self.sites.get(site)
        if info is None:
            return None
        known = truncate(context, self.k)
        weights: Dict[str, float] = {}
        for ctx, ct in info.by_context.items():
            if not strings_compatible(known, ctx):
                continue
            for target, w in ct.target_weights:
                weights[target] = weights.get(target, 0.0) + w
        if not weights:
            return None
        return min(weights, key=lambda t: (-weights[t], t))

    def is_monomorphic(self, site: int) -> bool:
        """Context-insensitive monomorphism (parity with StaticCallGraph)."""
        info = self.sites.get(site)
        return info is not None and len(info.union_targets()) == 1

    def context_monomorphic(self, site: int) -> bool:
        """True when every analysis context pins the site to one target."""
        info = self.sites.get(site)
        return info is not None and info.context_monomorphic

    def dispatched_sites(self) -> List[KSite]:
        return [self.sites[s] for s in sorted(self.sites)
                if self.sites[s].dispatched]

    # -- static hotness -------------------------------------------------------

    @property
    def total_site_frequency(self) -> float:
        return sum(info.frequency for info in self.sites.values())

    def site_weight(self, site: int) -> float:
        """A site's share of total static call frequency (all contexts)."""
        total = self.total_site_frequency
        info = self.sites.get(site)
        if info is None or total <= 0.0:
            return 0.0
        return info.frequency / total

    # -- summaries ------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-ready statistics block for ``repro analyze``."""
        dispatched = self.dispatched_sites()
        union_mono = sum(1 for s in dispatched
                         if len(s.union_targets()) == 1)
        ctx_mono = sum(1 for s in dispatched if s.context_monomorphic)
        n_contexts = sum(len(ctxs) for ctxs in self.contexts.values())
        return {
            "precision": self.precision,
            "k": self.k,
            "methods_reachable": len(self.contexts),
            "method_contexts": n_contexts,
            "max_contexts_per_method": max(
                (len(c) for c in self.contexts.values()), default=0),
            "call_sites": len(self.sites),
            "dispatched_sites": len(dispatched),
            "monomorphic_sites": union_mono,
            "polymorphic_sites": len(dispatched) - union_mono,
            "context_monomorphic_sites": ctx_mono,
            "context_rescued_sites": ctx_mono - union_mono,
        }


# -- construction -------------------------------------------------------------


def build_kcfa_graph(program: Program,
                     hierarchy: Optional[ClassHierarchy] = None,
                     k: int = 1,
                     costs: CostModel = DEFAULT_COSTS) \
        -> ContextSensitiveCallGraph:
    """Run the k-CFA fixpoint over ``program`` and package the result."""
    if not 0 <= k <= MAX_K:
        raise ValueError(f"k must be in [0, {MAX_K}], got {k!r}")
    if hierarchy is None:
        hierarchy = ClassHierarchy(program)
    builder = _KCFABuilder(program, hierarchy, k)
    return builder.build(costs)


class _KCFABuilder:
    """Worklist fixpoint over ``(method, call-string)`` analysis pairs.

    Per pair the builder keeps joined abstract parameter values and an
    abstract return value; per ``(site, context-of-caller)`` it keeps the
    resolved target set together with how many receiver classes chose
    each target.  Everything is monotone over finite powerset lattices,
    so the worklist terminates.
    """

    def __init__(self, program: Program, hierarchy: ClassHierarchy, k: int):
        self._program = program
        self._hierarchy = hierarchy
        self._k = k
        #: joined abstract parameter values per analysis pair
        self._params: Dict[_MethodContext, List[FrozenSet[str]]] = {}
        #: joined abstract return value per analysis pair
        self._returns: Dict[_MethodContext, FrozenSet[str]] = {}
        #: callee pair -> caller pairs to re-analyze when its return grows
        self._return_deps: Dict[_MethodContext, Set[_MethodContext]] = {}
        #: (site, caller context) -> target id -> receiver-class count
        #: (count 1 for static calls)
        self._site_targets: Dict[Tuple[int, CallString],
                                 Dict[str, int]] = {}
        self._worklist: deque = deque()
        self._queued: Set[_MethodContext] = set()

    # -- driver ---------------------------------------------------------------

    def build(self, costs: CostModel) -> ContextSensitiveCallGraph:
        entry = self._program.entry_method()
        entry_key = (entry.id, ())
        self._params[entry_key] = [NO_CLASSES] * entry.num_params
        self._enqueue(entry_key)
        while self._worklist:
            key = self._worklist.popleft()
            self._queued.discard(key)
            self._analyze(key)
        return self._package(entry.id, costs)

    def _enqueue(self, key: _MethodContext) -> None:
        if key not in self._queued:
            self._queued.add(key)
            self._worklist.append(key)

    # -- one (method, context) pass -------------------------------------------

    def _analyze(self, key: _MethodContext) -> None:
        method_id, ctx = key
        method = self._program.method(method_id)
        params = self._params[key]
        locals_: Dict[int, FrozenSet[str]] = {}
        returns: Set[str] = set(self._returns.get(key, NO_CLASSES))
        # Iterate the body to a local fixpoint: bodies are flow-insensitive
        # per context (locals join over all assignments), and a loop can
        # feed a local back into itself via a callee's return value.
        changed = True
        while changed:
            changed = self._walk(method.body, key, params, locals_, returns)
        new_ret = frozenset(returns)
        if new_ret != self._returns.get(key, NO_CLASSES):
            self._returns[key] = new_ret
            for caller in self._return_deps.get(key, ()):
                self._enqueue(caller)

    def _walk(self, body, key: _MethodContext,
              params: List[FrozenSet[str]],
              locals_: Dict[int, FrozenSet[str]],
              returns: Set[str]) -> bool:
        changed = False
        for stmt in body:
            sk = stmt.kind
            if sk == S_LET:
                changed |= self._assign(
                    locals_, stmt.dst,
                    self._eval(stmt.expr, params, locals_))
            elif sk == S_NEW:
                changed |= self._assign(locals_, stmt.dst,
                                        frozenset((stmt.class_name,)))
            elif sk == S_NEWPOOL:
                changed |= self._assign(locals_, stmt.dst,
                                        frozenset(stmt.class_names))
            elif sk == S_IF:
                changed |= self._walk(stmt.then_body, key, params,
                                      locals_, returns)
                changed |= self._walk(stmt.else_body, key, params,
                                      locals_, returns)
            elif sk == S_LOOP:
                changed |= self._walk(stmt.body, key, params, locals_,
                                      returns)
            elif sk == S_STATIC_CALL:
                changed |= self._flow_static(stmt, key, params, locals_)
            elif sk == S_VIRTUAL_CALL:
                changed |= self._flow_virtual(stmt, key, params, locals_)
            elif sk == S_RETURN and stmt.expr is not None:
                before = len(returns)
                returns.update(self._eval(stmt.expr, params, locals_))
                changed |= len(returns) != before
        return changed

    @staticmethod
    def _assign(locals_: Dict[int, FrozenSet[str]], dst: int,
                value: FrozenSet[str]) -> bool:
        old = locals_.get(dst, NO_CLASSES)
        if value <= old:
            return False
        locals_[dst] = old | value
        return True

    def _eval(self, expr: Expr, params: List[FrozenSet[str]],
              locals_: Dict[int, FrozenSet[str]]) -> FrozenSet[str]:
        ek = expr.kind
        if ek == E_ARG:
            return (params[expr.index]
                    if expr.index < len(params) else NO_CLASSES)
        if ek == E_LOCAL:
            return locals_.get(expr.index, NO_CLASSES)
        if ek == E_PICK:
            # Pick selects one pool element; abstractly the pool's set.
            return self._eval(expr.pool, params, locals_)
        # Const and arithmetic produce integers -- no classes.
        return NO_CLASSES

    # -- call edges -----------------------------------------------------------

    def _flow_static(self, stmt, key: _MethodContext,
                     params: List[FrozenSet[str]],
                     locals_: Dict[int, FrozenSet[str]]) -> bool:
        _method_id, ctx = key
        arg_vals = [self._eval(a, params, locals_) for a in stmt.args]
        self._record_targets(stmt.site, ctx, {stmt.target: 1})
        callee_ctx = extend(stmt.site, ctx, self._k)
        self._join_call(stmt.target, callee_ctx, arg_vals)
        return self._flow_return(stmt, key, (stmt.target, callee_ctx),
                                 locals_)

    def _flow_virtual(self, stmt, key: _MethodContext,
                      params: List[FrozenSet[str]],
                      locals_: Dict[int, FrozenSet[str]]) -> bool:
        _method_id, ctx = key
        receivers = self._eval(stmt.receiver, params, locals_)
        arg_vals = [self._eval(a, params, locals_) for a in stmt.args]
        # Receiver splitting: group receiver classes by the method each
        # resolves to, so a callee's ``this`` only sees classes that
        # actually dispatch to it.
        by_target: Dict[str, Set[str]] = {}
        for class_name in receivers:
            try:
                target = self._hierarchy.resolve(class_name, stmt.selector)
            except ExecutionError:
                continue  # this receiver class does not understand it
            by_target.setdefault(target.id, set()).add(class_name)
        self._record_targets(
            stmt.site, ctx,
            {t: len(classes) for t, classes in by_target.items()})
        changed = False
        callee_ctx = extend(stmt.site, ctx, self._k)
        for target_id in sorted(by_target):
            callee_args = [frozenset(by_target[target_id])] + arg_vals
            self._join_call(target_id, callee_ctx, callee_args)
            changed |= self._flow_return(stmt, key,
                                         (target_id, callee_ctx), locals_)
        return changed

    def _join_call(self, target_id: str, callee_ctx: CallString,
                   arg_vals: List[FrozenSet[str]]) -> None:
        callee_key = (target_id, callee_ctx)
        target = self._program.method(target_id)
        params = self._params.get(callee_key)
        if params is None:
            params = [NO_CLASSES] * target.num_params
            self._params[callee_key] = params
            self._enqueue(callee_key)
        grew = False
        for i, val in enumerate(arg_vals[:target.num_params]):
            if not val <= params[i]:
                params[i] = params[i] | val
                grew = True
        if grew:
            self._enqueue(callee_key)

    def _flow_return(self, stmt, caller_key: _MethodContext,
                     callee_key: _MethodContext,
                     locals_: Dict[int, FrozenSet[str]]) -> bool:
        self._return_deps.setdefault(callee_key, set()).add(caller_key)
        if stmt.dst is None:
            return False
        ret = self._returns.get(callee_key, NO_CLASSES)
        if not ret:
            return False
        return self._assign(locals_, stmt.dst, ret)

    def _record_targets(self, site: int, ctx: CallString,
                        counts: Dict[str, int]) -> None:
        slot = self._site_targets.setdefault((site, ctx), {})
        for target, count in counts.items():
            if count > slot.get(target, 0):
                slot[target] = count

    # -- frequency propagation ------------------------------------------------

    def _propagate(self, entry_id: str,
                   multipliers: Dict[str, Dict[int, float]]) \
            -> Dict[_MethodContext, float]:
        """Invocation frequency per ``(method, context)`` pair.

        Same regime as the flat builder -- loop/branch multipliers within
        a method, even propagation along call edges -- except the split
        over a virtual site's targets is weighted by how many receiver
        classes resolve to each, and edges back into a pair already on
        the walk stack contribute nothing (terminates recursion).
        """
        frequency: Dict[_MethodContext, float] = {}
        stack: Set[_MethodContext] = set()

        def contribute(key: _MethodContext, weight: float) -> None:
            if weight < MIN_PROPAGATED_WEIGHT or key in stack:
                return
            frequency[key] = frequency.get(key, 0.0) + weight
            stack.add(key)
            try:
                method_id, ctx = key
                method = self._program.method(method_id)
                mults = multipliers.get(method_id, {})
                for stmt in iter_call_sites(method.body):
                    counts = self._site_targets.get((stmt.site, ctx))
                    if not counts:
                        continue
                    site_freq = weight * mults.get(stmt.site, 1.0)
                    total = sum(counts.values())
                    callee_ctx = extend(stmt.site, ctx, self._k)
                    for target in sorted(counts):
                        contribute((target, callee_ctx),
                                   site_freq * counts[target] / total)
            finally:
                stack.discard(key)

        contribute((entry_id, ()), 1.0)
        return frequency

    # -- packaging ------------------------------------------------------------

    def _package(self, entry_id: str,
                 costs: CostModel) -> ContextSensitiveCallGraph:
        contexts: Dict[str, Set[CallString]] = {}
        for method_id, ctx in self._params:
            contexts.setdefault(method_id, set()).add(ctx)
        multipliers = {m_id: method_site_multipliers(
            self._program.method(m_id)) for m_id in contexts}
        frequency = self._propagate(entry_id, multipliers)

        sites: Dict[int, KSite] = {}
        for method_id, method_ctxs in contexts.items():
            method = self._program.method(method_id)
            mults = multipliers[method_id]
            for stmt in iter_call_sites(method.body):
                kind, selector = site_kind(stmt)
                ksite = sites.setdefault(stmt.site, KSite(
                    site=stmt.site, caller=method_id, kind=kind,
                    selector=selector))
                for ctx in method_ctxs:
                    counts = self._site_targets.get((stmt.site, ctx))
                    if not counts:
                        continue
                    freq = (frequency.get((method_id, ctx), 0.0)
                            * mults.get(stmt.site, 1.0))
                    total = sum(counts.values())
                    ksite.by_context[ctx] = ContextTargets(
                        context=ctx,
                        targets=tuple(sorted(counts)),
                        frequency=freq,
                        target_weights=tuple(
                            (t, freq * counts[t] / total)
                            for t in sorted(counts)))

        size_classes = {m.id: classify(m, costs).value
                        for m in self._program.methods()}
        return ContextSensitiveCallGraph(
            program_name=self._program.name, k=self._k, entry=entry_id,
            sites=sites,
            contexts={m: tuple(sorted(ctxs))
                      for m, ctxs in sorted(contexts.items())},
            method_frequency=frequency, size_classes=size_classes)
