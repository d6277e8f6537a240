"""The concrete context-sensitivity policies evaluated in the paper.

Six policy families appear in the paper's Figures 4-6 (plus the baseline):

* ``cins``     -- context-insensitive edge profiling (Jikes RVM's default);
* ``fixed``    -- non-adaptive fixed-level sensitivity (Section 4.2);
* ``paramLess``-- early termination at parameterless methods;
* ``class``    -- early termination at class (static) methods;
* ``large``    -- early termination one level above large methods;
* ``hybrid1``  -- Parameterless Class Methods;
* ``hybrid2``  -- Parameterless Large Methods.

Each takes a ``max_depth`` (the paper sweeps 2-5 for the sensitive
policies; ``cins`` is exactly depth 1).
"""

from __future__ import annotations

from typing import Dict

from repro.compiler.size_estimator import is_large
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.program import MethodDef
from repro.policies.base import ContextSensitivityPolicy


class ContextInsensitive(ContextSensitivityPolicy):
    """Plain edge profiling: every trace is a single call edge."""

    label = "cins"

    def __init__(self) -> None:
        super().__init__(max_depth=1)


class FixedLevel(ContextSensitivityPolicy):
    """Non-adaptive: every trace is exactly ``max_depth`` edges (stack
    permitting).  The paper's Section 4.2 policy."""

    label = "fixed"


class ParameterlessMethods(ContextSensitivityPolicy):
    """Stop extending once the chain passes through a parameterless method.

    If no declared parameters feed a method, the context in which its
    caller ran cannot change what flows into it (``this`` and globals being
    the paper's acknowledged exceptions).
    """

    label = "paramLess"

    def stop_below(self, method: MethodDef) -> bool:
        return method.is_parameterless


class ClassMethods(ContextSensitivityPolicy):
    """Stop extending once the chain passes through a class (static) method.

    In OO code the dominant state channel is the receiver; a static call
    has no receiver, so deeper context is assumed inconsequential.
    """

    label = "class"

    def stop_below(self, method: MethodDef) -> bool:
        return method.is_static


class LargeMethods(ContextSensitivityPolicy):
    """Stop one level above a large method.

    Large methods are never inlined into their callers, so an inlining
    rule can never consume context that crosses a large caller: record the
    large caller itself, then stop.
    """

    label = "large"

    def __init__(self, max_depth: int, costs: CostModel = DEFAULT_COSTS):
        super().__init__(max_depth)
        self._costs = costs

    def stop_at(self, caller: MethodDef) -> bool:
        return is_large(caller, self._costs)


class ParameterlessClassMethods(ContextSensitivityPolicy):
    """Hybrid 1: stop below parameterless *or* static methods.

    The paper found this the most stable policy (performance nearly always
    within 1% of context-insensitive inlining).
    """

    label = "hybrid1"

    def stop_below(self, method: MethodDef) -> bool:
        return method.is_parameterless or method.is_static


class ParameterlessLargeMethods(ContextSensitivityPolicy):
    """Hybrid 2: parameterless stop-below plus large-method stop-at.

    More dramatic behaviour than hybrid 1, but one of the few policies
    with an average speedup in the paper.
    """

    label = "hybrid2"

    def __init__(self, max_depth: int, costs: CostModel = DEFAULT_COSTS):
        super().__init__(max_depth)
        self._costs = costs

    def stop_below(self, method: MethodDef) -> bool:
        return method.is_parameterless

    def stop_at(self, caller: MethodDef) -> bool:
        return is_large(caller, self._costs)


class StaticOraclePolicy(ContextSensitivityPolicy):
    """The static-oracle baseline: all inlining decided offline.

    Not a paper policy -- the no-profile counterfactual the paper's
    online system is compared against.  Trace collection is pinned to
    depth 1 (like ``cins``) to keep listener overhead minimal and
    comparable; the profile it gathers is *never consulted*, because
    :meth:`make_oracle` replaces the profile-directed oracle with a
    :class:`~repro.analysis.static_oracle.StaticOracle` driven by a
    whole-program static call graph built once per program.
    """

    label = "static"

    def __init__(self, costs: CostModel = DEFAULT_COSTS,
                 precision: str = "rta"):
        super().__init__(max_depth=1)
        self._costs = costs
        self._precision = precision
        # One static call graph per program, built lazily on the first
        # compilation plan and shared by every oracle for that program.
        self._graphs: Dict[int, object] = {}

    def make_oracle(self, program, hierarchy, costs, *, on_refusal=None,
                    on_cha_dependency=None):
        """Controller hook: build a :class:`StaticOracle` for one plan."""
        # Imported lazily: repro.analysis sits above the policy layer,
        # and only this one policy reaches up into it.
        from repro.analysis.callgraph import build_call_graph
        from repro.analysis.static_oracle import StaticOracle

        graph = self._graphs.get(id(program))
        if graph is None:
            graph = build_call_graph(program, hierarchy=hierarchy,
                                     precision=self._precision, costs=costs)
            self._graphs[id(program)] = graph
        return StaticOracle(
            program, hierarchy, costs, graph, on_refusal=on_refusal,
            on_cha_dependency=on_cha_dependency)


class StaticContextOraclePolicy(StaticOraclePolicy):
    """The context-sensitive static baseline: k-CFA instead of a profile.

    The static counterpart of the paper's context-sensitive profiles:
    :meth:`make_oracle` installs a :class:`~repro.analysis.static_oracle.
    StaticContextOracle` that conditions every virtual-site decision on
    the inline chain above it, using a whole-program k-CFA call graph
    built once per program (alongside the flat RTA graph the bound-callee
    screens still use).  ``k`` plays the role ``max_depth`` plays for the
    profile-driven families and is sweepable the same way; trace
    collection stays pinned to depth 1 because, like ``static``, the
    gathered profile is never consulted.
    """

    label = "static-k"

    def __init__(self, k: int = 1, costs: CostModel = DEFAULT_COSTS,
                 precision: str = "rta"):
        super().__init__(costs=costs, precision=precision)
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.k = k
        self._kgraphs: Dict[int, object] = {}

    @property
    def name(self) -> str:
        return f"{self.label}(k={self.k})"

    def make_oracle(self, program, hierarchy, costs, *, on_refusal=None,
                    on_cha_dependency=None):
        """Controller hook: build a :class:`StaticContextOracle`."""
        from repro.analysis.callgraph import build_call_graph
        from repro.analysis.kcfa import build_kcfa_graph
        from repro.analysis.static_oracle import StaticContextOracle

        graph = self._graphs.get(id(program))
        if graph is None:
            graph = build_call_graph(program, hierarchy=hierarchy,
                                     precision=self._precision, costs=costs)
            self._graphs[id(program)] = graph
        kgraph = self._kgraphs.get(id(program))
        if kgraph is None:
            kgraph = build_kcfa_graph(program, hierarchy=hierarchy,
                                      k=self.k, costs=costs)
            self._kgraphs[id(program)] = kgraph
        return StaticContextOracle(
            program, hierarchy, costs, graph, kgraph,
            on_refusal=on_refusal, on_cha_dependency=on_cha_dependency)
