"""AOS listeners: method, edge, and trace sampling (paper Sections 3.2-3.3).

Listeners run at every timer sample:

* the **method listener** records the physical method whose machine code is
  executing -- this drives hot-method detection and the controller's
  recompilation decisions;
* the **trace listener** (the paper's addition; it subsumes the edge
  listener, which is exactly the depth-1 walk) inspects the *source-level*
  call stack and records a trace sample of the form
  ``caller_1, callsite_1, ..., caller_n, callsite_n, callee`` where the
  depth ``n`` is governed by the active context-sensitivity policy.

Because the interpreter pushes marker frames for inlined activations, the
trace listener naturally sees through optimized stack frames -- the
"missing frame" hazard of Section 3.3 cannot occur here, mirroring Jikes
RVM's use of its source-level stack decoding mechanisms.

The listeners charge their cycles to the ``aos_listeners`` component, with
the trace listener paying per frame traversed; Figure 6's observation that
context-sensitive listeners cost up to 2x more (yet stay negligible)
reproduces directly from this accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.compiler.size_estimator import is_large
from repro.jvm.costs import CostModel
from repro.jvm.frames import Frame, physical_method
from repro.jvm.program import MethodDef
from repro.policies.base import ContextSensitivityPolicy
from repro.profiles.trace import TraceKey


class MethodListener:
    """Records one (physical) method sample per timer tick."""

    def __init__(self) -> None:
        self.buffer: List[str] = []
        self.samples_taken = 0

    def sample(self, stack: List[Frame]) -> Optional[str]:
        method = physical_method(stack)
        if method is None:
            return None
        self.samples_taken += 1
        self.buffer.append(method.id)
        return method.id

    def drain(self) -> List[str]:
        out = self.buffer
        self.buffer = []
        return out


class TraceListener:
    """Samples policy-bounded call traces from the source-level stack.

    The walk (shared by every policy; see
    :class:`repro.policies.base.ContextSensitivityPolicy` for the hook
    semantics):

    1. ``m0`` is the sampled callee (top of the source-level stack); edge 1
       (its immediate caller and call site) is always recorded -- it is the
       classic context-insensitive edge sample;
    2. before adding edge *e* (e >= 2), stop if ``policy.stop_below`` holds
       for ``m_{e-2}``;
    3. after adding edge *e*, stop if ``policy.stop_at`` holds for the
       caller just added;
    4. never exceed ``policy.depth_limit(caller_1, site_1)`` edges.
    """

    def __init__(self, policy: ContextSensitivityPolicy):
        self.policy = policy
        self.buffer: List[TraceKey] = []
        self.samples_taken = 0
        #: Histogram of frames traversed per sample (edge count -> samples).
        self.depth_histogram: Dict[int, int] = {}
        #: Why each walk ended: "max_depth", "stack", "stop_below", "stop_at".
        self.termination_reasons: Dict[str, int] = {}

    def sample(self, stack: List[Frame]) -> Optional[TraceKey]:
        """Take one trace sample; returns the recorded key (or None)."""
        if len(stack) < 2 or stack[-1].site is None:
            return None  # no call edge exists yet (still in main's prologue)

        policy = self.policy
        callee = stack[-1].method
        caller_1 = stack[-2].method
        site_1 = stack[-1].site
        context: List[Tuple[str, int]] = [(caller_1.id, site_1)]
        reason = "max_depth"

        if policy.stop_at(caller_1):
            reason = "stop_at"
        elif policy.max_depth > 1:
            # Edge 1 determines the per-site depth limit.
            limit = min(policy.max_depth,
                        policy.depth_limit(caller_1.id, site_1))
            chain: List[MethodDef] = [callee, caller_1]
            edges = 1
            while edges < limit:
                # Gate for edge e+1: can state flow through m_{e-1}?
                if policy.stop_below(chain[edges - 1]):
                    reason = "stop_below"
                    break
                if len(stack) < edges + 2 or stack[-1 - edges].site is None:
                    reason = "stack"
                    break
                next_caller = stack[-2 - edges].method
                context.append((next_caller.id, stack[-1 - edges].site))
                chain.append(next_caller)
                edges += 1
                if policy.stop_at(next_caller):
                    reason = "stop_at"
                    break

        key = TraceKey(callee.id, context)
        self.buffer.append(key)
        self.samples_taken += 1
        depth = len(context)
        self.depth_histogram[depth] = self.depth_histogram.get(depth, 0) + 1
        self.termination_reasons[reason] = \
            self.termination_reasons.get(reason, 0) + 1
        return key

    def drain(self) -> List[TraceKey]:
        out = self.buffer
        self.buffer = []
        return out

    def walk_cost(self, key: TraceKey, costs: CostModel) -> float:
        """Listener cycles for one sample: per-frame traversal cost."""
        return (len(key.context) + 1) * costs.trace_frame_cost

    def mean_depth(self) -> float:
        total = sum(self.depth_histogram.values())
        if total == 0:
            return 0.0
        return sum(d * n for d, n in self.depth_histogram.items()) / total


class TerminationStatsProbe:
    """Instrumentation reproducing the paper's Section 4 in-text statistics.

    Independently of the active policy, records for each sample where the
    first parameterless method, first class (static) method, and first
    large method occur in the call chain (positions are 0 for the callee
    itself, 1 for its caller, and so on, capped at ``horizon``).  It is a
    machine event sink consuming ``sample`` (DESIGN.md, "Events").
    """

    def __init__(self, costs: CostModel, horizon: int = 6):
        self._costs = costs
        self.horizon = horizon
        self.samples = 0
        self.first_parameterless: Dict[int, int] = {}   # position -> count
        self.first_class_method: Dict[int, int] = {}
        self.first_large: Dict[int, int] = {}
        self._NOT_FOUND = horizon + 1

    def sample(self, stack: List[Frame]) -> None:
        if len(stack) < 2 or stack[-1].site is None:
            return
        self.samples += 1
        chain = [f.method for f in reversed(stack)][:self.horizon + 1]

        self._record(self.first_parameterless, chain,
                     lambda m: m.is_parameterless)
        self._record(self.first_class_method, chain, lambda m: m.is_static)
        self._record(self.first_large, chain,
                     lambda m: is_large(m, self._costs))

    def _record(self, histogram: Dict[int, int], chain, predicate) -> None:
        position = self._NOT_FOUND
        for index, method in enumerate(chain):
            if predicate(method):
                position = index
                break
        histogram[position] = histogram.get(position, 0) + 1

    # -- the paper's quoted statistics -----------------------------------------

    def fraction_immediately_parameterless(self) -> float:
        """Paper: ~20% of sampled callees are immediately parameterless."""
        if self.samples == 0:
            return 0.0
        return self.first_parameterless.get(0, 0) / self.samples

    def fraction_parameterless_within(self, levels: int = 5) -> float:
        """Paper: 50-80% contain a parameterless call within five levels."""
        if self.samples == 0:
            return 0.0
        hits = sum(n for pos, n in self.first_parameterless.items()
                   if pos <= levels)
        return hits / self.samples

    def fraction_class_method_within(self, edges: int = 2) -> float:
        """Paper: 50-80% hit a class method within two call edges."""
        if self.samples == 0:
            return 0.0
        hits = sum(n for pos, n in self.first_class_method.items()
                   if pos <= edges)
        return hits / self.samples

    def fraction_large_at_or_beyond(self, edges: int = 4) -> float:
        """Paper: ~half need four or more edges to reach a large method."""
        if self.samples == 0:
            return 0.0
        hits = sum(n for pos, n in self.first_large.items() if pos >= edges)
        return hits / self.samples
