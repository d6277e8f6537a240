"""The virtually-speedable components of the adaptive optimization system.

A *causal component* is a named slice of the simulation's cost model
that a causal experiment can make virtually faster: scaling its
:class:`~repro.jvm.costs.CostModel` fields by ``1 - factor`` simulates
the component running ``factor`` faster (Coz-style virtual speedup,
arXiv:1608.03676).  Because the system is clock-driven, decisions are
*allowed* to adapt to the cheaper component -- a cheaper compiler
compiles more, cheaper organizers sample-process faster -- which is
exactly the what-if being asked: "what would the whole adaptive system
do if this part were faster?".

Only pure cost-rate fields are scaled.  Decision-side knobs (size-class
limits, inline depth, space caps, thresholds) stay fixed: scaling those
would change *policy*, not component speed, and answer a different
question.  ``invalidation`` is the one modeling stretch: it has no cost
field of its own, so its virtual speedup scales the recompile cooldown,
modeling a system that recovers from invalidated assumptions sooner.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.aos.cost_accounting import (COMPILATION, LISTENERS, ORGANIZERS,
                                       component_share)
from repro.aos.runtime import RunResult
from repro.jvm.costs import CENTI, CostModel, to_centi
from repro.jvm.errors import ConfigError


@dataclass(frozen=True)
class CausalComponent:
    """One virtually-speedable slice of the cost model."""

    name: str
    description: str
    #: :class:`CostModel` field names scaled by ``1 - factor``.
    cost_fields: Tuple[str, ...]
    #: Cost-accounting components whose cycles this slice owns, for the
    #: accounted-share contrast in reports; empty when the component's
    #: cycles are charged to the application (guard, dispatch) or are
    #: not cycles at all (invalidation cooldown).
    accounting: Tuple[str, ...] = ()


#: The registry, in report order.
CAUSAL_COMPONENTS: Tuple[CausalComponent, ...] = (
    CausalComponent(
        name="guard",
        description="inline guard (class test) execution at guarded "
                    "inline sites",
        cost_fields=("guard_test",)),
    CausalComponent(
        name="dispatch",
        description="virtual dispatch and non-inlined call overhead",
        cost_fields=("virtual_dispatch", "call_overhead")),
    CausalComponent(
        name="compile",
        description="baseline and optimizing compiler throughput",
        cost_fields=("opt_compile_cycles_per_bc",
                     "baseline_compile_cycles_per_bc"),
        accounting=(COMPILATION,)),
    CausalComponent(
        name="organizer",
        description="organizer threads and controller event processing",
        cost_fields=("dcg_ingest_cost", "ai_examine_cost",
                     "method_organizer_cost", "decay_entry_cost",
                     "missing_edge_check_cost", "controller_event_cost"),
        accounting=ORGANIZERS),
    CausalComponent(
        name="listener",
        description="timer-sample listeners (method + trace)",
        cost_fields=("method_listener_cost", "trace_frame_cost"),
        accounting=(LISTENERS,)),
    CausalComponent(
        name="invalidation",
        description="recovery latency after invalidated speculation "
                    "(recompile cooldown)",
        cost_fields=("recompile_cooldown",)),
)

_BY_NAME: Dict[str, CausalComponent] = {
    component.name: component for component in CAUSAL_COMPONENTS
}


def component_names() -> Tuple[str, ...]:
    """Registry names in report order."""
    return tuple(component.name for component in CAUSAL_COMPONENTS)


def get_component(name: str) -> CausalComponent:
    """Look a component up by name; unknown names fail diagnosably."""
    try:
        return _BY_NAME[name]
    except KeyError:
        close = difflib.get_close_matches(name, sorted(_BY_NAME), n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ConfigError(
            f"unknown causal component {name!r}{hint}; "
            f"expected one of {', '.join(component_names())}") from None


def apply_virtual_speedup(costs: CostModel, component: str,
                          factor: float) -> CostModel:
    """Cost model with one component made ``factor`` faster.

    ``factor`` is the virtual-speedup fraction: ``0.25`` makes the
    component 25% faster (its cost fields scale to 75%), ``1.0`` makes
    it free.  ``factor`` must lie in ``(0, 1]`` -- a zero speedup is
    the baseline run, not an experiment.

    Each scaled cost is rounded to whole centi-cycles, half to even (the
    clock's unit, :data:`~repro.jvm.costs.CENTI`), so the scaled model
    charges exactly the cycles it states.
    """
    if not 0.0 < factor <= 1.0:
        raise ConfigError(
            f"virtual-speedup factor must be in (0, 1], got {factor!r}")
    spec = get_component(component)
    remaining = 1.0 - factor
    return costs.replace(**{
        name: to_centi(getattr(costs, name) * remaining) / CENTI
        for name in spec.cost_fields
    })


def accounted_share(component: str, result: RunResult,
                    costs: CostModel) -> Optional[float]:
    """The component's *accounted* fraction of a run's total cycles.

    This is the conventional profiler's answer ("X% of time is spent
    here"), reported next to the causal profiler's measured effect so
    the report can show where the two disagree.  Accounting-backed
    components read :attr:`RunResult.component_cycles`; guard and
    dispatch cycles are charged to the application, so their share is
    estimated from event counts times unit costs.  ``invalidation`` has
    no cycle cost at all (the cooldown is latency, not work) and
    returns ``None``.
    """
    spec = get_component(component)
    if spec.accounting:
        return component_share(result.component_cycles, spec.accounting)
    total = result.total_cycles
    if total <= 0:
        return 0.0
    if component == "guard":
        return result.guard_tests * costs.guard_test / total
    if component == "dispatch":
        estimated = (result.dispatches * costs.virtual_dispatch
                     + result.calls * costs.call_overhead)
        return estimated / total
    return None
