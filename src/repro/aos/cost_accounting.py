"""Per-component cycle accounting for the adaptive optimization system.

Figure 6 of the paper reports the percentage of execution time spent in
each AOS component (listeners, organizers, controller, compilation thread).
Every cycle the simulation spends is attributed to exactly one of the
components below; ``APP`` covers the application itself (including dispatch
overhead and inline guards, which are application-visible costs).  Cycles
are counted in exact centi-cycles, so the application's share is simply
the clock minus every AOS component, and nothing accumulates it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.jvm.costs import CENTI

#: Component names, mirroring Figure 6's legend.
APP = "app"
LISTENERS = "aos_listeners"
COMPILATION = "compilation_thread"
DECAY_ORGANIZER = "decay_organizer"
AI_ORGANIZER = "ai_organizer"
METHOD_ORGANIZER = "method_sample_organizer"
CONTROLLER = "controller_thread"

AOS_COMPONENTS = (LISTENERS, COMPILATION, DECAY_ORGANIZER, AI_ORGANIZER,
                  METHOD_ORGANIZER, CONTROLLER)
ALL_COMPONENTS = (APP,) + AOS_COMPONENTS

#: The organizer threads plus the controller: everything that runs "in the
#: background" between samples.  The causal profiler treats these as one
#: virtually-speedable component.
ORGANIZERS = (DECAY_ORGANIZER, AI_ORGANIZER, METHOD_ORGANIZER, CONTROLLER)


def component_share(cycles: Mapping[str, float],
                    components: Sequence[str]) -> float:
    """Fraction of total cycles attributed to the given components.

    Operates on a persisted ``component_cycles`` snapshot (e.g.
    ``RunResult.component_cycles``), so reports can contrast a causal
    experiment's *measured* effect with the component's *accounted*
    share without re-running anything.
    """
    total = sum(cycles.values())
    if total == 0:
        return 0.0
    return sum(cycles.get(name, 0.0) for name in components) / total


class CostAccounting:
    """Centi-cycles charged to each AOS component, answering
    Figure-6-style queries at a given clock (in centi-cycles).

    The application is never charged here: its share is the clock minus
    every AOS component, exact because every charge is a whole number of
    centi-cycles.
    """

    def __init__(self) -> None:
        self.cycles: Dict[str, int] = {name: 0 for name in AOS_COMPONENTS}

    def charge(self, component: str, centi: int) -> None:
        self.cycles[component] += centi

    def app(self, clock: int) -> int:
        """The application's centi-cycles when the clock reads ``clock``."""
        return clock - sum(self.cycles.values())

    def snapshot(self, clock: int) -> Dict[str, float]:
        """Cycles per component, ``APP`` included, at ``clock``."""
        out = {APP: self.app(clock) / CENTI}
        for name, centi in self.cycles.items():
            out[name] = centi / CENTI
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v / CENTI:.0f}"
                          for k, v in self.cycles.items() if v)
        return f"<CostAccounting {parts}>"
