"""The AOS event timeline that ``repro inspect`` prints.

Jikes RVM's AOS can emit a log of its decisions; reconstructing *why* the
online system did what it did (why was this method recompiled four times?
when did that rule first appear?) is otherwise archaeology.  An
:class:`EventLog` is a machine event sink (DESIGN.md, "Events") that
consumes the adaptive system's ``compile``, ``invalidate``, ``osr``,
``rules`` and ``decay`` events.  Attach it as any other sink::

    log = EventLog()
    AdaptiveRuntime(program, policy, sinks=[log]).run()

Each event becomes an :class:`~repro.provenance.records.EventRecord`
stamped with the machine's clock in cycles, in the
:class:`~repro.provenance.reasons.EventKind` vocabulary the provenance log
uses.  Like every sink it charges no cycles and changes no decisions, so
logged and unlogged runs are cycle-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.jvm.costs import CENTI
from repro.metrics.report import format_table
from repro.provenance.reasons import EventKind
from repro.provenance.records import EventRecord


class EventLog:
    """An append-only event timeline with simple query and rendering
    helpers."""

    #: The watched machine; the adaptive runtime sets it.
    machine = None

    def __init__(self) -> None:
        self.events: List[EventRecord] = []
        #: ``(callee, context)`` keys of the rule set last seen.
        self._rules: set = set()

    def _record(self, kind: EventKind, subject: str, **detail: Any) -> None:
        self.events.append(
            EventRecord(self.machine.clock / CENTI, kind.value, subject,
                        detail))

    # -- events ------------------------------------------------------------------

    def compile(self, plan, compiled, replaced) -> None:
        self._record(EventKind.COMPILE, plan.method_id,
                     version=f"v{plan.version}", reason=plan.reason,
                     inlined_bc=compiled.inlined_bytecodes)

    def invalidate(self, removed, selector: str, loaded_class: str) -> None:
        self._record(EventKind.INVALIDATE, removed.method.id,
                     selector=selector)

    def osr(self, method_id: str) -> None:
        self._record(EventKind.OSR, method_id, trigger="backedge threshold")

    def rules(self, rules) -> None:
        """Log the rules added and retired since the last change, each in
        sorted key order (set order would follow PYTHONHASHSEED)."""
        current = {(rule.key.callee, rule.key.context) for rule in rules}
        for kind, keys in ((EventKind.RULE_ADDED, current - self._rules),
                           (EventKind.RULE_RETIRED, self._rules - current)):
            for callee, context in sorted(keys):
                caller, site = context[0]
                self._record(kind, f"{caller}@{site}=>{callee}")
        self._rules = current

    def decay(self, total_weight: float) -> None:
        self._record(EventKind.DECAY, "dcg", total=f"{total_weight:.0f}")

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[EventRecord]:
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        out = {kind.value: 0 for kind in EventKind}
        for event in self.events:
            out[event.kind] += 1
        return out

    # -- rendering -----------------------------------------------------------------

    def render_timeline(self, limit: Optional[int] = None) -> str:
        """A chronological table of events (optionally the first N)."""
        events = self.events if limit is None else self.events[:limit]
        rows = [[f"{e.clock:,.0f}", e.kind, e.subject,
                 " ".join(f"{key}={value}"
                          for key, value in e.detail.items())]
                for e in events]
        return format_table(["cycle", "event", "subject", "detail"], rows,
                            title=f"AOS event timeline ({len(self.events)} "
                                  f"events)")

    def render_summary(self) -> str:
        rows = [[kind, str(count)]
                for kind, count in self.counts().items() if count]
        return format_table(["event", "count"], rows,
                            title="AOS event summary")
