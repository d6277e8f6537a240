"""The provenance recorder: captures decisions without changing them.

Mirrors the :mod:`repro.telemetry` zero-overhead contract exactly: the
recorder charges no simulated cycles and changes no decisions, so a run
with provenance recording on is **bit-identical** (same
:class:`~repro.aos.runtime.RunResult`, same cycle clock) to the same run
with it off.  An unrecorded run fires no event at all.

The recorder is a machine event sink (DESIGN.md, "Events") that reads
the clock of the machine it watches.  Each ``decision`` becomes a
decision record carrying its compilation's version; each ``compile``
becomes a compilation record counting the decisions since the last one,
followed by an eviction record when it replaced installed code; and the
adaptive system's ``plan``, ``plan_deferred``, ``invalidate`` and
``osr`` events become event records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.jvm.costs import CENTI
from repro.jvm.program import StaticCall
from repro.provenance.reasons import EventKind
from repro.provenance.records import (CompilationRecord, DecisionRecord,
                                      EventRecord, ProvenanceRecord,
                                      dump_jsonl, final_decisions,
                                      split_records, write_decision_log)


class ProvenanceRecorder:
    """Collects decision, compilation, and event records on the cycle clock."""

    #: The watched machine; the adaptive runtime sets it.
    machine = None

    def __init__(self, label: str = "run"):
        self.label = label
        self.records: List[ProvenanceRecord] = []
        #: Decisions recorded since the last compilation record.
        self._decisions = 0

    def _clock(self) -> float:
        return self.machine.clock / CENTI

    # -- events (DESIGN.md, "Events") -------------------------------------------

    def _event(self, kind: EventKind, subject: str, **detail: Any) -> None:
        self.records.append(EventRecord(
            clock=self._clock(), kind=kind.value, subject=subject,
            detail=detail))

    def decision(self, root, version: int, stmt, comp_context, depth: int,
                 current_size: int, decision) -> None:
        caller, site = comp_context[0]
        if isinstance(stmt, StaticCall):
            site_kind, selector = "static", stmt.target
        else:
            site_kind, selector = "virtual", stmt.selector
        self._decisions += 1
        self.records.append(DecisionRecord(
            clock=self._clock(), root=root.id, version=version,
            caller=caller, site=site, depth=depth, site_kind=site_kind,
            selector=selector, verdict=decision.verdict,
            reason=decision.reason, context=comp_context,
            targets=tuple(target.id for target in decision.targets),
            size_class=decision.size_class,
            size_estimate=decision.estimate, current_size=current_size,
            coverage=decision.coverage, guard_kind=decision.guard_kind,
            profile_weight=decision.weight))

    def compile(self, plan, compiled, replaced) -> None:
        self.records.append(CompilationRecord(
            clock=self._clock(), method=plan.method_id,
            version=plan.version, reason=plan.reason,
            rules_fingerprint=plan.rules_fingerprint,
            inlined_bytecodes=compiled.inlined_bytecodes,
            code_bytes=compiled.code_bytes,
            compile_cycles=compiled.compile_cycles,
            decisions=self._decisions))
        self._decisions = 0
        if replaced is not None:
            self._event(EventKind.EVICTION, replaced.method.id,
                        version=replaced.version,
                        code_bytes=replaced.code_bytes,
                        replaced_by=compiled.version)

    def plan(self, plan, rule_count: int) -> None:
        self._event(EventKind.PLAN, plan.method_id, reason=plan.reason,
                    version=plan.version, rules=rule_count,
                    rules_fingerprint=plan.rules_fingerprint)

    def plan_deferred(self, method_id: str, trigger: str, why: str,
                      **evidence: Any) -> None:
        self._event(EventKind.PLAN_DEFERRED, method_id, trigger=trigger,
                    why=why, **evidence)

    def invalidate(self, removed, selector: str, loaded_class: str) -> None:
        self._event(EventKind.INVALIDATE, removed.method.id,
                    version=removed.version, code_bytes=removed.code_bytes,
                    selector=selector, loaded_class=loaded_class)

    def osr(self, method_id: str) -> None:
        self._event(EventKind.OSR, method_id)

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    @property
    def decisions(self) -> List[DecisionRecord]:
        return split_records(self.records)[0]

    @property
    def compilations(self) -> List[CompilationRecord]:
        return split_records(self.records)[1]

    @property
    def events(self) -> List[EventRecord]:
        return split_records(self.records)[2]

    def final_decisions(self) -> Dict[Tuple, DecisionRecord]:
        """Last decision per (caller, site, context) key."""
        return final_decisions(self.decisions)

    # -- export -----------------------------------------------------------------

    def to_jsonl(self, meta: Optional[Dict[str, Any]] = None) -> str:
        """The full record stream as versioned JSONL text."""
        header = {"label": self.label}
        if meta:
            header.update(meta)
        return dump_jsonl(self.records, header)

    def write_jsonl(self, path: str,
                    meta: Optional[Dict[str, Any]] = None) -> int:
        """Write the record stream to ``path``; returns the record count."""
        header = {"label": self.label}
        if meta:
            header.update(meta)
        return write_decision_log(path, self.records, header)
