"""The provenance recorder: captures decisions without changing them.

Mirrors the :mod:`repro.telemetry` zero-overhead contract exactly: the
recorder charges no simulated cycles and changes no decisions, so a run
with provenance recording on is **bit-identical** (same
:class:`~repro.aos.runtime.RunResult`, same cycle clock) to the same run
with it off.  Un-instrumented runs pay nothing at all -- every
instrumentation point defaults to the :data:`NULL_PROVENANCE` singleton,
whose methods are all no-ops.

The recorder is a passive sink: the oracle reports each verdict, the
compilation thread brackets each compile (so decision records inherit
the compilation's version), and as a machine event sink it turns the
adaptive system's ``plan``, ``plan_deferred``, ``eviction``,
``invalidate`` and ``osr`` events into event records (DESIGN.md,
"Events").  :meth:`ProvenanceRecorder.bind` attaches the cycle clock,
exactly like the telemetry recorder.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.provenance.reasons import EventKind, reason_value
from repro.provenance.records import (CompilationRecord, DecisionRecord,
                                      EventRecord, ProvenanceRecord,
                                      dump_jsonl, final_decisions,
                                      split_records, write_decision_log)


class _OpenCompilation:
    __slots__ = ("method", "version", "reason", "rules_fingerprint",
                 "decisions_before")

    def __init__(self, method: str, version: int, reason: str,
                 rules_fingerprint: int, decisions_before: int):
        self.method = method
        self.version = version
        self.reason = reason
        self.rules_fingerprint = rules_fingerprint
        self.decisions_before = decisions_before


class ProvenanceRecorder:
    """Collects decision, compilation, and event records on the cycle clock."""

    enabled = True

    def __init__(self, label: str = "run"):
        self.label = label
        self._clock: Callable[[], float] = lambda: 0.0
        self.records: List[ProvenanceRecord] = []
        self._decision_count = 0
        self._open: Optional[_OpenCompilation] = None

    # -- wiring ----------------------------------------------------------------

    def bind(self, clock: Callable[[], float]) -> None:
        """Attach the simulated cycle clock source."""
        self._clock = clock

    # -- compilation bracketing -------------------------------------------------

    def begin_compilation(self, method_id: str, version: int, reason: str,
                          rules_fingerprint: int) -> None:
        """Open a compilation; subsequent decisions belong to it."""
        self._open = _OpenCompilation(method_id, version, reason,
                                      rules_fingerprint,
                                      self._decision_count)

    def end_compilation(self, inlined_bytecodes: int, code_bytes: int,
                        compile_cycles: float) -> None:
        """Close the open compilation with the compiler's outputs."""
        open_compilation = self._open
        self._open = None
        if open_compilation is None:
            return
        self.records.append(CompilationRecord(
            clock=self._clock(),
            method=open_compilation.method,
            version=open_compilation.version,
            reason=open_compilation.reason,
            rules_fingerprint=open_compilation.rules_fingerprint,
            inlined_bytecodes=inlined_bytecodes,
            code_bytes=code_bytes,
            compile_cycles=compile_cycles,
            decisions=self._decision_count
            - open_compilation.decisions_before))

    # -- decisions --------------------------------------------------------------

    def decision(self, *, root: str, caller: str, site: int, depth: int,
                 site_kind: str, selector: str, verdict: str,
                 reason, context: Sequence[Tuple[str, int]],
                 targets: Sequence[str] = (),
                 size_class: Optional[str] = None,
                 size_estimate: Optional[int] = None,
                 current_size: int = 0,
                 coverage: Optional[float] = None,
                 guard_kind: Optional[str] = None,
                 profile_weight: Optional[float] = None) -> None:
        """Record one oracle verdict (called from ``InlineOracle.decide``)."""
        version = self._open.version if self._open is not None else 0
        self._decision_count += 1
        self.records.append(DecisionRecord(
            clock=self._clock(), root=root, version=version, caller=caller,
            site=site, depth=depth, site_kind=site_kind, selector=selector,
            verdict=verdict, reason=reason_value(reason),
            context=tuple((str(c), int(s)) for c, s in context),
            targets=tuple(targets), size_class=size_class,
            size_estimate=size_estimate, current_size=current_size,
            coverage=coverage, guard_kind=guard_kind,
            profile_weight=profile_weight))

    # -- events (DESIGN.md, "Events") -------------------------------------------

    def _event(self, kind: EventKind, subject: str, **detail: Any) -> None:
        self.records.append(EventRecord(
            clock=self._clock(), kind=kind.value, subject=subject,
            detail=detail))

    def plan(self, plan, rule_count: int) -> None:
        self._event(EventKind.PLAN, plan.method_id, reason=plan.reason,
                    version=plan.version, rules=rule_count,
                    rules_fingerprint=plan.rules_fingerprint)

    def plan_deferred(self, method_id: str, trigger: str, why: str,
                      **evidence: Any) -> None:
        self._event(EventKind.PLAN_DEFERRED, method_id, trigger=trigger,
                    why=why, **evidence)

    def eviction(self, replaced, compiled) -> None:
        self._event(EventKind.EVICTION, replaced.method.id,
                    version=replaced.version, code_bytes=replaced.code_bytes,
                    replaced_by=compiled.version)

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

    def decisions_for(self, root: str) -> List[DecisionRecord]:
        """Every decision made while compiling ``root``, in order."""
        return [r for r in self.decisions if r.root == root]

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


class NullProvenance:
    """A do-nothing recorder: every instrumentation point is a no-op.

    The zero-overhead contract: instrumented code paths call through this
    singleton by default, charge no simulated cycles, and allocate
    nothing, so un-recorded runs are bit-identical to recorded ones (and
    to pre-provenance builds).
    """

    enabled = False

    def bind(self, clock) -> None:
        pass

    def begin_compilation(self, method_id: str, version: int, reason: str,
                          rules_fingerprint: int) -> None:
        pass

    def end_compilation(self, inlined_bytecodes: int, code_bytes: int,
                        compile_cycles: float) -> None:
        pass

    def decision(self, **kwargs: Any) -> None:
        pass


#: Shared no-op recorder used as the default at every instrumentation point.
NULL_PROVENANCE = NullProvenance()
