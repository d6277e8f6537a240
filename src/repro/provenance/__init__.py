"""Decision provenance: a causal audit trail for the adaptive system.

The paper's central claims -- context-sensitive profiles change *which*
call sites get inlined, eliminate guards, and control code-space growth
-- are invisible in aggregate run metrics.  This subsystem captures every
oracle verdict as a structured record (site, context, reason code, size
class, Equation-3 coverage, guard kind, profile weight), plus controller
recompilation decisions and code-cache evictions/invalidations, all on
the simulated cycle clock and all at **zero cycle overhead**: recording
changes no decisions and charges no cycles, so recorded and unrecorded
runs are bit-identical.  The recorder consumes the machine's events
(DESIGN.md, "Events"); nothing below the adaptive runtime holds it.

Parts:

* :mod:`~repro.provenance.reasons` -- the closed :class:`ReasonCode` and
  :class:`EventKind` vocabularies (shared with the AOS event log);
* :mod:`~repro.provenance.records` -- record dataclasses and the
  versioned JSONL schema;
* :mod:`~repro.provenance.recorder` -- the :class:`ProvenanceRecorder`
  event sink;
* :mod:`~repro.provenance.explain` -- per-site decision trees
  (``repro explain``);
* :mod:`~repro.provenance.diff` -- cross-run decision diffing
  (``repro decisions diff``).
"""

from repro.provenance.reasons import (EventKind, GUARD_CLASS_TEST,
                                      GUARD_KINDS, GUARD_METHOD_TEST,
                                      GUARD_PREEXISTENCE, INLINE_REASONS,
                                      REASON_CODES, REFUSAL_REASONS,
                                      ReasonCode, VERDICT_DIRECT,
                                      VERDICT_GUARDED, VERDICT_REFUSED,
                                      VERDICTS)
from repro.provenance.records import (CompilationRecord, DecisionRecord,
                                      EventRecord, ProvenanceRecord, SCHEMA,
                                      dump_jsonl, final_decisions,
                                      parse_jsonl, read_decision_log,
                                      record_from_dict, record_to_dict,
                                      split_records, write_decision_log)
from repro.provenance.recorder import ProvenanceRecorder
from repro.provenance.explain import (available_roots, explain_method,
                                      format_decision)
from repro.provenance.diff import (DecisionDiff, Flip, diff_decisions,
                                   diff_logs, render_diff)

__all__ = [
    "CompilationRecord", "DecisionDiff", "DecisionRecord", "EventKind",
    "EventRecord", "Flip", "GUARD_CLASS_TEST", "GUARD_KINDS",
    "GUARD_METHOD_TEST", "GUARD_PREEXISTENCE", "INLINE_REASONS",
    "ProvenanceRecord", "ProvenanceRecorder", "REASON_CODES",
    "REFUSAL_REASONS", "ReasonCode", "SCHEMA", "VERDICTS", "VERDICT_DIRECT",
    "VERDICT_GUARDED", "VERDICT_REFUSED", "available_roots",
    "diff_decisions", "diff_logs", "dump_jsonl", "explain_method",
    "final_decisions", "format_decision", "parse_jsonl",
    "read_decision_log", "record_from_dict", "record_to_dict",
    "render_diff", "split_records", "write_decision_log",
]
