"""Structured provenance records and their versioned JSONL schema.

One adaptive run produces a stream of records:

* :class:`DecisionRecord` -- one oracle verdict at one call site inside
  one compilation, with the full compilation context, reason code, size
  class, Equation-3 coverage, guard kind, and the profile weight behind
  the verdict;
* :class:`CompilationRecord` -- one optimizing compilation (the unit the
  decisions belong to);
* :class:`EventRecord` -- controller plans and deferrals, code-cache
  evictions, invalidations, and OSR requests.

On-disk format (``*.decisions.jsonl``): the first line is a header
object ``{"schema": "repro.provenance/v2", ...}`` carrying run metadata;
every following line is one record with a ``"t"`` discriminator
(``decision`` / ``compilation`` / ``event``).  The schema version is
bumped only for breaking changes (renamed/removed fields or reason
codes); added fields and added reason codes are backward compatible and
readers must ignore/pass through what they do not know.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.atomic_file import write_atomic

#: Versioned schema identifier written into every JSONL header.
SCHEMA = "repro.provenance/v2"

#: A compilation context as stored in records: innermost-first
#: ``((caller_id, site), ...)`` exactly like
#: :data:`repro.profiles.trace.Context`.
RecordContext = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class DecisionRecord:
    """One oracle verdict for one call site, with its evidence."""

    clock: float                 #: cycle clock at decision time
    root: str                    #: compilation root method id
    version: int                 #: optimizing version being built
    caller: str                  #: method containing the call site
    site: int                    #: call-site id within ``caller``
    depth: int                   #: inline nesting depth of the site
    site_kind: str               #: "static" | "virtual"
    selector: str                #: callee selector or static target id
    verdict: str                 #: "direct" | "guarded" | "refused"
    reason: str                  #: a :class:`ReasonCode` value
    context: RecordContext       #: innermost-first compilation context
    targets: Tuple[str, ...] = ()  #: inlined target method ids
    size_class: Optional[str] = None   #: callee size class, when screened
    size_estimate: Optional[int] = None  #: estimated inlined bytecodes
    current_size: int = 0        #: bytecodes committed before this site
    coverage: Optional[float] = None   #: Eq.-3 guard coverage, when tested
    guard_kind: Optional[str] = None   #: class_test/method_test/preexistence
    profile_weight: Optional[float] = None  #: profile weight consumed

    @property
    def inline(self) -> bool:
        return self.verdict != "refused"

    @property
    def site_key(self) -> Tuple[str, int, RecordContext]:
        """The (caller, site, context) key decision diffs align on."""
        return (self.caller, self.site, self.context)


@dataclass(frozen=True)
class CompilationRecord:
    """One optimizing compilation, grouping its decision records."""

    clock: float
    method: str
    version: int
    reason: str                  #: "hot" | "osr" | "missing_edge"
    rules_fingerprint: int
    inlined_bytecodes: int
    code_bytes: int
    compile_cycles: float
    decisions: int               #: decision records made in this compile


@dataclass(frozen=True)
class EventRecord:
    """One non-decision provenance event (controller/cache/runtime)."""

    clock: float
    kind: str                    #: an :class:`EventKind` value
    subject: str                 #: method id or other subject
    detail: Dict[str, Any] = field(default_factory=dict)


ProvenanceRecord = Union[DecisionRecord, CompilationRecord, EventRecord]

#: ``"t"`` discriminator per record type.
_TYPE_TAGS = {DecisionRecord: "decision", CompilationRecord: "compilation",
              EventRecord: "event"}
_TAG_TYPES = {tag: cls for cls, tag in _TYPE_TAGS.items()}


def record_to_dict(record: ProvenanceRecord) -> dict:
    """One record as a JSON-ready dict with its ``"t"`` discriminator."""
    payload: Dict[str, Any] = {"t": _TYPE_TAGS[type(record)]}
    payload.update(dataclasses.asdict(record))
    if isinstance(record, DecisionRecord):
        payload["context"] = [list(pair) for pair in record.context]
        payload["targets"] = list(record.targets)
    return payload


def record_from_dict(raw: Mapping[str, Any]) -> ProvenanceRecord:
    """Rebuild one record from :func:`record_to_dict` output."""
    fields = dict(raw)
    tag = fields.pop("t", None)
    cls = _TAG_TYPES.get(tag)
    if cls is None:
        raise ValueError(f"unknown provenance record type {tag!r}")
    if cls is DecisionRecord:
        fields["context"] = tuple((str(c), int(s))
                                  for c, s in fields["context"])
        fields["targets"] = tuple(fields.get("targets", ()))
    known = {f.name for f in dataclasses.fields(cls)}
    # Forward compatibility: ignore fields added by newer minor revisions.
    fields = {k: v for k, v in fields.items() if k in known}
    return cls(**fields)


# -- JSONL persistence ---------------------------------------------------------


def dump_jsonl(records: Iterable[ProvenanceRecord],
               meta: Optional[Mapping[str, Any]] = None) -> str:
    """Serialize a record stream (header line first) to JSONL text."""
    header: Dict[str, Any] = {"schema": SCHEMA}
    if meta:
        header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(record_to_dict(r), sort_keys=True)
                 for r in records)
    return "\n".join(lines) + "\n"


def write_decision_log(path: str, records: Iterable[ProvenanceRecord],
                       meta: Optional[Mapping[str, Any]] = None) -> int:
    """Atomically write a decision log; returns the record count.

    Atomic for the same reason the sweep cell cache is: a kill mid-write
    must not leave a half-log that poisons a later ``decisions diff``.
    """
    records = list(records)
    write_atomic(path, dump_jsonl(records, meta))
    return len(records)


def parse_jsonl(text: str) \
        -> Tuple[Dict[str, Any], List[ProvenanceRecord]]:
    """Parse JSONL text into ``(header meta, records)``.

    Raises :class:`ValueError` on a missing/incompatible schema header so
    callers fail loudly instead of silently diffing garbage.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty decision log")
    header = json.loads(lines[0])
    schema = header.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"unsupported decision-log schema {schema!r} "
                         f"(this build reads {SCHEMA!r})")
    return header, [record_from_dict(json.loads(line))
                    for line in lines[1:]]


def read_decision_log(path: str) \
        -> Tuple[Dict[str, Any], List[ProvenanceRecord]]:
    """Read one ``*.decisions.jsonl`` file into ``(meta, records)``."""
    with open(path) as handle:
        return parse_jsonl(handle.read())


def split_records(records: Iterable[ProvenanceRecord]) \
        -> Tuple[List[DecisionRecord], List[CompilationRecord],
                 List[EventRecord]]:
    """Partition a mixed record stream by type, preserving order."""
    decisions: List[DecisionRecord] = []
    compilations: List[CompilationRecord] = []
    events: List[EventRecord] = []
    for record in records:
        if isinstance(record, DecisionRecord):
            decisions.append(record)
        elif isinstance(record, CompilationRecord):
            compilations.append(record)
        else:
            events.append(record)
    return decisions, compilations, events


def final_decisions(decisions: Sequence[DecisionRecord]) \
        -> Dict[Tuple[str, int, RecordContext], DecisionRecord]:
    """The *last* decision per (caller, site, context) key.

    A method recompiled N times decides each site N times; the last
    record describes the code actually installed at the end of the run,
    which is what cross-run diffs should compare.  Non-decision records
    in the input (a full mixed log) are ignored.
    """
    latest: Dict[Tuple[str, int, RecordContext], DecisionRecord] = {}
    for record in decisions:
        if isinstance(record, DecisionRecord):
            latest[record.site_key] = record
    return latest
