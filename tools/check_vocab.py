#!/usr/bin/env python3
"""Lint the closed provenance/verifier vocabularies against DESIGN.md.

The decision logs are diffable only because "why" is an enumerable
value; that property erodes silently when a new code lands in an enum
without documentation, or a doc table keeps a row for a code that no
longer exists.  This lint makes the drift loud:

* ``ReasonCode``: the DESIGN.md reason-code table and the enum must
  name exactly the same codes, the table's verdict column must agree
  with the ``INLINE_REASONS``/``REFUSAL_REASONS`` partition, and that
  partition must be an exact disjoint cover of ``REASON_CODES``.
* ``EventKind``: the DESIGN.md event-kind table and the enum must
  match, and ``aos/event_log.py``'s derived constants must be a subset
  of the enum's values.
* ``VerifierError``: every code in ``VERIFIER_CODES`` must be
  documented in DESIGN.md (and no documented code may be dead).
* Derived copies: the oracle's ``RECORDED_REFUSALS`` must be refusal
  codes.

Run from the repository root: ``PYTHONPATH=src python tools/check_vocab.py``.
Exits nonzero listing every violation (never just the first).
"""

from __future__ import annotations

import os
import re
import sys
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESIGN_PATH = os.path.join(REPO_ROOT, "DESIGN.md")

sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Verdict-column values that accompany an inline-family reason.
INLINE_VERDICTS = {"inline", "guarded"}


def parse_table(text: str, header: str) -> Dict[str, str]:
    """Extract ``code -> verdict/second-column`` from a DESIGN.md table.

    ``header`` identifies the table by its header row (e.g.
    ``"| Code | Verdict | Meaning |"``).  Rows are read until the first
    non-table line.
    """
    lines = text.splitlines()
    try:
        start = lines.index(header)
    except ValueError:
        return {}
    rows: Dict[str, str] = {}
    for line in lines[start + 2:]:  # skip the |---| separator
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) < 2:
            break
        match = re.fullmatch(r"`([^`]+)`", cells[0])
        if match is None:
            break
        rows[match.group(1)] = cells[1]
    return rows


def backticked(text: str) -> frozenset:
    return frozenset(re.findall(r"`([^`\n]+)`", text))


def main() -> int:
    from repro.analysis.verifier import VERIFIER_CODES
    from repro.aos import event_log
    from repro.compiler.oracle import RECORDED_REFUSALS
    from repro.provenance.reasons import (EventKind, INLINE_REASONS,
                                          REASON_CODES, REFUSAL_REASONS)

    with open(DESIGN_PATH) as handle:
        design = handle.read()

    problems: List[str] = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    # -- ReasonCode: enum partition ---------------------------------------
    check(INLINE_REASONS | REFUSAL_REASONS == REASON_CODES,
          "INLINE_REASONS + REFUSAL_REASONS do not cover REASON_CODES: "
          f"missing {sorted(REASON_CODES - INLINE_REASONS - REFUSAL_REASONS)}")
    check(not (INLINE_REASONS & REFUSAL_REASONS),
          "INLINE_REASONS and REFUSAL_REASONS overlap: "
          f"{sorted(INLINE_REASONS & REFUSAL_REASONS)}")

    # -- ReasonCode: DESIGN.md table --------------------------------------
    reason_table = parse_table(design, "| Code | Verdict | Meaning |")
    check(bool(reason_table), "DESIGN.md reason-code table not found")
    for code in sorted(REASON_CODES - set(reason_table)):
        problems.append(
            f"reason code `{code}` is not documented in the DESIGN.md "
            "reason-code table")
    for code in sorted(set(reason_table) - REASON_CODES):
        problems.append(
            f"DESIGN.md documents reason code `{code}` which does not "
            "exist in ReasonCode")
    for code, verdict in sorted(reason_table.items()):
        if code not in REASON_CODES:
            continue
        documented_inline = verdict in INLINE_VERDICTS
        actual_inline = code in INLINE_REASONS
        check(documented_inline == actual_inline,
              f"reason code `{code}`: DESIGN.md says verdict "
              f"{verdict!r} but the enum partition says "
              f"{'inline' if actual_inline else 'refused'}")

    # -- EventKind ---------------------------------------------------------
    event_values = frozenset(kind.value for kind in EventKind)
    event_table = parse_table(design, "| Kind | Emitted when |")
    check(bool(event_table), "DESIGN.md event-kind table not found")
    for kind in sorted(event_values - set(event_table)):
        problems.append(
            f"event kind `{kind}` is not documented in the DESIGN.md "
            "event-kind table")
    for kind in sorted(set(event_table) - event_values):
        problems.append(
            f"DESIGN.md documents event kind `{kind}` which does not "
            "exist in EventKind")
    derived = frozenset((event_log.COMPILE, event_log.RULE_ADDED,
                         event_log.RULE_RETIRED, event_log.INVALIDATE,
                         event_log.OSR, event_log.DECAY))
    check(derived <= event_values,
          "aos/event_log.py constants drifted from EventKind: "
          f"{sorted(derived - event_values)}")
    check(frozenset(event_log.EVENT_KINDS) == event_values,
          "aos/event_log.py EVENT_KINDS != EventKind values")

    # -- VerifierError codes -----------------------------------------------
    documented = backticked(design)
    for code in sorted(VERIFIER_CODES - documented):
        problems.append(
            f"verifier code `{code}` is not documented in DESIGN.md")

    # -- derived copies ------------------------------------------------------
    check(frozenset(RECORDED_REFUSALS) <= REFUSAL_REASONS,
          "oracle RECORDED_REFUSALS contains non-refusal codes: "
          f"{sorted(frozenset(RECORDED_REFUSALS) - REFUSAL_REASONS)}")

    if problems:
        for problem in problems:
            print(f"check_vocab: {problem}", file=sys.stderr)
        print(f"check_vocab: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    counts = (f"{len(REASON_CODES)} reason codes, "
              f"{len(event_values)} event kinds, "
              f"{len(VERIFIER_CODES)} verifier codes")
    print(f"check_vocab: OK ({counts}; enums, DESIGN.md tables, and "
          "derived constants in sync)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
