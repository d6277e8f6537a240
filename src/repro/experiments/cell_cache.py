"""The resumable per-cell sweep cache.

One sweep cell = one JSON file, written atomically the moment the cell's
worker finishes and named by the cell's content fingerprint (see
:func:`repro.experiments.config.cell_fingerprint`).  It is the only
cache sweeps and causal grids read: a sweep's results file
(``sweep.json``) is written for ``repro figures`` and never read back,
so one corrupt byte or one crashed worker costs at most one cell.

Properties the harness relies on:

* **Resumability** -- a killed sweep leaves every finished cell on disk;
  the restarted sweep loads them and dispatches only the missing ones.
* **Content addressing** -- the fingerprint covers benchmark, family,
  depth, phases, scale, and the full cost model, so entries are reused
  across differently-shaped sweep configs and never reused stale.
* **Corruption isolation** -- an unreadable entry costs exactly one cell
  rerun (with a warning), never the whole sweep.
* **Atomicity** -- entries are written with
  :func:`~repro.atomic_file.write_atomic`, so a kill mid-write cannot
  leave a half-entry that poisons the next resume.

Failures are deliberately *not* cached: a cell that crashed or timed out
is retried on the next run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from typing import Dict, Mapping, Optional

from repro.aos.runtime import RunResult
from repro.atomic_file import write_atomic
from repro.provenance.records import write_decision_log

#: Schema version of one cell entry file.
CELL_FORMAT = 1


def result_to_dict(result: RunResult) -> dict:
    """JSON-ready payload for one :class:`RunResult`."""
    return dataclasses.asdict(result)


def result_from_dict(raw: Mapping) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output."""
    fields = dict(raw)
    fields["depth_histogram"] = {int(k): v for k, v
                                 in fields["depth_histogram"].items()}
    fields["component_cycles"] = dict(fields["component_cycles"])
    return RunResult(**fields)  # type: ignore[arg-type]


def cell_cache_root(cache_path: str) -> str:
    """The per-cell cache directory paired with a sweep results file.

    ``sweep.json`` gets its cells in ``sweep.cells/`` next to it, so the
    two stay visibly associated and one ``rm -r`` clears both.
    """
    stem, ext = os.path.splitext(cache_path)
    return (stem if ext == ".json" else cache_path) + ".cells"


class CellCache:
    """Directory of fingerprint-named single-cell result files."""

    def __init__(self, root: str):
        self.root = root

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.root, fingerprint + ".json")

    def has(self, fingerprint: str) -> bool:
        return os.path.exists(self.path_for(fingerprint))

    def load(self, fingerprint: str) -> Optional[RunResult]:
        """The cached result for a fingerprint, or ``None``.

        Missing entries return ``None`` silently; corrupt or mismatched
        entries return ``None`` with a warning (costing one cell rerun,
        never the sweep).
        """
        path = self.path_for(fingerprint)
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if payload.get("fingerprint") != fingerprint:
                raise ValueError("entry fingerprint does not match its "
                                 "file name")
            return result_from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"sweep cell cache entry {path!r} is unreadable "
                f"({type(exc).__name__}: {exc}); rerunning that cell",
                RuntimeWarning, stacklevel=2)
            return None

    def load_many(self, fingerprints: Mapping[tuple, str]) \
            -> Dict[tuple, RunResult]:
        """All cached results among ``{cell key: fingerprint}``."""
        found: Dict[tuple, RunResult] = {}
        for key, fingerprint in fingerprints.items():
            result = self.load(fingerprint)
            if result is not None:
                found[key] = result
        return found

    def store(self, fingerprint: str, key: tuple,
              result: RunResult) -> str:
        """Atomically persist one cell result; returns the entry path."""
        path = self.path_for(fingerprint)
        write_atomic(path, json.dumps({
            "format": CELL_FORMAT,
            "key": list(key),
            "fingerprint": fingerprint,
            "result": result_to_dict(result),
        }))
        return path

    # -- decision-provenance logs ------------------------------------------

    def decision_log_path(self, fingerprint: str) -> str:
        """Where a cell's decision log lives (sibling of its result)."""
        return os.path.join(self.root, fingerprint + ".decisions.jsonl")

    def has_decision_log(self, fingerprint: str) -> bool:
        return os.path.exists(self.decision_log_path(fingerprint))

    def store_decision_log(self, fingerprint: str, records,
                           meta: Optional[dict] = None) -> str:
        """Atomically persist one cell's decision log; returns its path."""
        path = self.decision_log_path(fingerprint)
        write_decision_log(path, records, meta or {})
        return path
