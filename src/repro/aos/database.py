"""The AOS database: a central repository of compilation decisions.

Paper Section 3.2: the inlining system records refusals by the optimizing
compiler to inline particular call edges; the AI missing-edge organizer
consults these records to avoid recommending recompilation for an edge the
compiler has already declined.  The database also records the CHA
dependencies of compiled code, which a class load checks.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class AOSDatabase:
    """Recorded refusals and CHA dependencies."""

    def __init__(self) -> None:
        self._refusal_reasons: Dict[Tuple[str, int, str], str] = {}
        # CHA dependencies: root method id -> {selector: allowed target
        # id(s)} -- a plain string for the loaded-sole case, a frozenset
        # for an exhaustive guard set.  Compiled code that speculated on
        # loaded-world CHA is only valid while every loaded target of
        # the selector stays within the allowed set.
        self._cha_dependencies: Dict[str, Dict[str, object]] = {}

    # -- refusals ---------------------------------------------------------------

    def record_refusal(self, caller_id: str, site: int, callee_id: str,
                       reason: str) -> None:
        self._refusal_reasons[(caller_id, site, callee_id)] = reason

    def was_refused(self, caller_id: str, site: int, callee_id: str) -> bool:
        return (caller_id, site, callee_id) in self._refusal_reasons

    def refusal_reason(self, caller_id: str, site: int,
                       callee_id: str) -> Optional[str]:
        return self._refusal_reasons.get((caller_id, site, callee_id))

    @property
    def refusal_count(self) -> int:
        return len(self._refusal_reasons)

    # -- CHA dependencies ---------------------------------------------------------

    def record_cha_dependency(self, root_id: str, selector: str,
                              target_id) -> None:
        """Record that ``root_id``'s code assumes ``selector`` only
        dispatches into ``target_id`` -- a sole target id, or an
        iterable of ids for a guard set proved exhaustive over the
        loaded world.  Re-recording the same selector intersects the
        allowed sets: every recorded assumption must keep holding.
        """
        allowed = (frozenset((target_id,)) if isinstance(target_id, str)
                   else frozenset(target_id))
        per_root = self._cha_dependencies.setdefault(root_id, {})
        existing = per_root.get(selector)
        if existing is not None:
            previous = (frozenset((existing,))
                        if isinstance(existing, str) else existing)
            allowed &= previous
        # Singletons stay plain strings (the common loaded-sole case).
        per_root[selector] = (next(iter(allowed)) if len(allowed) == 1
                              else allowed)

    def cha_dependencies(self) -> Dict[str, Dict[str, object]]:
        return {root: dict(deps)
                for root, deps in self._cha_dependencies.items()}

    def clear_cha_dependencies(self, root_id: str) -> None:
        self._cha_dependencies.pop(root_id, None)
