"""Guard synthesis for speculative (guarded) inlining.

When static analysis cannot bind a virtual call but the profile predicts
one or two dominant targets, the compiler inlines those targets behind
runtime guards with a virtual-dispatch fallback (paper Section 3.1).  The
simulated machine implements *method-test* guards: the receiver's dynamic
class is resolved and compared against the inlined target.  For
completeness (and for tests of guard semantics) this module can also
enumerate the receiver classes each guard accepts, which is what an
exact class-test guard would check.

Acceptance sets are memoized per hierarchy, keyed on the hierarchy's
load generation: the set for a (selector, target) pair only changes
when a class loads, and the dominance-based guard-elision pass queries
the same pairs repeatedly during one compilation.
"""

from __future__ import annotations

import weakref
from typing import Dict, Set

from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import MethodDef

#: Acceptance-set entries kept per hierarchy before the cache resets.
_ACCEPT_CACHE_LIMIT = 4096

_accept_cache: "weakref.WeakKeyDictionary[ClassHierarchy, Dict]" = \
    weakref.WeakKeyDictionary()
_accept_hits = 0
_accept_misses = 0


def classes_for_target(hierarchy: ClassHierarchy, selector: str,
                       target: MethodDef) -> Set[str]:
    """All dynamic receiver classes that dispatch ``selector`` to ``target``.

    This is the acceptance set of a method-test guard -- a class-test
    implementation would emit one comparison per member.  Results are
    memoized keyed on (hierarchy generation, selector, target); a class
    load bumps the generation and thereby invalidates every entry.
    """
    global _accept_hits, _accept_misses
    per_hierarchy = _accept_cache.get(hierarchy)
    if per_hierarchy is None:
        per_hierarchy = {}
        _accept_cache[hierarchy] = per_hierarchy
    key = (hierarchy.generation, selector, target)
    cached = per_hierarchy.get(key)
    if cached is not None:
        _accept_hits += 1
        return set(cached)
    _accept_misses += 1
    accepted: Set[str] = set()
    for class_name in hierarchy.subclasses(target.klass):
        if hierarchy.resolve(class_name, selector) is target:
            accepted.add(class_name)
    if len(per_hierarchy) >= _ACCEPT_CACHE_LIMIT:
        per_hierarchy.clear()
    per_hierarchy[key] = frozenset(accepted)
    return accepted


def accept_cache_info() -> Dict[str, int]:
    """Hit/miss counters and live size of the acceptance-set cache."""
    return {"hits": _accept_hits, "misses": _accept_misses,
            "size": sum(len(per) for per in _accept_cache.values())}


def clear_accept_cache() -> None:
    """Drop all memoized acceptance sets and reset the counters."""
    global _accept_hits, _accept_misses
    _accept_cache.clear()
    _accept_hits = 0
    _accept_misses = 0
