"""Call-trace structures for context-sensitive profiling.

The paper's trace listener samples the call stack and records traces of the
form (Equation 2)::

    caller_1, callsite_1, ..., caller_n, callsite_n, callee

This module defines the canonical in-memory form:

* a *context* is a tuple of ``(caller_id, callsite)`` pairs ordered
  **innermost-first** -- element 0 is the immediate caller of the callee and
  the call site within that caller;
* a :class:`TraceKey` pairs a callee method id with a context;
* an :class:`InlineRule` is a hot trace promoted to an inlining
  recommendation by the adaptive-inlining organizer.

A context-insensitive edge sample (Equation 1) is simply the depth-1
special case.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Sequence, Tuple

#: One context element: (caller method id, call-site id within that caller).
ContextElement = Tuple[str, int]

#: Innermost-first tuple of context elements.
Context = Tuple[ContextElement, ...]


class TraceKey(namedtuple("TraceKey", ("callee", "context"))):
    """An immutable, hashable (callee, context) pair.

    ``context[0]`` is the immediate (caller, callsite) of ``callee``; deeper
    elements walk outward toward ``main``.  A depth-1 key is exactly the
    paper's context-insensitive edge tuple.

    A named tuple, so hashing, equality and field access run in C: the
    AOS tick hashes keys on every DCG update and rule lookup.  The hash
    is ``hash((callee, context))``.
    """

    __slots__ = ()

    def __new__(cls, callee: str, context: Context):
        if not context:
            raise ValueError("a trace needs at least one call edge")
        return tuple.__new__(cls, (callee, tuple(context)))

    @property
    def depth(self) -> int:
        """Number of call edges in the trace (the paper's *n*)."""
        return len(self.context)

    @property
    def callsite(self) -> int:
        return self.context[0][1]

    def truncated(self, depth: int) -> "TraceKey":
        """This trace cut down to at most ``depth`` edges."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth >= len(self.context):
            return self
        return TraceKey(self.callee, self.context[:depth])

    def __repr__(self) -> str:
        chain = " <= ".join(f"{c}@{s}" for c, s in self.context)
        return f"<trace {chain} => {self.callee}>"


class InlineRule:
    """A hot trace codified as an inlining recommendation.

    Produced by the adaptive-inlining organizer for every trace whose
    weight exceeds the hot-edge threshold fraction of total profile weight.
    ``share`` records that fraction at rule-derivation time.
    """

    __slots__ = ("key", "weight", "share")

    def __init__(self, key: TraceKey, weight: float, share: float):
        self.key = key
        self.weight = weight
        self.share = share

    @property
    def callee(self) -> str:
        return self.key.callee

    @property
    def context(self) -> Context:
        return self.key.context

    def __repr__(self) -> str:
        return f"<rule {self.key!r} share={self.share:.3f}>"


def make_context(pairs: Sequence[Tuple[str, int]]) -> Context:
    """Normalize a sequence of (caller, site) pairs into a Context."""
    return tuple((str(c), int(s)) for c, s in pairs)


def format_trace(key: TraceKey) -> str:
    """Human-readable rendering matching the paper's A => B => C notation."""
    parts: List[str] = [caller for caller, _site in reversed(key.context)]
    parts.append(key.callee)
    return " => ".join(parts)
