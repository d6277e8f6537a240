"""Host-time spans recorded from outside the program under test.

The traced pass wraps public entry points of each layer (a class method,
a module function, or a callable instance attribute) so that every call
records one span: ``(name, start, end, parent, run)``.  ``parent`` is the
index of the enclosing span (``-1`` for a root) and ``run`` identifies
the benchmark unit the span belongs to.  Spans stay in memory;
:func:`self_times` folds a unit's spans into per-layer self time (a
span's duration minus the durations of its direct children), and
:func:`chrome_trace` renders a pass's spans for ``chrome://tracing`` /
Perfetto when the pass ends.

Nothing here imports the program under test, so the arithmetic is
testable on hand-made spans.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """Collects nested spans; one recorder serves one benchmark pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        #: Sum of each span name's ``count`` callback results.
        self.counts: Dict[str, float] = {}
        #: The unit (one program run or analysis) spans are charged to.
        self.run = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One ``name`` span around the ``with`` body."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            self.spans[index] = (name, start, self.clock(), parent, self.run)
            self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[object], float]] = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``count`` maps the call's result to a number added to
        ``counts[name]`` (e.g. compilation plans created).
        """
        spans, stack, clock, counts = (self.spans, self._stack, self.clock,
                                       self.counts)

        # Inlined bookkeeping: the wrapper runs tens of thousands of times
        # per pass, and its cost is the tracing overhead.
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.run)
                stack.pop()
            if count is not None:
                counts[name] = counts.get(name, 0) + count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str,
              count: Optional[Callable[[object], float]] = None) -> None:
        """Have :meth:`active` replace ``owner.attr`` with a traced wrapper.

        For a module-level function the wrapper also replaces every other
        module's imported reference to it, so ``from m import f`` callers
        are traced too.
        """
        original = getattr(owner, attr)
        traced = self.wrap(name, original, count)
        self._patches.append((owner, attr, original, traced))
        if isinstance(owner, type(sys)):
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace or module is owner:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((module, key, original, traced))

    @contextmanager
    def active(self) -> Iterator[None]:
        """Every :meth:`patch` in place; the originals are back afterwards."""
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            yield
        finally:
            for owner, attr, original, _traced in reversed(self._patches):
                setattr(owner, attr, original)

    def take(self) -> List[Span]:
        """The spans recorded since the last call, which must all be closed.

        Parent indices in the result index into the result.
        """
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-name ``{"self_s", "total_s", "calls"}``.

    ``self_s`` subtracts each span's direct children from its duration,
    so the self times of all spans sum to the roots' durations.
    ``total_s`` and ``calls`` count only the outermost span of a name
    (a span nested in a same-named parent is part of that parent), so a
    layer that re-enters itself is neither double-timed nor
    double-counted.
    """
    own = [end - start for _name, start, end, _parent, _run in spans]
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            own[parent] -= end - start
    layers: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent, _run) in enumerate(spans):
        layer = layers.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                         "calls": 0})
        layer["self_s"] += own[index]
        if parent < 0 or spans[parent][0] != name:
            layer["total_s"] += end - start
            layer["calls"] += 1
    return layers


def chrome_trace(spans: List[Span], path: str) -> None:
    """Write spans as Chrome-trace complete events, one thread per unit."""
    origin = min((span[1] for span in spans), default=0.0)
    events = [{"name": name, "ph": "X", "pid": 1, "tid": run,
               "ts": round((start - origin) * 1e6, 3),
               "dur": round((end - start) * 1e6, 3)}
              for name, start, end, _parent, run in spans]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
