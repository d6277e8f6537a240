"""Machine-speed probe: how fast this machine runs Python right now.

On a shared machine the same pass can take 25% longer when neighbours
are busy, which would drown any change worth measuring.  The probe is a
fixed pure-Python kernel shaped like the simulator's evaluator (slotted
nodes, recursive dispatch on an integer kind, dictionary lookups).  It
is benchmark code, so no change to the program under test can move it.

:func:`sample` times a burst of short probes; a single probe is at the
mercy of a momentary stall, the median of a burst is not.  Bursts taken
right before and right after a unit give the unit's speed factor
(:func:`speed`); host times multiplied by it are *reference seconds*,
the time the unit would take on a machine where one probe takes
:data:`REFERENCE_S`.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: The probe's median time on the 2-vCPU Intel Xeon (2.1 GHz) VM, under
#: CPython 3.11, that the benchmark was calibrated on.
REFERENCE_S = 0.0011

ITERATIONS = 1_500
#: Probes per burst.
REPEATS = 9


class _Node:
    __slots__ = ("kind", "left", "right", "value")

    def __init__(self, kind, left=None, right=None, value=None):
        self.kind = kind
        self.left = left
        self.right = right
        self.value = value


def _eval(node, env):
    kind = node.kind
    if kind == 0:
        return node.value
    if kind == 1:
        return env[node.value]
    if kind == 2:
        return _eval(node.left, env) + _eval(node.right, env)
    return _eval(node.left, env) * _eval(node.right, env) % 1009


_TREE = _Node(2, _Node(3, _Node(1, value="a"),
                       _Node(2, _Node(0, value=3), _Node(1, value="b"))),
              _Node(2, _Node(1, value="c"),
                    _Node(3, _Node(1, value="a"), _Node(0, value=7))))


def _probe() -> float:
    env = {"a": 1, "b": 2, "c": 3}
    acc = 0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        env["a"] = i
        acc = (acc + _eval(_TREE, env)) % 65521
    return time.perf_counter() - start


def sample() -> List[float]:
    """Seconds each probe of one burst takes now."""
    return [_probe() for _ in range(REPEATS)]


def speed(before: List[float], after: List[float]) -> float:
    """Speed factor of the interval between two bursts."""
    return REFERENCE_S / statistics.median(before + after)
