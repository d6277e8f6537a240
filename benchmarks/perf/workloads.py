"""The benchmark's workloads, as plain data (no import of the program).

Each workload names the layers it stresses and the layer it bypasses,
so a change to one layer has a workload that exercises it and one on
which the prediction is "no change".  ``BENCHMARK.json`` at the repo
root carries the same names with a one-line reason each.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

#: The eight Table-1 programs, in the paper's presentation order.
PROGRAMS = ("compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack",
            "SPECjbb2000")

#: ``--seed S`` generates programs with ``seed_offset = S % PINNED_SEEDS``:
#: offset 0 is the Table-1 program set, 1 the held-out set for claims.
#: ``pins.json`` holds the reference output of every offset.
PINNED_SEEDS = 16

#: Speculation plus deopt planning with cheap exits at every guarded
#: site.  The ``planned`` strategy is deliberately absent: it changes
#: program meaning on some programs (see README.md, "Known failure").
SPEC_CHEAP_EXIT = (("speculation_enabled", True),
                   ("deopt_planning_enabled", True),
                   ("deopt_strategy", "osr-exit"))


class Config(NamedTuple):
    """One adaptive-runtime configuration: policy family, depth, costs."""

    family: str
    depth: int = 1
    overrides: Tuple[Tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        name = self.family if self.depth == 1 else f"{self.family}:{self.depth}"
        return name + ("+spec+exit" if self.overrides else "")


class Workload(NamedTuple):
    #: "run": every (program, config) is one adaptive run.
    #: "analyze": every (program, round) is one static analysis.
    kind: str
    scale: float
    configs: Tuple[Config, ...] = ()
    rounds: int = 1


WORKLOADS: Dict[str, Workload] = {
    # The headline configuration: the interpreter does ~90% of the host
    # work, so interpreter changes show here first.
    "suite-cins": Workload("run", 1.0, (Config("cins"),)),
    # Deep context-sensitive traces, speculation queries in the oracle and
    # cheap-exit guard plans: where the AOS, oracle and guard-plan layers
    # carry weight that suite-cins bypasses.
    "suite-ctx": Workload("run", 1.0, (Config("hybrid2", 4, SPEC_CHEAP_EXIT),)),
    # Test- and CI-shaped short runs: baseline/opt compiles and static
    # analyses are not amortised, so per-method lowering cost shows here.
    "startup": Workload("run", 0.05, (
        Config("cins"), Config("fixed", 3), Config("hybrid2", 4),
        Config("static"), Config("static-k", 2),
        Config("cins", 1, SPEC_CHEAP_EXIT))),
    # Pure static analysis: the interpreter does no work, so it is the
    # control on which interpreter changes must predict no change.
    "analyze": Workload("analyze", 1.0, rounds=3),
}

#: ``--smoke``: small scale, two programs, one pass.
SMOKE_SCALE = 0.05
SMOKE_PROGRAMS = PROGRAMS[:2]


def seed_offset(seed: int) -> int:
    return seed % PINNED_SEEDS


def pin_key(program: str, scale: float, offset: int) -> str:
    """Key of one program variant's reference output in ``pins.json``."""
    return f"{program}@{scale!r}#{offset}"
