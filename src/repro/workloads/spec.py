"""The eight benchmark personalities, calibrated to the paper's Table 1.

Static characteristics (classes loaded, methods and bytecodes dynamically
compiled) match Table 1.  Dynamic personalities encode what is known about
each benchmark's behaviour -- from the paper itself and from the SPEC
documentation -- in the generator's vocabulary:

* **compress** -- tight monomorphic compression loops; little polymorphism,
  long run: context sensitivity should change almost nothing.
* **jess** -- expert-system engine: many small methods, highly correlated
  dispatch (fact kinds per rule), *short* execution, so compile-time
  savings are visible in wall-clock (the paper's standout speedup).
* **db** -- memory-resident database: few, very hot polymorphic sites with
  high fanout (comparators/shells per query type).  Context sensitivity
  picks the right target per query context where context-insensitive
  guarded inlining thrashes -- the paper notes db trades code-size growth
  for speedup.
* **javac** -- the JDK compiler: a big call graph, deep AST-visitor chains
  needing depth 3-4, large methods interposed in hot chains, and many
  shared utility callees (dilution-prone).
* **mpegaudio** -- computation-heavy decoding: hot numeric kernels, little
  dispatch; uncorrelated polymorphism only.
* **mtrt** -- raytracer (two "threads" modeled as interleaved driver
  families): correlated intersection dispatch beneath large scene-traversal
  methods.
* **jack** -- parser generator: deep correlated chains (grammar actions),
  many parameterless utility callees.
* **SPECjbb2000** -- transaction mix: five transaction-type drivers over
  shared warehouse operations; broad correlated dispatch and many shared
  mediums.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.jvm.errors import ConfigError
from repro.workloads.generator import (BenchmarkSpec, GeneratedBenchmark,
                                       PatternSpec, SharedMediumSpec,
                                       generate)

#: Table 1 of the paper: (classes, methods, bytecodes) per benchmark.
TABLE1 = {
    "compress": (48, 489, 19_480),
    "jess": (176, 1_101, 35_316),
    "db": (41, 510, 20_495),
    "javac": (176, 1_496, 56_282),
    "mpegaudio": (85, 712, 51_308),
    "mtrt": (62, 629, 24_435),
    "jack": (86, 743, 36_253),
    "SPECjbb2000": (132, 1_778, 73_608),
}

#: Presentation order used in every figure (matches the paper's x-axes).
BENCHMARK_ORDER = ("compress", "jess", "db", "javac", "mpegaudio", "mtrt",
                   "jack", "SPECjbb2000")


def _spec(name: str, seed: int, iterations: int, **kwargs) -> BenchmarkSpec:
    classes, methods, bytecodes = TABLE1[name]
    return BenchmarkSpec(name=name, classes=classes, methods=methods,
                         bytecodes=bytecodes, seed=seed,
                         iterations=iterations, **kwargs)


SPECS: Dict[str, BenchmarkSpec] = {
    "compress": _spec(
        "compress", seed=1101, iterations=7_500, drivers=3, driver_work=34,
        patterns=(
            PatternSpec(fanout=2, correlated=True, depth=2, callee_work=11),
        ),
        shared=(SharedMediumSpec(static=True),),
        cond_patterns=1, helper_chain=4),

    "jess": _spec(
        "jess", seed=1102, iterations=1_700, drivers=4, driver_work=14,
        patterns=(
            PatternSpec(fanout=2, correlated=True, depth=2, callee_work=15),
            PatternSpec(fanout=3, correlated=True, depth=2, callee_work=14),
            PatternSpec(fanout=2, correlated=True, depth=3, callee_work=15,
                        proc_static=False),
            PatternSpec(fanout=2, correlated=True, depth=2, callee_work=13,
                        target_parameterless=True),
        ),
        shared=(SharedMediumSpec(static=True),
                SharedMediumSpec(static=True, parameterless=True)),
        cond_patterns=2, helper_chain=2),

    "db": _spec(
        "db", seed=1103, iterations=5_400, drivers=3, driver_work=34,
        patterns=(
            PatternSpec(fanout=5, correlated=True, depth=2, callee_work=13,
                        duty_cycle=2),
            PatternSpec(fanout=5, correlated=True, depth=2, callee_work=12,
                        duty_cycle=2),
        ),
        shared=(SharedMediumSpec(static=True),
                SharedMediumSpec(static=True, medium_work=26)),
        cond_patterns=0, helper_chain=4),

    "javac": _spec(
        "javac", seed=1104, iterations=3_000, drivers=6, driver_work=20,
        patterns=(
            PatternSpec(fanout=2, correlated=True, depth=2, callee_work=11),
            PatternSpec(fanout=3, correlated=True, depth=3, callee_work=12,
                        proc_static=False, wrappers_static=False),
            PatternSpec(fanout=2, correlated=True, depth=4, callee_work=11),
            PatternSpec(fanout=3, correlated=False, depth=2, callee_work=10),
            PatternSpec(fanout=2, correlated=True, depth=2, callee_work=12,
                        target_parameterless=True),
        ),
        shared=(SharedMediumSpec(static=True),
                SharedMediumSpec(static=False, parameterless=True)),
        cond_patterns=2, helper_chain=4, large_in_chain=True),

    "mpegaudio": _spec(
        "mpegaudio", seed=1105, iterations=6_200, drivers=3, driver_work=62,
        patterns=(
            PatternSpec(fanout=2, correlated=False, depth=2, callee_work=12),
        ),
        shared=(SharedMediumSpec(static=True, medium_work=36),),
        cond_patterns=1, helper_chain=5),

    "mtrt": _spec(
        "mtrt", seed=1106, iterations=3_900, drivers=4, driver_work=18,
        patterns=(
            PatternSpec(fanout=2, correlated=True, depth=2, callee_work=12),
            PatternSpec(fanout=3, correlated=True, depth=3, callee_work=11),
            PatternSpec(fanout=2, correlated=True, depth=2, callee_work=13,
                        target_parameterless=True),
        ),
        shared=(SharedMediumSpec(static=True),
                SharedMediumSpec(static=False)),
        cond_patterns=1, helper_chain=3, large_in_chain=True),

    "jack": _spec(
        "jack", seed=1107, iterations=3_400, drivers=4, driver_work=17,
        patterns=(
            PatternSpec(fanout=2, correlated=True, depth=3, callee_work=13),
            PatternSpec(fanout=2, correlated=True, depth=2, callee_work=11,
                        target_parameterless=True),
        ),
        shared=(SharedMediumSpec(static=True, parameterless=True),
                SharedMediumSpec(static=True)),
        cond_patterns=2, helper_chain=4),

    "SPECjbb2000": _spec(
        "SPECjbb2000", seed=1108, iterations=4_200, drivers=5,
        driver_work=20,
        patterns=(
            PatternSpec(fanout=2, correlated=True, depth=2, callee_work=12),
            PatternSpec(fanout=4, correlated=True, depth=2, callee_work=11),
            PatternSpec(fanout=3, correlated=True, depth=3, callee_work=12,
                        proc_static=False),
            PatternSpec(fanout=2, correlated=False, depth=2, callee_work=10),
            PatternSpec(fanout=2, correlated=True, depth=3, callee_work=11,
                        target_parameterless=True),
        ),
        shared=(SharedMediumSpec(static=True),
                SharedMediumSpec(static=False),
                SharedMediumSpec(static=True, parameterless=True),
                SharedMediumSpec(static=False, medium_work=30)),
        cond_patterns=2, helper_chain=3),
}


def build_benchmark(name: str,
                    scale: float = 1.0,
                    seed_offset: int = 0) -> GeneratedBenchmark:
    """Generate one benchmark; ``scale`` shrinks/grows its run length.

    ``scale`` rescales only the *dynamic* length (main-loop iterations); the
    static Table 1 characteristics are untouched, so quick test runs still
    exercise the full program shape.  ``seed_offset`` shifts the generator
    seed for multi-seed experiments (causal-profiler replicates, the
    host-time benchmark's seeds); the program *shape* is seed-dependent
    only in its random draws, so offset runs are same-personality
    variants, not new benchmarks.
    """
    try:
        spec = SPECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; expected one of "
            f"{BENCHMARK_ORDER}") from None
    if scale != 1.0 or seed_offset:
        iterations = (max(50, int(spec.iterations * scale))
                      if scale != 1.0 else spec.iterations)
        spec = dataclasses.replace(spec, iterations=iterations,
                                   seed=spec.seed + seed_offset)
    return generate(spec)
