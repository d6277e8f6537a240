"""Cost-model constants for the simulated JVM and adaptive optimization system.

The reproduction replaces Jikes RVM running on a Pentium-3 with a
cycle-accounted simulation.  Every quantity the paper measures (wall-clock
time, optimized code space, compile time, AOS component overhead) is derived
from the constants defined here.  The constants were tuned *once* so the
overall shapes of the paper's Figures 4-6 hold, and are then frozen;
individual experiments never re-tune them.

Units
-----
* **cycles** -- the abstract unit of simulated time.  One unit of ``Work``
  in a method body costs one cycle at the optimizing tier.  The machine's
  clock counts whole **centi-cycles** (:data:`CENTI` per cycle): every
  constant here is a whole number of cycles or a two-decimal multiplier,
  so every charge is a whole number of centi-cycles and the clock sums
  them exactly, in any order.
* **bytecodes** -- static size of a method body.  Method size classes
  (tiny/small/medium/large) are expressed in bytecodes relative to the size
  of a call instruction, exactly mirroring Section 3.1 of the paper.
* **bytes** -- machine-code bytes emitted by a compiler tier per bytecode
  compiled.  Figure 5 reports optimized machine-code bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

#: Centi-cycles per cycle: the unit of the machine's clock and of
#: per-component cost accounting.  Cycles are converted to it where a
#: charge is made and back (one true division) where a result is reported.
CENTI = 100


def to_centi(cycles: float) -> int:
    """``cycles`` as whole centi-cycles, rounded half to even.

    Exact for every charge the default constants produce; a finer charge
    (from an overridden or virtually sped-up cost model) is rounded.
    """
    return round(cycles * CENTI)


# ---------------------------------------------------------------------------
# Execution-tier costs
# ---------------------------------------------------------------------------

#: Multiplier applied to all work executed in baseline-compiled code.  Jikes
#: RVM's non-optimizing baseline compiler produces code several times slower
#: than the optimizing compiler's output.
BASELINE_EXEC_MULT = 2.6

#: Multiplier for optimized code (the reference tier).
OPT_EXEC_MULT = 1.0

#: Cycles of call overhead for a statically-bound (direct) call that was not
#: inlined: argument shuffling, frame construction, return.
CALL_OVERHEAD = 6

#: Cycles of overhead for a virtual dispatch that was not inlined or whose
#: inline guards all failed: vtable load + indirect branch + call overhead.
VIRTUAL_DISPATCH = 9

#: Extra cycles when the dispatch goes through an interface (unused by the
#: default workloads but part of the model).
INTERFACE_DISPATCH = 16

#: Cycles for a single inline guard (class test) executed at a guarded
#: inline site.  A successful guard replaces a VIRTUAL_DISPATCH.
GUARD_TEST = 2

#: Fraction of body work saved when a callee is inlined into optimized code.
#: Models the indirect benefit of inlining: cross-boundary optimization such
#: as constant folding and redundancy elimination (paper Section 1).
INLINE_WORK_DISCOUNT = 0.08


# ---------------------------------------------------------------------------
# Method size classes (paper Section 3.1)
# ---------------------------------------------------------------------------

#: Size of a call instruction, in bytecode units.  All size-class thresholds
#: are multiples of this, as in the paper ("2x the number of instructions
#: required for a method call", etc.).
CALL_UNITS = 4

#: Tiny methods: body smaller than 2x a call.  Unconditionally inlined when
#: statically bound without a guard.
TINY_LIMIT = 2 * CALL_UNITS

#: Small methods: 2-5x a call.  Inlined subject to space/depth heuristics.
SMALL_LIMIT = 5 * CALL_UNITS

#: Medium methods: 5-25x a call.  Candidates for profile-directed inlining
#: only.
MEDIUM_LIMIT = 25 * CALL_UNITS


# ---------------------------------------------------------------------------
# Compiler tiers
# ---------------------------------------------------------------------------

#: Cycles per bytecode for the non-optimizing baseline compiler.
BASELINE_COMPILE_CYCLES_PER_BC = 2

#: Cycles per bytecode for the optimizing compiler.  The cost is charged on
#: the *inlined* size of the compiled method, which is how context-sensitive
#: inlining reduces compile time in the paper.
OPT_COMPILE_CYCLES_PER_BC = 14

#: Machine-code bytes per bytecode for each tier.  Baseline code is bulkier
#: per bytecode; optimized code is denser but inlining multiplies the number
#: of bytecodes compiled.
BASELINE_BYTES_PER_BC = 10
OPT_BYTES_PER_BC = 6


# ---------------------------------------------------------------------------
# Sampling and organizers (paper Section 3.2)
# ---------------------------------------------------------------------------

#: Cycles between timer samples.  Jikes RVM samples at ~100Hz; the workloads
#: here run for single-digit millions of cycles, so the interval is scaled to
#: land a few hundred to a few thousand samples per run.
SAMPLE_INTERVAL = 1_600

#: Fixed cycles charged to the "AOS listeners" component per sample taken
#: (method listener + buffer insertion).
METHOD_LISTENER_COST = 4

#: Cycles charged per stack frame traversed by the edge/trace listener.  The
#: trace listener walks deeper than the edge listener; this is how the paper
#: observes up to 2x listener overhead that is still <0.06% of execution.
TRACE_FRAME_COST = 3

#: Number of buffered trace samples that triggers the dynamic call graph
#: organizer to wake up and process the buffer.
TRACE_BUFFER_CAPACITY = 32

#: Cycles the dynamic call graph organizer spends ingesting one sample.
DCG_INGEST_COST = 6

#: Cycles the adaptive-inlining organizer spends examining one trace entry
#: while deriving inlining rules.
AI_EXAMINE_COST = 1

#: Cycles the hot-methods organizer spends aggregating one method sample.
METHOD_ORGANIZER_COST = 4

#: Cycles the controller spends evaluating one organizer event.
CONTROLLER_EVENT_COST = 15

#: Cycles the decay organizer spends decaying one profile entry.
DECAY_ENTRY_COST = 2

#: Cycles the missing-edge organizer spends per (hot method, rule) check.
MISSING_EDGE_CHECK_COST = 2

#: How often (in cycles) the periodic organizers wake up.
ORGANIZER_PERIOD = 32_000

#: How often (in cycles) the decay organizer runs.
DECAY_PERIOD = 600_000

#: Multiplicative decay applied to dynamic call graph weights each decay
#: period, biasing hot-edge detection toward recent samples (Section 3.2).
DECAY_RATE = 0.8


# ---------------------------------------------------------------------------
# Speculation-risk static analysis (guard elision)
# ---------------------------------------------------------------------------

#: Whether guard plans may use the speculation dataflow pass (receiver
#: preexistence, dominance-based guard elision, invalidation-cone risk);
#: see ``DeoptPlanner.plan_site``.  Off by default: elision is opt-in,
#: never ambient, so default runs stay byte-identical to the golden
#: decision logs.
SPECULATION_ENABLED = False

#: A preexistent-receiver guard is elided only when the assumption's
#: churn-weighted invalidation risk is at or below this threshold.
#: Risk is the assumption's share of predicted future class-loading
#: churn, normalized to [0, 1].
SPECULATION_ELIDE_MAX_RISK = 0.9

#: Above this risk the speculative inline is refused outright (reason
#: ``speculation-risk``): compiling code that the next class load will
#: invalidate is pure waste.  Infinite by default so enabling the pass
#: flips no verdicts; sweeps lower it to explore refusal.
SPECULATION_REFUSE_MIN_RISK = float("inf")


# ---------------------------------------------------------------------------
# OSR liveness and deoptimization planning
# ---------------------------------------------------------------------------

#: Whether the liveness/deopt planning pass runs (backward live-variable
#: analysis, per-OSR-point state-mapping costs, and the
#: ``DEOPT_STRATEGY`` rule of ``DeoptPlanner.plan_site``).  Off by default
#: under the same contract as ``SPECULATION_ENABLED``: stock runs stay
#: byte-identical to the golden decision logs.
DEOPT_PLANNING_ENABLED = False

#: Cycles charged per live local mapped *into* optimized state at an OSR
#: entry (loop back-edge transfer).  D'Elia & Demetrescu observe the OSR
#: transition cost is dominated by this live-state mapping.
OSR_MAP_IN_COST = 3

#: Cycles charged per live local mapped *out* of optimized state at a
#: deoptimization exit (an ``osr-exit`` site whose speculation failed).
OSR_MAP_OUT_COST = 2

#: Per-site deoptimization strategy, a sweepable policy dimension that
#: ``DeoptPlanner.plan_site`` applies when planning is enabled:
#:
#: * ``"guard"``    -- every speculative inline keeps its compiled guard
#:   chain with an in-code dispatch fallback (the stock behaviour; only
#:   speculation, when enabled, removes guards).
#: * ``"osr-exit"`` -- every guarded site is compiled as a cheap-exit OSR
#:   point instead: the fast path pays no guard cycles, and a failed
#:   speculation pays a live-state-mapped exit plus a baseline-tier
#:   dispatch.
#: * ``"planned"``  -- the planner chooses per site from full guard,
#:   cheap exit and guard-free (preexistence) using liveness-derived exit
#:   cost, speculation risk, and the k-CFA precision lattice.
DEOPT_STRATEGY = "guard"

#: The closed strategy vocabulary for :data:`DEOPT_STRATEGY`.
DEOPT_STRATEGIES = ("guard", "osr-exit", "planned")


# ---------------------------------------------------------------------------
# Adaptive-inlining policy constants
# ---------------------------------------------------------------------------

#: An edge/trace becomes an inlining rule when it contributes more than this
#: fraction of the total profile weight (paper Section 4, footnote: 1.5%).
HOT_EDGE_THRESHOLD = 0.015

#: The AI organizer waits until this much total profile weight has
#: accumulated before deriving rules; very early profiles are too noisy to
#: act on.
AI_MIN_TOTAL_WEIGHT = 30.0

#: Maximum number of distinct targets inlined under guards at one virtual
#: call site.
MAX_GUARDED_TARGETS = 3

#: Guarded inlining requires the chosen targets to cover at least this
#: fraction of the call site's profile weight in the applicable contexts
#: (the "skewed receiver distribution" requirement): inlining targets that
#: miss often is a net loss, since every miss pays the guards *and* the
#: full virtual dispatch.
GUARD_COVERAGE_MIN = 0.8

#: Maximum inlining depth in one compiled method.
MAX_INLINE_DEPTH = 6

#: A root method's inlined size may grow to at most this multiple of its
#: original size before further *small-method* inlining is refused...
SPACE_EXPANSION_FACTOR = 5.0

#: ...and never beyond this absolute inlined-bytecode cap.
ABSOLUTE_SIZE_CAP = 768

#: Number of method samples a method must accumulate before the controller
#: considers it hot.
HOT_METHOD_SAMPLES = 4

#: The controller defers first-time optimizing compilations until this much
#: total profile weight exists: compiling against an immature profile means
#: recompiling (missing-edge) as soon as the real rules surface.
FIRST_COMPILE_MIN_WEIGHT = 90.0

#: On-stack replacement: a baseline method whose loops have executed this
#: many back edges is queued for optimizing compilation even if the method
#: listener never catches it (long-running loops hide from invocation-
#: biased sampling), and its executing loop transfers to the new code.
OSR_BACKEDGE_THRESHOLD = 800

#: How often (in back edges) a baseline loop polls for freshly installed
#: optimized code to transfer onto.
OSR_POLL_PERIOD = 64

#: Minimum cycles between successive optimizing recompilations of the same
#: method.  Profile-driven recompilation requests arriving faster than this
#: are deferred; this bounds recompile churn when rule sets evolve quickly.
RECOMPILE_COOLDOWN = 400_000

#: The controller's analytic model: estimated speedup of optimized over
#: baseline code, used in the cost/benefit recompilation test.
ESTIMATED_OPT_SPEEDUP = BASELINE_EXEC_MULT / OPT_EXEC_MULT


@dataclass
class CostModel:
    """A bundle of all tunable constants, overridable per experiment.

    The module-level constants above are the frozen defaults; ablation
    experiments construct modified :class:`CostModel` instances instead of
    mutating module state.
    """

    baseline_exec_mult: float = BASELINE_EXEC_MULT
    opt_exec_mult: float = OPT_EXEC_MULT
    call_overhead: int = CALL_OVERHEAD
    virtual_dispatch: int = VIRTUAL_DISPATCH
    interface_dispatch: int = INTERFACE_DISPATCH
    guard_test: int = GUARD_TEST
    inline_work_discount: float = INLINE_WORK_DISCOUNT

    call_units: int = CALL_UNITS
    tiny_limit: int = TINY_LIMIT
    small_limit: int = SMALL_LIMIT
    medium_limit: int = MEDIUM_LIMIT

    baseline_compile_cycles_per_bc: int = BASELINE_COMPILE_CYCLES_PER_BC
    opt_compile_cycles_per_bc: int = OPT_COMPILE_CYCLES_PER_BC
    baseline_bytes_per_bc: int = BASELINE_BYTES_PER_BC
    opt_bytes_per_bc: int = OPT_BYTES_PER_BC

    sample_interval: int = SAMPLE_INTERVAL
    method_listener_cost: int = METHOD_LISTENER_COST
    trace_frame_cost: int = TRACE_FRAME_COST
    trace_buffer_capacity: int = TRACE_BUFFER_CAPACITY
    dcg_ingest_cost: int = DCG_INGEST_COST
    ai_examine_cost: int = AI_EXAMINE_COST
    method_organizer_cost: int = METHOD_ORGANIZER_COST
    controller_event_cost: int = CONTROLLER_EVENT_COST
    decay_entry_cost: int = DECAY_ENTRY_COST
    missing_edge_check_cost: int = MISSING_EDGE_CHECK_COST
    organizer_period: int = ORGANIZER_PERIOD
    decay_period: int = DECAY_PERIOD
    decay_rate: float = DECAY_RATE

    hot_edge_threshold: float = HOT_EDGE_THRESHOLD
    ai_min_total_weight: float = AI_MIN_TOTAL_WEIGHT
    max_guarded_targets: int = MAX_GUARDED_TARGETS
    guard_coverage_min: float = GUARD_COVERAGE_MIN
    max_inline_depth: int = MAX_INLINE_DEPTH
    space_expansion_factor: float = SPACE_EXPANSION_FACTOR
    absolute_size_cap: int = ABSOLUTE_SIZE_CAP
    hot_method_samples: int = HOT_METHOD_SAMPLES
    first_compile_min_weight: float = FIRST_COMPILE_MIN_WEIGHT
    recompile_cooldown: int = RECOMPILE_COOLDOWN
    osr_enabled: bool = True
    osr_backedge_threshold: int = OSR_BACKEDGE_THRESHOLD
    osr_poll_period: int = OSR_POLL_PERIOD

    speculation_enabled: bool = SPECULATION_ENABLED
    speculation_elide_max_risk: float = SPECULATION_ELIDE_MAX_RISK
    speculation_refuse_min_risk: float = SPECULATION_REFUSE_MIN_RISK

    deopt_planning_enabled: bool = DEOPT_PLANNING_ENABLED
    osr_map_in_cost: int = OSR_MAP_IN_COST
    osr_map_out_cost: int = OSR_MAP_OUT_COST
    deopt_strategy: str = DEOPT_STRATEGY

    @property
    def centi_mults(self) -> Tuple[int, int, int]:
        """Centi-cycles per unit of work in baseline, optimized and
        inlined code: 260, 100 and 92 under the default constants."""
        return (to_centi(self.baseline_exec_mult),
                to_centi(self.opt_exec_mult),
                to_centi(self.opt_exec_mult
                         * (1.0 - self.inline_work_discount)))

    @property
    def estimated_opt_speedup(self) -> float:
        """Speedup the controller's analytic model assumes for opt code."""
        return self.baseline_exec_mult / self.opt_exec_mult

    def replace(self, **overrides: object) -> "CostModel":
        """Return a copy of this model with the given fields replaced.

        Unknown field names raise :class:`~repro.jvm.errors.ConfigError`
        naming the closest valid fields.  A misspelled override that
        slipped through would silently run the *baseline* model -- in a
        causal-profiling experiment that corrupts the whole profile, so
        the failure must be loud and diagnosable.
        """
        import dataclasses
        import difflib

        from repro.jvm.errors import ConfigError

        valid = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            hints = []
            for name in unknown:
                close = difflib.get_close_matches(name, sorted(valid), n=1)
                hints.append(f"{name!r}"
                             + (f" (did you mean {close[0]!r}?)"
                                if close else ""))
            raise ConfigError(
                f"unknown CostModel field(s): {', '.join(hints)}; "
                f"valid fields: {', '.join(sorted(valid))}")
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


#: The default, frozen cost model used by all headline experiments.
DEFAULT_COSTS = CostModel()
