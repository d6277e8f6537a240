"""The cost model of the simulated JVM and adaptive optimization system.

The reproduction replaces Jikes RVM running on a Pentium-3 with a
cycle-accounted simulation.  Every quantity the paper measures (wall-clock
time, optimized code space, compile time, AOS component overhead) is derived
from the values defined here.  The values were tuned *once* so the
overall shapes of the paper's Figures 4-6 hold, and are then frozen;
individual experiments never re-tune them.

Each value has one definition.  It is a :class:`CostModel` field exactly
when some caller sets it -- the perf harness, a causal component, an
ablation, the offline experiment or a test -- and the field's default is
the frozen value.  Otherwise it is one module constant.

Units
-----
* **cycles** -- the abstract unit of simulated time.  One unit of ``Work``
  in a method body costs one cycle at the optimizing tier.  The machine's
  clock counts whole **centi-cycles** (:data:`CENTI` per cycle): every
  value here is a whole number of cycles or a two-decimal multiplier,
  so every charge is a whole number of centi-cycles and the clock sums
  them exactly, in any order.
* **bytecodes** -- static size of a method body.  Method size classes
  (tiny/small/medium/large) are expressed in bytecodes relative to the size
  of a call instruction, exactly mirroring Section 3.1 of the paper.
* **bytes** -- machine-code bytes emitted by a compiler tier per bytecode
  compiled.  Figure 5 reports optimized machine-code bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Centi-cycles per cycle: the unit of the machine's clock and of
#: per-component cost accounting.  Cycles are converted to it where a
#: charge is made and back (one true division) where a result is reported.
CENTI = 100


def to_centi(cycles: float) -> int:
    """``cycles`` as whole centi-cycles, rounded half to even.

    Exact for every charge the default values produce; a finer charge
    (from an overridden or virtually sped-up cost model) is rounded.
    """
    return round(cycles * CENTI)


# ---------------------------------------------------------------------------
# Fixed values: no caller overrides these
# ---------------------------------------------------------------------------

#: Size of a call instruction, in bytecode units.  All size-class thresholds
#: are multiples of this, as in the paper ("2x the number of instructions
#: required for a method call", etc.).
CALL_UNITS = 4

#: Fraction of body work saved when a callee is inlined into optimized code.
#: Models the indirect benefit of inlining: cross-boundary optimization such
#: as constant folding and redundancy elimination (paper Section 1).
INLINE_WORK_DISCOUNT = 0.08

#: Machine-code bytes per bytecode for each tier.  Baseline code is bulkier
#: per bytecode; optimized code is denser but inlining multiplies the number
#: of bytecodes compiled.
BASELINE_BYTES_PER_BC = 10
OPT_BYTES_PER_BC = 6

#: How often (in cycles) the periodic organizers wake up.
ORGANIZER_PERIOD = 32_000

#: The AI organizer waits until this much total profile weight has
#: accumulated before deriving rules; very early profiles are too noisy to
#: act on.
AI_MIN_TOTAL_WEIGHT = 30.0

#: Number of method samples a method must accumulate before the controller
#: considers it hot.
HOT_METHOD_SAMPLES = 4

#: The controller defers first-time optimizing compilations until this much
#: total profile weight exists: compiling against an immature profile means
#: recompiling (missing-edge) as soon as the real rules surface.
FIRST_COMPILE_MIN_WEIGHT = 90.0

#: Cycles charged per live local mapped *into* optimized state at an OSR
#: entry (loop back-edge transfer) when deopt planning is enabled.
#: D'Elia & Demetrescu observe the OSR transition cost is dominated by
#: this live-state mapping.
OSR_MAP_IN_COST = 3

#: Cycles charged per live local mapped *out* of optimized state at a
#: deoptimization exit (an ``osr-exit`` site whose speculation failed).
OSR_MAP_OUT_COST = 2

#: The closed strategy vocabulary for :attr:`CostModel.deopt_strategy`.
DEOPT_STRATEGIES = ("guard", "osr-exit", "planned")


@dataclass
class CostModel:
    """The values callers override, each field's default the frozen value.

    Ablation and causal experiments construct modified instances (see
    :meth:`replace`) instead of mutating module state.
    """

    # -- execution-tier costs ------------------------------------------------

    #: Multiplier applied to all work executed in baseline-compiled code.
    #: Jikes RVM's non-optimizing baseline compiler produces code several
    #: times slower than the optimizing compiler's output.
    baseline_exec_mult: float = 2.6
    #: Multiplier for optimized code (the reference tier).
    opt_exec_mult: float = 1.0
    #: Cycles of call overhead for a statically-bound (direct) call that
    #: was not inlined: argument shuffling, frame construction, return.
    call_overhead: int = 6
    #: Cycles of overhead for a virtual (or interface) dispatch that was
    #: not inlined or whose inline guards all failed: vtable load +
    #: indirect branch + call overhead.
    virtual_dispatch: int = 9
    #: Cycles for a single inline guard (class test) executed at a guarded
    #: inline site.  A successful guard replaces a ``virtual_dispatch``.
    guard_test: int = 2

    # -- method size classes (paper Section 3.1) -----------------------------

    #: Tiny methods: body smaller than 2x a call.  Unconditionally inlined
    #: when statically bound without a guard.
    tiny_limit: int = 2 * CALL_UNITS
    #: Small methods: 2-5x a call.  Inlined subject to space/depth
    #: heuristics.
    small_limit: int = 5 * CALL_UNITS
    #: Medium methods: 5-25x a call.  Candidates for profile-directed
    #: inlining only.
    medium_limit: int = 25 * CALL_UNITS

    # -- compiler tiers ------------------------------------------------------

    #: Cycles per bytecode for the non-optimizing baseline compiler.
    baseline_compile_cycles_per_bc: int = 2
    #: Cycles per bytecode for the optimizing compiler.  The cost is charged
    #: on the *inlined* size of the compiled method, which is how
    #: context-sensitive inlining reduces compile time in the paper.
    opt_compile_cycles_per_bc: int = 14

    # -- sampling and organizers (paper Section 3.2) -------------------------

    #: Cycles between timer samples.  Jikes RVM samples at ~100Hz; the
    #: workloads here run for single-digit millions of cycles, so the
    #: interval is scaled to land a few hundred to a few thousand samples
    #: per run.
    sample_interval: int = 1_600
    #: Fixed cycles charged to the "AOS listeners" component per sample
    #: taken (method listener + buffer insertion).
    method_listener_cost: int = 4
    #: Cycles charged per stack frame traversed by the edge/trace listener.
    #: The trace listener walks deeper than the edge listener; this is how
    #: the paper observes up to 2x listener overhead that is still <0.06%
    #: of execution.
    trace_frame_cost: int = 3
    #: Number of buffered trace samples that triggers the dynamic call
    #: graph organizer to wake up and process the buffer.
    trace_buffer_capacity: int = 32
    #: Cycles the dynamic call graph organizer spends ingesting one sample.
    dcg_ingest_cost: int = 6
    #: Cycles the adaptive-inlining organizer spends examining one trace
    #: entry while deriving inlining rules.
    ai_examine_cost: int = 1
    #: Cycles the hot-methods organizer spends aggregating one method
    #: sample.
    method_organizer_cost: int = 4
    #: Cycles the controller spends evaluating one organizer event.
    controller_event_cost: int = 15
    #: Cycles the decay organizer spends decaying one profile entry.
    decay_entry_cost: int = 2
    #: Cycles the missing-edge organizer spends per (hot method, rule)
    #: check.
    missing_edge_check_cost: int = 2
    #: How often (in cycles) the decay organizer runs.
    decay_period: int = 600_000
    #: Multiplicative decay applied to dynamic call graph weights each
    #: decay period, biasing hot-edge detection toward recent samples
    #: (Section 3.2).
    decay_rate: float = 0.8

    # -- adaptive-inlining policy --------------------------------------------

    #: An edge/trace becomes an inlining rule when it contributes more than
    #: this fraction of the total profile weight (paper Section 4,
    #: footnote: 1.5%).
    hot_edge_threshold: float = 0.015
    #: Maximum number of distinct targets inlined under guards at one
    #: virtual call site.
    max_guarded_targets: int = 3
    #: Guarded inlining requires the chosen targets to cover at least this
    #: fraction of the call site's profile weight in the applicable
    #: contexts (the "skewed receiver distribution" requirement): inlining
    #: targets that miss often is a net loss, since every miss pays the
    #: guards *and* the full virtual dispatch.
    guard_coverage_min: float = 0.8
    #: Maximum inlining depth in one compiled method.
    max_inline_depth: int = 6
    #: A root method's inlined size may grow to at most this multiple of
    #: its original size before further *small-method* inlining is
    #: refused...
    space_expansion_factor: float = 5.0
    #: ...and never beyond this absolute inlined-bytecode cap.
    absolute_size_cap: int = 768
    #: Minimum cycles between successive optimizing recompilations of the
    #: same method.  Profile-driven recompilation requests arriving faster
    #: than this are deferred; this bounds recompile churn when rule sets
    #: evolve quickly.
    recompile_cooldown: int = 400_000
    #: Whether baseline loops transfer onto optimized code (on-stack
    #: replacement).
    osr_enabled: bool = True
    #: On-stack replacement: a baseline method whose loops have executed
    #: this many back edges is queued for optimizing compilation even if
    #: the method listener never catches it (long-running loops hide from
    #: invocation-biased sampling), and its executing loop transfers to
    #: the new code.
    osr_backedge_threshold: int = 800
    #: How often (in back edges) a baseline loop polls for freshly
    #: installed optimized code to transfer onto.
    osr_poll_period: int = 64

    # -- speculation-risk static analysis (guard elision) --------------------

    #: Whether guard plans may use the speculation dataflow pass (receiver
    #: preexistence and invalidation-cone risk); see
    #: ``DeoptPlanner.plan_site``.  Off by default: elision is
    #: opt-in, never ambient, so default runs stay byte-identical to the
    #: golden decision logs.
    speculation_enabled: bool = False
    #: A preexistent-receiver guard is elided only when the assumption's
    #: churn-weighted invalidation risk is at or below this threshold.
    #: Risk is the assumption's share of predicted future class-loading
    #: churn, normalized to [0, 1].
    speculation_elide_max_risk: float = 0.9

    # -- OSR liveness and deoptimization planning ----------------------------

    #: Whether the liveness/deopt planning pass runs (backward
    #: live-variable analysis, per-OSR-point state-mapping costs, and the
    #: ``deopt_strategy`` rule of ``DeoptPlanner.plan_site``).  Off by
    #: default under the same contract as ``speculation_enabled``: stock
    #: runs stay byte-identical to the golden decision logs.
    deopt_planning_enabled: bool = False
    #: Per-site deoptimization strategy, one of :data:`DEOPT_STRATEGIES`,
    #: a sweepable policy dimension that ``DeoptPlanner.plan_site``
    #: applies when planning is enabled:
    #:
    #: * ``"guard"``    -- every speculative inline keeps its compiled guard
    #:   chain with an in-code dispatch fallback (the stock behaviour; only
    #:   speculation, when enabled, removes guards).
    #: * ``"osr-exit"`` -- every guarded site is compiled as a cheap-exit
    #:   OSR point instead: the fast path pays no guard cycles, and a
    #:   failed speculation pays a live-state-mapped exit plus a
    #:   baseline-tier dispatch.
    #: * ``"planned"``  -- the planner chooses per site from full guard,
    #:   cheap exit and guard-free (preexistence) using liveness-derived
    #:   exit cost, speculation risk, and the k-CFA precision lattice.
    deopt_strategy: str = "guard"

    @property
    def centi_mults(self) -> Tuple[int, int, int]:
        """Centi-cycles per unit of work in baseline, optimized and
        inlined code: 260, 100 and 92 under the default values."""
        return (to_centi(self.baseline_exec_mult),
                to_centi(self.opt_exec_mult),
                to_centi(self.opt_exec_mult * (1.0 - INLINE_WORK_DISCOUNT)))

    @property
    def estimated_opt_speedup(self) -> float:
        """The controller's analytic model: estimated speedup of optimized
        over baseline code, used in the cost/benefit recompilation test."""
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
