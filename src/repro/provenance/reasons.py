"""The closed vocabularies of the decision-provenance layer.

Every oracle verdict carries a **reason code** drawn from
:class:`ReasonCode` -- a closed enum replacing the free-text reason
strings that used to be scattered through
:mod:`repro.compiler.oracle`.  A closed vocabulary is what makes
decision logs diffable: two runs can only be aligned record-by-record
when "why" is an enumerable value, not prose.

:class:`EventKind` is the event vocabulary of both the provenance
recorder's event records and :mod:`repro.aos.event_log`'s timeline, so
the two logs cannot drift apart.

Versioning policy: enum **values** are part of the on-disk JSONL schema
(see :mod:`repro.provenance.records`).  Renaming or removing a value is
a schema break and must bump ``records.SCHEMA``; adding a new value is
backward compatible (old readers must treat unknown codes as opaque
strings).
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Union


class ReasonCode(enum.Enum):
    """Why the oracle answered the way it did, as a closed code.

    The values are stable strings (they appear verbatim in decision
    records, ``Decision.reason``, and the AOS database's recorded
    refusals).  Grouped by the kind of verdict they accompany:
    """

    # -- inline verdicts (direct or guarded) ---------------------------------
    #: Statically-bound callee under the tiny limit: always inlined.
    TINY = "tiny"
    #: Statically-bound small callee within the code-expansion budget.
    SMALL = "small"
    #: Small callee past the normal budget, forced by a hot profile rule
    #: (paper Section 3.1, third profile use).
    SMALL_HOT = "small-hot"
    #: Medium callee predicted by the profile (profile-directed only).
    MEDIUM_HOT = "medium-hot"
    #: Guarded inline of the profile's predicted target set (Equation 3
    #: partial match + intersection of target sets).
    PROFILE = "profile"
    #: Static-oracle only: a bound callee past the normal limits, forced
    #: by the static call graph's frequency estimate (no profile input).
    STATIC_HOT = "static-hot"
    #: Static-context-oracle only: k-CFA proves every call string
    #: compatible with the compilation context reaches one target, so the
    #: site inlines *directly* -- the context, not a guard, protects it.
    STATIC_CTX_MONO = "static-ctx-mono"
    #: Guarded loaded-world CHA inline whose method-test guard was
    #: *elided*: the speculation dataflow analysis proved the receiver
    #: preexists the compilation (Detlefs & Agesen), so invalidation
    #: alone protects the inline and the guard test is never emitted.
    #: The verdict stays ``guarded`` -- only the guard's cost changes.
    GUARD_ELIDED_PREEXIST = "guard-elided-preexist"
    #: Deopt planner only: the guarded site was compiled as a cheap-exit
    #: OSR point -- no guard cycles on the fast path, a live-state-mapped
    #: deoptimization exit on a broken speculation (``deopt_strategy``
    #: ``osr-exit``/``planned`` under ``deopt_planning_enabled``).
    DEOPT_PLANNED_OSR = "deopt-planned-osr"
    #: Deopt planner only: the planner evaluated the site under the
    #: ``planned`` strategy and *kept* the full guard chain (exit too
    #: expensive relative to its liveness-derived state-mapping cost).
    DEOPT_PLANNED_GUARD = "deopt-planned-guard"

    # -- refusals -------------------------------------------------------------
    #: Callee is the compilation root or already on the inline chain.
    RECURSIVE = "recursive"
    #: Site sits at the maximum inline nesting depth.
    DEPTH = "depth"
    #: Callee is in the never-inlined size class.
    LARGE = "large"
    #: Inlining would exceed the absolute per-method size cap.
    SPACE = "space"
    #: Small callee past the expansion budget with no hot rule to force it.
    BUDGET = "budget"
    #: Medium/virtual site with no applicable profile prediction.
    NO_PROFILE = "no_profile"
    #: Profile predicted targets, but none survived the size/recursion
    #: screens.
    NO_ELIGIBLE_TARGET = "no_eligible_target"
    #: Chosen targets cover too little of the site's context-applicable
    #: dispatch weight (the skewed-receiver requirement).
    UNSKEWED = "unskewed"
    #: Static-oracle only: the static call graph sees multiple targets at
    #: this site and there is no profile to discriminate between them.
    STATIC_POLY = "static-poly"
    #: Static-oracle only: a bound medium callee whose static frequency
    #: estimate is below the hotness threshold.
    STATIC_COLD = "static-cold"
    #: Static-context-oracle only: even conditioned on the compilation
    #: context, k-CFA still sees multiple targets at the site.
    STATIC_CTX_POLY = "static-ctx-poly"


#: Every legal reason string, for validation and for the DESIGN.md table.
REASON_CODES: FrozenSet[str] = frozenset(code.value for code in ReasonCode)

#: Reason codes that accompany an *inline* verdict.
INLINE_REASONS: FrozenSet[str] = frozenset((
    ReasonCode.TINY.value, ReasonCode.SMALL.value, ReasonCode.SMALL_HOT.value,
    ReasonCode.MEDIUM_HOT.value, ReasonCode.PROFILE.value,
    ReasonCode.STATIC_HOT.value, ReasonCode.STATIC_CTX_MONO.value,
    ReasonCode.GUARD_ELIDED_PREEXIST.value,
    ReasonCode.DEOPT_PLANNED_OSR.value,
    ReasonCode.DEOPT_PLANNED_GUARD.value))

#: Reason codes that accompany a *refused* verdict.
REFUSAL_REASONS: FrozenSet[str] = REASON_CODES - INLINE_REASONS


def reason_value(reason: Union["ReasonCode", str]) -> str:
    """Normalize a :class:`ReasonCode` member or plain string to the code."""
    if isinstance(reason, ReasonCode):
        return reason.value
    return str(reason)


class EventKind(enum.Enum):
    """Shared vocabulary of adaptive-system event records.

    :mod:`repro.aos.event_log` records the first six kinds and the
    provenance recorder the others plus ``invalidate`` and ``osr``, so
    the two logs speak one language.
    """

    COMPILE = "compile"
    RULE_ADDED = "rule_added"
    RULE_RETIRED = "rule_retired"
    INVALIDATE = "invalidate"
    OSR = "osr"
    DECAY = "decay"
    PLAN = "plan"
    PLAN_DEFERRED = "plan_deferred"
    EVICTION = "eviction"


# -- verdicts ------------------------------------------------------------------

#: Verdict strings used in decision records.
VERDICT_DIRECT = "direct"
VERDICT_GUARDED = "guarded"
VERDICT_REFUSED = "refused"

VERDICTS = (VERDICT_DIRECT, VERDICT_GUARDED, VERDICT_REFUSED)

#: Guard kinds annotating how a devirtualized inline is protected.
GUARD_CLASS_TEST = "class_test"      # profile-guided guard on receiver class
GUARD_METHOD_TEST = "method_test"    # loaded-world CHA, guarded variant
GUARD_PREEXISTENCE = "preexistence"  # loaded-world CHA, no guard (invalidation)

GUARD_KINDS = (GUARD_CLASS_TEST, GUARD_METHOD_TEST, GUARD_PREEXISTENCE)
