"""Dynamic soundness checking: static target sets must contain every
observed dispatch edge, at every precision tier.

The static call graphs are only useful if they *over-approximate*
execution: a (site -> target) edge the machine actually dispatches that a
static target set does not contain would mean the verifier, the static
oracles, and every report built on the graphs are reasoning about a
different program than the one that runs.  :func:`replay` runs the
fixed-seed adaptive system once with consumers as its event sinks
(DESIGN.md, "Events"); :class:`DispatchEdges` collects every
dynamically executed dispatch edge, qualified by the source-level
calling context read off the shadow stack, and the checks below test
containment site by site.  :class:`ElisionWatch` and
:class:`LiveStateWatch` consume the same stream to police guard elision
and OSR live-state mapping.

:func:`check_tiers` checks one replay's edges against any tiers of the
precision chain ``observed ⊆ kCFA(ctx) ⊆ ... ⊆ 0CFA ⊆ RTA ⊆ CHA``
(:class:`~repro.analysis.lattice.PrecisionChain`), one report per tier.
A k-CFA tier is checked *context-conditioned*: an edge only counts as
contained when the target set of the specific truncated call string it
executed under contains it.  A flat tier has no contexts and is checked
on each site's executed targets.  Each violation carries a ``code``
naming the tier that broke (``unsound-cha``, ``unsound-1cfa``, ...).

The same machinery feeds decision-diff *attribution*: a flip between two
runs at a site the static graph proves monomorphic cannot be explained by
profile evidence (both oracles see the same sole target -- the flip is a
budget/ordering effect), while a flip at a statically polymorphic site is
exactly where static and profile-directed inlining disagree.  ``repro
decisions diff --attribute-static`` renders that classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.analysis.callgraph import StaticCallGraph
from repro.analysis.kcfa import (CallString, ContextSensitiveCallGraph,
                                 truncate)
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.program import Program
from repro.provenance.diff import DecisionDiff, Flip

if TYPE_CHECKING:  # pragma: no cover - layering: aos imports analysis
    from repro.aos.runtime import RunResult

#: One tier of the precision chain: a flat or a context-sensitive graph.
CallGraph = Union[StaticCallGraph, ContextSensitiveCallGraph]

#: Attribution buckets for decision-diff flips.
ATTR_STATIC_DECIDED = "static-decided"    #: CHA-monomorphic site
ATTR_PROFILE_DECIDED = "profile-decided"  #: CHA-polymorphic dispatch site
ATTR_UNKNOWN_SITE = "unknown-site"        #: site absent from the graph


@dataclass(frozen=True)
class SoundnessViolation:
    """One dynamically observed edge outside the static target set."""

    site: int
    caller: str
    selector: str
    observed: str                 #: dynamically executed target id
    allowed: Tuple[str, ...]      #: the static target set at the site
    tier: str                     #: precision tier whose set was violated
    #: dynamic call string the edge executed under, for tiers checked
    #: context-conditioned (None for flat tiers)
    context: Optional[CallString]

    @property
    def code(self) -> str:
        """Stable violation code naming the tier that broke."""
        return f"unsound-{self.tier}"


@dataclass(frozen=True)
class SoundnessReport:
    """Outcome of one containment check (static graph vs one run)."""

    program_name: str
    precision: str
    sites_observed: int           #: dispatch sites that executed
    edges_observed: int           #: distinct (site, target) edges seen
    violations: Tuple[SoundnessViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def replay(program: Program, costs: CostModel = DEFAULT_COSTS,
           phase: float = 0.0,
           sinks: Sequence[object] = ()) -> "RunResult":
    """Run the fixed-seed ``cins`` adaptive system once; return its result.

    ``sinks`` watch the run as :class:`AdaptiveRuntime`'s do.  Events
    charge no cycles and change no decisions, so the result is the
    unobserved run's.
    """
    from repro.aos.runtime import AdaptiveRuntime
    from repro.policies import make_policy

    return AdaptiveRuntime(program, make_policy("cins", costs=costs),
                           costs, sample_phase=phase, sinks=sinks).run()


#: (site, dynamic call string) -> executed target -> dispatch count.
ContextEdges = Dict[Tuple[int, CallString], Dict[str, int]]


class DispatchEdges:
    """``dispatch`` consumer: every executed virtual dispatch edge,
    keyed by its site and the dynamic call string.

    The call string is read off the machine's source-level shadow stack
    at dispatch time -- innermost-first call-site ids, truncated to
    ``k`` -- so inlined activations contribute their sites exactly as
    the source-level call stack holds them.  At ``k=0`` every call
    string is empty: the flat edges.  Counts are per executed dispatch,
    which makes :attr:`edges` the per-context dispatch counts the
    precision score compares k-CFA predictions against.
    """

    #: The watched machine; the adaptive runtime sets it.
    machine = None

    def __init__(self, k: int):
        self.k = k
        self.edges: ContextEdges = {}

    def dispatch(self, site: int, target_id: str) -> None:
        chain: List[int] = []
        for frame in reversed(self.machine.stack):
            if frame.site is None or len(chain) >= self.k:
                break
            chain.append(frame.site)
        slot = self.edges.setdefault((site, tuple(chain)), {})
        slot[target_id] = slot.get(target_id, 0) + 1


def truncate_context_edges(edges: ContextEdges, k: int) -> ContextEdges:
    """Re-key edges on call strings truncated to ``k`` (counts summed)."""
    out: ContextEdges = {}
    for (site, ctx), targets in edges.items():
        slot = out.setdefault((site, truncate(ctx, k)), {})
        for target, count in targets.items():
            slot[target] = slot.get(target, 0) + count
    return out


def check_tiers(tiers: Sequence[CallGraph],
                edges: ContextEdges) -> Tuple[SoundnessReport, ...]:
    """Check a replay's edges against each tier; one report per tier.

    A k-CFA tier is checked context-conditioned: each observed edge must
    be in the target set of the *specific* truncated call string it ran
    under.  A flat tier compares at k=0, on each site's executed
    targets, and its violations carry ``context=None``.
    """
    reports: List[SoundnessReport] = []
    for graph in tiers:
        contextual = isinstance(graph, ContextSensitiveCallGraph)
        truncated = truncate_context_edges(edges,
                                           graph.k if contextual else 0)
        violations: List[SoundnessViolation] = []
        for site, ctx in sorted(truncated):
            allowed = (graph.targets(site, ctx) if contextual
                       else graph.targets(site))
            info = graph.sites.get(site)
            for target in sorted(set(truncated[(site, ctx)]) - allowed):
                violations.append(SoundnessViolation(
                    site=site,
                    caller=info.caller if info is not None else "<unknown>",
                    selector=(info.selector if info is not None
                              else "<unknown>"),
                    observed=target,
                    allowed=tuple(sorted(allowed)),
                    tier=graph.precision,
                    context=ctx if contextual else None))
        reports.append(SoundnessReport(
            program_name=graph.program_name, precision=graph.precision,
            sites_observed=len({site for site, _ctx in truncated}),
            edges_observed=sum(len(targets)
                               for targets in truncated.values()),
            violations=tuple(violations)))
    return tuple(reports)


# -- guard-elision replay ------------------------------------------------------


@dataclass(frozen=True)
class ElisionViolation:
    """One elided-guard entry whose compiled-out test would have failed.

    The machine enters the inlined body behind an elided guard without
    testing anything; the elision is sound only if full dispatch would
    have picked the same target every time.  ``entered != resolved``
    means the site's guard plan let a wrong body run.
    """

    site: int
    #: kind of the plan that compiled the test out: "preexist" or
    #: "exhaustive"
    elision_kind: str
    entered: str                 #: target whose inlined body was entered
    resolved: str                #: what full dispatch would have called
    count: int = 1               #: dynamic occurrences on this run

    @property
    def code(self) -> str:
        return f"unsound-elision-{self.elision_kind}"


@dataclass(frozen=True)
class ElisionReport:
    """Outcome of one fixed-seed replay with guard elision enabled."""

    result: "RunResult"           #: the replay run
    violations: Tuple[ElisionViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ElisionWatch:
    """``elided`` consumer: counts every entry through an elided guard
    whose target differs from what full dispatch resolves."""

    def __init__(self):
        self.mismatches: Dict[Tuple[int, str, str, str], int] = {}

    def elided(self, site: int, kind: str, entered: str,
               resolved: str) -> None:
        if entered != resolved:
            key = (site, kind, entered, resolved)
            self.mismatches[key] = self.mismatches.get(key, 0) + 1

    def report(self, result: "RunResult") -> ElisionReport:
        return ElisionReport(result=result, violations=tuple(
            ElisionViolation(site=site, elision_kind=kind, entered=entered,
                             resolved=resolved, count=count)
            for (site, kind, entered, resolved), count
            in sorted(self.mismatches.items())))


def check_elision_soundness(program: Program,
                            costs: CostModel = DEFAULT_COSTS,
                            phase: float = 0.0) -> ElisionReport:
    """Replay with speculation enabled; assert no elided guard would fire.

    Forces ``speculation_enabled`` on (the elision machinery is opt-in
    everywhere else), replays the fixed-seed adaptive system with an
    :class:`ElisionWatch`, and checks that every entry through an elided
    guard entered exactly the target a full dispatch would have
    resolved.  For preexistence elisions this certifies the invalidation
    cone did its job; for exhaustive elisions it certifies the
    acceptance-set containment argument.
    """
    watch = ElisionWatch()
    costs = costs.replace(speculation_enabled=True)
    return watch.report(replay(program, costs, phase, [watch]))


# -- OSR live-state replay -----------------------------------------------------


@dataclass(frozen=True)
class OSRViolation:
    """One post-transfer local read the static live set failed to cover.

    After an OSR transition (loop entry onto optimized code, or a
    cheap-exit deoptimization) only the statically-computed live set is
    mapped across the tier boundary.  A read of a slot outside that set
    -- not preceded by a post-transfer write of the same slot -- means
    the transition would have read garbage in a real VM.
    """

    method: str
    kind: str                    #: "osr-entry" or "deopt-exit"
    where: str                   #: loop path, or "site N" for exits
    index: int                   #: the local slot read
    live: Tuple[int, ...]        #: the static live set at the point
    count: int = 1               #: dynamic occurrences on this run

    @property
    def code(self) -> str:
        return f"unsound-live-{self.kind}"


@dataclass(frozen=True)
class OSRReport:
    """Outcome of one fixed-seed replay with deopt planning enabled."""

    result: "RunResult"           #: the replay run
    reads_checked: int            #: local reads in watched activations
    violations: Tuple[OSRViolation, ...]
    #: entries through a guard the replay's plans elided whose target
    #: differs from what full dispatch resolves
    elision_violations: Tuple[ElisionViolation, ...]
    #: guarded sites of the code installed at the end of the replay, per
    #: guard-plan kind
    plan_sites: Dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.elision_violations


class LiveStateWatch:
    """``osr_entry``, ``deopt_exit``, ``local`` and ``elided`` consumer:
    checks each read in a transferred activation against the live set
    mapped across, and each elided-guard entry against full dispatch.

    From each transition onward, every local the interpreter actually
    reads in the transferred activation must be either in the
    statically computed live set that was mapped across, or re-written
    after the transfer (reads after a post-transfer write never consult
    mapped state).  Re-watching an activation at a newer transition
    replaces its contract.  The ``planned`` strategy elides guards too,
    so an :class:`ElisionWatch` checks the same run's ``elided`` events.
    """

    #: The watched machine; the adaptive runtime sets it.
    machine = None

    def __init__(self, program: Program):
        from repro.analysis.liveness import _loop_paths

        self.loop_paths: Dict[int, str] = {}
        for method in program.methods():
            self.loop_paths.update(_loop_paths(method))
        # id(locals_) -> [locals_, live, written, method_id, kind, where].
        # The strong reference to the locals list pins its id for the
        # whole run, so a recycled id can never alias a watched
        # activation.
        self.watched: Dict[int, list] = {}
        self.counts: Dict[Tuple[str, str, str, int, Tuple[int, ...]],
                          int] = {}
        self.reads_checked = 0
        self.elisions = ElisionWatch()
        self.elided = self.elisions.elided

    def _watch(self, locals_, live, method_id: str, kind: str,
               where: str) -> None:
        self.watched[id(locals_)] = [locals_, frozenset(live), set(),
                                     method_id, kind, where]

    def osr_entry(self, method_id: str, loop_stmt, locals_) -> None:
        index = self.machine.osr_liveness or {}
        self._watch(locals_, index.get(id(loop_stmt), frozenset()),
                    method_id, "osr-entry",
                    self.loop_paths.get(id(loop_stmt), "<loop>"))

    def deopt_exit(self, site: int, exit_live, locals_) -> None:
        self._watch(locals_, exit_live, self.machine.stack[-1].method.id,
                    "deopt-exit", f"site {site}")

    def local(self, locals_, index: int, is_read: bool) -> None:
        entry = self.watched.get(id(locals_))
        if entry is None or entry[0] is not locals_:
            return
        if not is_read:
            entry[2].add(index)
            return
        self.reads_checked += 1
        if index in entry[1] or index in entry[2]:
            return
        key = (entry[3], entry[4], entry[5], index, tuple(sorted(entry[1])))
        self.counts[key] = self.counts.get(key, 0) + 1

    def report(self, result: "RunResult") -> OSRReport:
        plan_sites: Dict[str, int] = {}
        for compiled in self.machine.code_cache.opt_methods():
            for node in compiled.root.walk():
                for decision in node.decisions.values():
                    if decision.plan is not None:
                        kind = decision.plan.kind
                        plan_sites[kind] = plan_sites.get(kind, 0) + 1
        return OSRReport(
            result=result, reads_checked=self.reads_checked,
            violations=tuple(
                OSRViolation(method=method, kind=kind, where=where,
                             index=index, live=live, count=count)
                for (method, kind, where, index, live), count
                in sorted(self.counts.items())),
            elision_violations=self.elisions.report(result).violations,
            plan_sites=plan_sites)


def check_osr_soundness(program: Program, costs: CostModel = DEFAULT_COSTS,
                        phase: float = 0.0) -> OSRReport:
    """Replay with deopt planning on; check live sets and elided guards.

    Forces ``deopt_planning_enabled`` and the ``planned`` strategy (the
    configuration exercising both OSR-point flavours and its own guard
    elision) and replays the fixed-seed adaptive system with a
    :class:`LiveStateWatch`.  The report also counts the guarded sites
    of the installed code per plan kind.
    """
    watch = LiveStateWatch(program)
    costs = costs.replace(deopt_planning_enabled=True,
                          deopt_strategy="planned")
    return watch.report(replay(program, costs, phase, [watch]))


# -- decision-diff attribution -------------------------------------------------


def attribute_flips(diff: DecisionDiff, graph: StaticCallGraph) \
        -> Dict[str, List[Flip]]:
    """Classify diff flips by what the static call graph knows of the site.

    A flip at a :data:`ATTR_STATIC_DECIDED` site (statically bound or
    monomorphic) cannot come from profile evidence -- both runs' oracles
    see the same sole target, so the divergence is a budget, ordering, or
    tree-shape effect.  A flip at a :data:`ATTR_PROFILE_DECIDED` site
    (statically polymorphic dispatch) is genuine static-vs-profile
    disagreement: only profile data can pick targets there.
    """
    buckets: Dict[str, List[Flip]] = {
        ATTR_STATIC_DECIDED: [], ATTR_PROFILE_DECIDED: [],
        ATTR_UNKNOWN_SITE: []}
    for flip in diff.flips:
        _caller, site, _context = flip.key
        info = graph.sites.get(site)
        if info is None:
            buckets[ATTR_UNKNOWN_SITE].append(flip)
        elif info.dispatched and not info.monomorphic:
            buckets[ATTR_PROFILE_DECIDED].append(flip)
        else:
            buckets[ATTR_STATIC_DECIDED].append(flip)
    return buckets


def render_attribution(buckets: Dict[str, List[Flip]],
                       graph: StaticCallGraph,
                       limit: Optional[int] = None) -> str:
    """Human-readable static-vs-profile attribution section."""
    total = sum(len(flips) for flips in buckets.values())
    lines = [f"static attribution ({graph.precision} over "
             f"{graph.program_name}): {total} flip(s)"]
    titles = (
        (ATTR_PROFILE_DECIDED,
         "static-vs-profile disagreement (polymorphic in the static graph)"),
        (ATTR_STATIC_DECIDED,
         "statically decided (budget/ordering effects, not profile)"),
        (ATTR_UNKNOWN_SITE, "sites unknown to the static graph"))
    for key, title in titles:
        flips = buckets.get(key, [])
        if not flips:
            continue
        lines.append(f"  {title}: {len(flips)}")
        shown = flips if limit is None else flips[:limit]
        for flip in shown:
            lines.append(f"    [{flip.kind}] {flip.describe()}")
        if limit is not None and len(flips) > limit:
            lines.append(f"    ... and {len(flips) - limit} more")
    return "\n".join(lines)
