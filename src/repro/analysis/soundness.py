"""Dynamic soundness checking: static target sets must contain every
observed dispatch edge, at every precision tier.

The static call graphs are only useful if they *over-approximate*
execution: a (site -> target) edge the machine actually dispatches that a
static target set does not contain would mean the verifier, the static
oracles, and every report built on the graphs are reasoning about a
different program than the one that runs.  :func:`replay` runs the
fixed-seed adaptive system once with a consumer as the machine's event
sink (DESIGN.md, "Events"); :class:`DispatchEdges` collects every
dynamically executed dispatch edge, qualified by the source-level
calling context read off the shadow stack, and the checks below test
containment site by site.  :class:`ElisionWatch` and
:class:`LiveStateWatch` consume the same stream to police guard elision
and OSR live-state mapping.

:func:`check_soundness` checks one flat graph (CHA by default);
:func:`check_lattice_soundness` checks the whole precision chain
``observed ⊆ kCFA(ctx) ⊆ ... ⊆ 0CFA ⊆ RTA ⊆ CHA`` from a single replay,
with the k-CFA tiers checked *context-conditioned*: an edge only counts
as contained when the target set of the specific truncated call string
it executed under contains it.  Each violation carries a ``code`` naming
the tier that broke (``unsound-cha``, ``unsound-1cfa``, ...).

The same machinery feeds decision-diff *attribution*: a flip between two
runs at a site the static graph proves monomorphic cannot be explained by
profile evidence (both oracles see the same sole target -- the flip is a
budget/ordering effect), while a flip at a statically polymorphic site is
exactly where static and profile-directed inlining disagree.  ``repro
decisions diff --attribute-static`` renders that classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.callgraph import (CHA, RTA, StaticCallGraph,
                                      build_call_graph)
from repro.analysis.kcfa import (CallString, ContextSensitiveCallGraph,
                                 build_kcfa_graph, truncate)
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.program import Program
from repro.provenance.diff import DecisionDiff, Flip

if TYPE_CHECKING:  # pragma: no cover - layering: aos imports analysis
    from repro.aos.runtime import RunResult

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
    tier: str = CHA               #: precision tier whose set was violated
    #: dynamic call string the edge executed under, for tiers checked
    #: context-conditioned (None for flat tiers)
    context: Optional[CallString] = None

    @property
    def code(self) -> str:
        """Stable violation code naming the tier that broke."""
        return f"unsound-{self.tier}"

    def describe(self) -> str:
        where = f"site {self.site} in {self.caller} ({self.selector})"
        if self.context is not None:
            where += f" ctx={list(self.context)}"
        return (f"[{self.code}] {where}: "
                f"executed {self.observed}, static set "
                f"{{{', '.join(self.allowed) or ''}}}")


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

    def render(self) -> str:
        head = (f"soundness {self.program_name} [{self.precision}]: "
                f"{self.edges_observed} dynamic edges over "
                f"{self.sites_observed} sites: ")
        if self.ok:
            return head + "contained"
        lines = [head + f"{len(self.violations)} VIOLATION(S)"]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        return "\n".join(lines)


def replay(program: Program, costs: CostModel = DEFAULT_COSTS,
           phase: float = 0.0, events=None) -> "RunResult":
    """Run the fixed-seed ``cins`` adaptive system once; return its result.

    ``events`` becomes the machine's event sink, with the machine it
    watches as its ``machine`` attribute.  Events charge no cycles and
    change no decisions, so the result is the unobserved run's.
    """
    from repro.aos.runtime import AdaptiveRuntime
    from repro.policies import make_policy

    runtime = AdaptiveRuntime(program, make_policy("cins", costs=costs),
                              costs, sample_phase=phase)
    if events is not None:
        events.machine = runtime.machine
        runtime.machine.events = events
    return runtime.run()


#: (site, dynamic call string) -> executed target -> dispatch count.
ContextEdges = Dict[Tuple[int, CallString], Dict[str, int]]


class DispatchEdges:
    """``dispatch`` consumer: every executed virtual or interface
    dispatch edge, keyed by its site and the dynamic call string.

    The call string is read off the machine's source-level shadow stack
    at dispatch time -- innermost-first call-site ids, truncated to
    ``k`` -- so inlined activations contribute their sites exactly as a
    CCT walk would see them.  At ``k=0`` every call string is empty: the
    flat edges.  Counts are per executed dispatch, which makes
    :attr:`edges` double as the fixed-seed dynamic CCT the precision
    score compares k-CFA predictions against.
    """

    #: The watched machine; :func:`replay` sets it.
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


def check_containment(graph: StaticCallGraph,
                      observed: Dict[int, FrozenSet[str]]) \
        -> SoundnessReport:
    """Assert every observed (site -> target) edge is in the static set."""
    violations: List[SoundnessViolation] = []
    edges = 0
    for site in sorted(observed):
        targets = observed[site]
        edges += len(targets)
        allowed = graph.targets(site)
        info = graph.sites.get(site)
        for target in sorted(targets - allowed):
            violations.append(SoundnessViolation(
                site=site,
                caller=info.caller if info is not None else "<unknown>",
                selector=info.selector if info is not None else "<unknown>",
                observed=target,
                allowed=tuple(sorted(allowed)),
                tier=graph.precision))
    return SoundnessReport(
        program_name=graph.program_name, precision=graph.precision,
        sites_observed=len(observed), edges_observed=edges,
        violations=tuple(violations))


def check_soundness(program: Program,
                    graph: Optional[StaticCallGraph] = None,
                    costs: CostModel = DEFAULT_COSTS,
                    phase: float = 0.0) -> SoundnessReport:
    """End-to-end check: build the CHA graph (unless given), replay a
    fixed-seed run, and verify CHA target sets contain what executed."""
    if graph is None:
        graph = build_call_graph(program, precision=CHA, costs=costs)
    edges = observe_context_edges(program, k=0, costs=costs, phase=phase)
    return check_containment(graph, flatten_context_edges(edges))


# -- guard-elision replay ------------------------------------------------------


@dataclass(frozen=True)
class ElisionViolation:
    """One elided-guard entry whose compiled-out test would have failed.

    The machine enters the inlined body behind an elided guard without
    testing anything; the elision is sound only if full dispatch would
    have picked the same target every time.  ``entered != resolved``
    means the speculation analysis let a wrong body run.
    """

    site: int
    elision_kind: str            #: "preexist", "exhaustive" or "dominated"
    entered: str                 #: target whose inlined body was entered
    resolved: str                #: what full dispatch would have called
    count: int = 1               #: dynamic occurrences on this run

    @property
    def code(self) -> str:
        return f"unsound-elision-{self.elision_kind}"

    def describe(self) -> str:
        return (f"[{self.code}] site {self.site}: entered {self.entered} "
                f"but dispatch resolves {self.resolved} ({self.count}x)")


@dataclass(frozen=True)
class ElisionReport:
    """Outcome of one fixed-seed replay with guard elision enabled."""

    result: "RunResult"           #: the replay run
    violations: Tuple[ElisionViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (f"elision replay {self.result.program_name}: "
                f"{self.result.elided_entries} elided entries, "
                f"{self.result.guard_tests} guard tests: ")
        if self.ok:
            return head + "no elided guard would have failed"
        lines = [head + f"{len(self.violations)} VIOLATION(S)"]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        return "\n".join(lines)


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
    cone did its job; for exhaustive and dominance elisions it certifies
    the acceptance-set containment argument.
    """
    watch = ElisionWatch()
    costs = costs.replace(speculation_enabled=True)
    return watch.report(replay(program, costs, phase, watch))


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

    def describe(self) -> str:
        return (f"[{self.code}] {self.method} {self.where}: read local "
                f"{self.index} outside live set "
                f"{{{', '.join(map(str, self.live))}}} ({self.count}x)")


@dataclass(frozen=True)
class OSRReport:
    """Outcome of one fixed-seed replay with deopt planning enabled."""

    result: "RunResult"           #: the replay run
    reads_checked: int            #: local reads in watched activations
    violations: Tuple[OSRViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (f"osr soundness {self.result.program_name}: "
                f"{self.result.osr_transfers} loop transfer(s), "
                f"{self.result.deopt_exits} deopt exit(s), "
                f"{self.reads_checked} watched read(s): ")
        if self.ok:
            return head + "live sets cover every read"
        lines = [head + f"{len(self.violations)} VIOLATION(S)"]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        return "\n".join(lines)


class LiveStateWatch:
    """``osr_entry``, ``deopt_exit`` and ``local`` consumer: checks each
    read in a transferred activation against the live set mapped across.

    From each transition onward, every local the interpreter actually
    reads in the transferred activation must be either in the
    statically computed live set that was mapped across, or re-written
    after the transfer (reads after a post-transfer write never consult
    mapped state).  Re-watching an activation at a newer transition
    replaces its contract.
    """

    #: The watched machine; :func:`replay` sets it.
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
        return OSRReport(
            result=result, reads_checked=self.reads_checked,
            violations=tuple(
                OSRViolation(method=method, kind=kind, where=where,
                             index=index, live=live, count=count)
                for (method, kind, where, index, live), count
                in sorted(self.counts.items())))


def check_osr_soundness(program: Program, costs: CostModel = DEFAULT_COSTS,
                        phase: float = 0.0) -> OSRReport:
    """Replay with deopt planning on; assert live sets cover every read.

    Forces ``deopt_planning_enabled`` and the ``planned`` strategy (the
    configuration exercising both OSR-point flavours) and replays the
    fixed-seed adaptive system with a :class:`LiveStateWatch`.
    """
    watch = LiveStateWatch(program)
    costs = costs.replace(deopt_planning_enabled=True,
                          deopt_strategy="planned")
    return watch.report(replay(program, costs, phase, watch))


# -- context-conditioned observation and the full precision chain --------------

def observe_context_edges(program: Program, k: int = 2,
                          costs: CostModel = DEFAULT_COSTS,
                          phase: float = 0.0) -> ContextEdges:
    """Replay once; the :class:`DispatchEdges` it collects at depth ``k``."""
    edges = DispatchEdges(k)
    replay(program, costs, phase, edges)
    return edges.edges


def flatten_context_edges(edges: ContextEdges) -> Dict[int, FrozenSet[str]]:
    """Drop contexts: the per-site edge sets flat tiers are checked with."""
    out: Dict[int, set] = {}
    for (site, _ctx), targets in edges.items():
        out.setdefault(site, set()).update(targets)
    return {site: frozenset(targets) for site, targets in out.items()}


def truncate_context_edges(edges: ContextEdges, k: int) -> ContextEdges:
    """Re-key edges on call strings truncated to ``k`` (counts summed)."""
    out: ContextEdges = {}
    for (site, ctx), targets in edges.items():
        slot = out.setdefault((site, truncate(ctx, k)), {})
        for target, count in targets.items():
            slot[target] = slot.get(target, 0) + count
    return out


def check_context_containment(graph: ContextSensitiveCallGraph,
                              edges: ContextEdges) -> SoundnessReport:
    """Context-conditioned containment: each observed edge must be in the
    target set of the *specific* truncated call string it ran under."""
    truncated = truncate_context_edges(edges, graph.k)
    violations: List[SoundnessViolation] = []
    sites = set()
    n_edges = 0
    for site, ctx in sorted(truncated):
        targets = truncated[(site, ctx)]
        sites.add(site)
        n_edges += len(targets)
        allowed = graph.targets(site, context=ctx)
        info = graph.sites.get(site)
        for target in sorted(set(targets) - allowed):
            violations.append(SoundnessViolation(
                site=site,
                caller=info.caller if info is not None else "<unknown>",
                selector=info.selector if info is not None else "<unknown>",
                observed=target,
                allowed=tuple(sorted(allowed)),
                tier=graph.precision,
                context=ctx))
    return SoundnessReport(
        program_name=graph.program_name, precision=graph.precision,
        sites_observed=len(sites), edges_observed=n_edges,
        violations=tuple(violations))


@dataclass(frozen=True)
class LatticeSoundnessReport:
    """Containment of one replay against the whole precision chain."""

    program_name: str
    #: one section per tier, coarsest (CHA) first
    sections: Tuple[SoundnessReport, ...]

    @property
    def ok(self) -> bool:
        return all(section.ok for section in self.sections)

    def violation_codes(self) -> Tuple[str, ...]:
        """Sorted distinct codes of the tiers that broke (empty when ok)."""
        return tuple(sorted({v.code for section in self.sections
                             for v in section.violations}))

    def render(self) -> str:
        status = ("contained at every tier" if self.ok else
                  f"BROKEN tiers: {', '.join(self.violation_codes())}")
        lines = [f"lattice soundness {self.program_name}: {status}"]
        lines.extend("  " + section.render().replace("\n", "\n  ")
                     for section in self.sections)
        return "\n".join(lines)


def check_lattice_soundness(program: Program, ks: Tuple[int, ...] = (0, 1, 2),
                            costs: CostModel = DEFAULT_COSTS,
                            phase: float = 0.0,
                            edges: Optional[ContextEdges] = None) \
        -> LatticeSoundnessReport:
    """Replay once; assert observed ⊆ kCFA(ctx) ⊆ ... ⊆ RTA ⊆ CHA.

    Flat tiers (CHA, RTA) are checked on the context-stripped edge sets;
    each k-CFA tier is checked context-conditioned.  One replay feeds
    every tier, so the sections are comparable edge-for-edge.  Pass
    ``edges`` (from :func:`observe_context_edges` at depth >= max(ks))
    to reuse an existing observation instead of replaying here.
    """
    max_k = max(ks) if ks else 0
    if edges is None:
        edges = observe_context_edges(program, k=max_k, costs=costs,
                                      phase=phase)
    flat = flatten_context_edges(edges)
    sections: List[SoundnessReport] = []
    for precision in (CHA, RTA):
        graph = build_call_graph(program, precision=precision, costs=costs)
        sections.append(check_containment(graph, flat))
    for k in ks:
        kgraph = build_kcfa_graph(program, k=k, costs=costs)
        sections.append(check_context_containment(kgraph, edges))
    return LatticeSoundnessReport(program_name=program.name,
                                  sections=tuple(sections))


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
