"""The precision chain and the lattice report built over it.

:class:`PrecisionChain` owns the chain ``CHA ⊇ RTA ⊇ 0CFA ⊇ 1CFA ⊇
2CFA``: which tiers, in which order, and how each is built.  It builds
a tier the first time a caller reads it and keeps it, so every section
of ``repro analyze`` shares one graph per tier and a tier nobody reads
is never built.

One lattice report answers three questions the paper's motivation
turns on:

1. **How much does each tier narrow?**  Per dispatched site the report
   records target-set sizes along ``CHA ⊇ RTA ⊇ 0CFA ⊇ 1CFA ⊇ 2CFA ⊇
   observed`` -- plus whether a k-CFA tier proves the site
   *context-monomorphic* (every call string pins a single target) even
   though its context-insensitive union stays polymorphic.  Those
   "rescued" sites are exactly where the paper's context-sensitive
   profiles beat flat ones, recovered here statically.
2. **Is the chain actually a chain?**  Static inter-tier containment is
   checked per site; any coarser tier missing a finer tier's target is a
   construction bug and is reported as a violation.
3. **How predictive is static context?**  For each tier the report
   scores the statically predicted majority target against the dynamic
   majority from a fixed-seed replay's context-qualified dispatch counts
   (:class:`~repro.analysis.soundness.DispatchEdges`), weighted by
   dispatch count.  Flat tiers predict one target per site; k-CFA tiers
   predict per truncated call string.

``repro analyze --lattice`` embeds :func:`lattice_to_json` in the
versioned analysis bundle and prints a summary of that payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, List, Optional, Tuple

from repro.analysis.callgraph import (CHA, RTA, StaticCallGraph,
                                      build_call_graph)
from repro.analysis.kcfa import (CallString, ContextSensitiveCallGraph,
                                 build_kcfa_graph, truncate)
from repro.analysis.soundness import (CallGraph, ContextEdges,
                                      truncate_context_edges)
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.program import Program

#: k depths of the precision chain's k-CFA tiers.
LATTICE_KS = (0, 1, 2)


class PrecisionChain:
    """Every analysis tier of one program, each built on first use.

    ``keep`` names the tiers (``"cha"``, ``"1cfa"``, ...) kept once
    built, so that later reads share them; by default every tier is
    kept.  A tier not kept is built on each read and freed with its
    reader, so a caller that reads each tier once holds one graph at a
    time.
    """

    def __init__(self, program: Program, costs: CostModel = DEFAULT_COSTS,
                 keep: Optional[Collection[str]] = None):
        self.program = program
        self.costs = costs
        self._keep = keep
        self._graphs: Dict[str, CallGraph] = {}

    def _tier(self, name: str, build: Callable[[], CallGraph]) -> CallGraph:
        graph = self._graphs.get(name)
        if graph is None:
            graph = build()
            if self._keep is None or name in self._keep:
                self._graphs[name] = graph
        return graph

    def flat(self, precision: str) -> StaticCallGraph:
        """The flat graph at :data:`CHA` or :data:`RTA` precision."""
        return self._tier(precision, lambda: build_call_graph(
            self.program, precision=precision, costs=self.costs))

    def kcfa(self, k: int) -> ContextSensitiveCallGraph:
        """The k-CFA graph at depth ``k``, in the chain or not."""
        return self._tier(f"{k}cfa", lambda: build_kcfa_graph(
            self.program, k=k, costs=self.costs))

    def tiers(self) -> Tuple[CallGraph, ...]:
        """Every tier of the chain, coarsest (CHA) first."""
        return ((self.flat(CHA), self.flat(RTA))
                + tuple(self.kcfa(k) for k in LATTICE_KS))


@dataclass(frozen=True)
class SiteLatticeRow:
    """Target-set sizes of one dispatched site across every tier."""

    site: int
    caller: str
    selector: str
    kind: str
    sizes: Tuple[Tuple[str, int], ...]    #: (tier, |targets|), coarse first
    #: tiers (e.g. "1cfa") under which every call string is monomorphic
    context_monomorphic: Tuple[str, ...]
    #: distinct analysis contexts per k-CFA tier
    contexts: Tuple[Tuple[str, int], ...]
    observed: int                          #: distinct executed targets

    def size(self, tier: str) -> Optional[int]:
        for name, value in self.sizes:
            if name == tier:
                return value
        return None

    def rescued_by(self, tier: str) -> bool:
        """RTA-polymorphic but context-monomorphic under ``tier``."""
        rta_size = self.size(RTA)
        return (rta_size is not None and rta_size > 1
                and tier in self.context_monomorphic)


@dataclass(frozen=True)
class TierPrecisionScore:
    """Majority-target prediction accuracy of one tier vs a replay's
    per-context dispatch counts."""

    tier: str
    groups_scored: int      #: (site, truncated context) groups compared
    dispatches: int         #: total dynamic dispatch count over the groups
    matched: int            #: dispatch count where prediction == majority

    @property
    def score(self) -> float:
        return self.matched / self.dispatches if self.dispatches else 0.0


@dataclass(frozen=True)
class ContainmentViolation:
    """A finer tier whose target set is not inside the coarser tier's."""

    site: int
    coarse: str
    fine: str
    extra: Tuple[str, ...]   #: targets in the fine set missing from coarse


@dataclass(frozen=True)
class LatticeReport:
    """The full tiered comparison for one program."""

    program_name: str
    tiers: Tuple[str, ...]                  #: coarse-to-fine static tiers
    rows: Tuple[SiteLatticeRow, ...]        #: dispatched sites, id order
    violations: Tuple[ContainmentViolation, ...]
    scores: Tuple[TierPrecisionScore, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rescued_sites(self, tier: str) -> List[int]:
        """Sites RTA calls polymorphic but ``tier`` proves ctx-monomorphic."""
        return [row.site for row in self.rows if row.rescued_by(tier)]


def build_lattice_report(chain: PrecisionChain,
                         edges: ContextEdges) -> LatticeReport:
    """Assemble the tiered comparison of ``chain`` against a replay.

    ``edges`` are a :class:`~repro.analysis.soundness.DispatchEdges`
    recording at depth ``max(LATTICE_KS)``.
    """
    graphs = {graph.precision: graph for graph in chain.tiers()}
    tiers = tuple(graphs)
    kgraphs = {tier: graph for tier, graph in graphs.items()
               if isinstance(graph, ContextSensitiveCallGraph)}
    flat_observed = truncate_context_edges(edges, 0)

    # Every dispatched site any tier knows about, in id order.
    site_ids = sorted({s.site for g in graphs.values()
                       for s in g.dispatched_sites()})

    rows: List[SiteLatticeRow] = []
    violations: List[ContainmentViolation] = []
    for site in site_ids:
        info = next(g.sites[site] for g in graphs.values() if site in g.sites)
        sizes = tuple((tier, len(graphs[tier].targets(site)))
                      for tier in tiers)
        ctx_mono = tuple(tier for tier, g in kgraphs.items()
                         if g.context_monomorphic(site))
        contexts = tuple(
            (tier, len(g.sites[site].by_context) if site in g.sites else 0)
            for tier, g in kgraphs.items())
        rows.append(SiteLatticeRow(
            site=site, caller=info.caller, selector=info.selector,
            kind=info.kind, sizes=sizes, context_monomorphic=ctx_mono,
            contexts=contexts,
            observed=len(flat_observed.get((site, ()), ()))))
        for coarse, fine in zip(tiers, tiers[1:]):
            extra = graphs[fine].targets(site) - graphs[coarse].targets(site)
            if extra:
                violations.append(ContainmentViolation(
                    site=site, coarse=coarse, fine=fine,
                    extra=tuple(sorted(extra))))

    scores = tuple(_score_tier(graph, edges) for graph in graphs.values())
    return LatticeReport(program_name=chain.program.name, tiers=tiers,
                         rows=tuple(rows), violations=tuple(violations),
                         scores=scores)


def _score_tier(graph: CallGraph, edges: ContextEdges) -> TierPrecisionScore:
    """Score one tier's majority-target predictions against the replay.

    Every tier is scored over the *same* dynamic groups -- the replay's
    (site, full observed call string) pairs -- but each tier's prediction
    may only condition on the prefix it tracks: nothing for flat tiers,
    the string truncated to k for k-CFA.  A context the tier cannot
    distinguish therefore costs it every dispatch whose per-context
    target differs from its one site-wide answer, which is exactly the
    paper's argument for context-sensitive profiles, measured statically.
    The dynamic majority breaks count ties lexicographically, mirroring
    the static side's deterministic tie-break.
    """
    if isinstance(graph, ContextSensitiveCallGraph):
        k = graph.k
        predict = graph.predicted_majority
    else:
        k = 0

        def predict(site: int, _ctx: CallString) -> Optional[str]:
            targets = graph.targets(site)
            # No per-target frequency exists at flat tiers (weight splits
            # evenly); the deterministic representative is the best a
            # context-insensitive predictor can honestly do.
            return min(targets) if targets else None

    groups = dispatches = matched = 0
    for (site, ctx), counts in sorted(edges.items()):
        total = sum(counts.values())
        majority = min(counts, key=lambda t: (-counts[t], t))
        groups += 1
        dispatches += total
        if predict(site, truncate(ctx, k)) == majority:
            matched += total
    return TierPrecisionScore(tier=graph.precision, groups_scored=groups,
                              dispatches=dispatches, matched=matched)


# -- serialization -------------------------------------------------------------


def lattice_to_json(report: LatticeReport) -> Dict[str, object]:
    """JSON-ready ``lattice`` section for the analysis bundle."""
    return {
        "program": report.program_name,
        "tiers": list(report.tiers),
        "ok": report.ok,
        "sites": [{
            "site": row.site,
            "caller": row.caller,
            "selector": row.selector,
            "kind": row.kind,
            "sizes": dict(row.sizes),
            "observed": row.observed,
            "contexts": dict(row.contexts),
            "context_monomorphic": list(row.context_monomorphic),
        } for row in report.rows],
        "containment_violations": [{
            "site": v.site, "coarse": v.coarse, "fine": v.fine,
            "extra": list(v.extra),
        } for v in report.violations],
        "rescued_sites": {
            tier: report.rescued_sites(tier)
            for tier in report.tiers if tier.endswith("cfa")},
        "precision_scores": {s.tier: {
            "groups_scored": s.groups_scored,
            "dispatches": s.dispatches,
            "matched": s.matched,
            "score": round(s.score, 6),
        } for s in report.scores},
    }

