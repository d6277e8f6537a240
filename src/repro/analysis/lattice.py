"""The precision lattice: per-site target sets across every analysis tier.

One report answers three questions the paper's motivation turns on:

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
   (the dynamic CCT), weighted by dispatch count.  Flat tiers predict
   one target per site; k-CFA tiers predict per truncated call string.

``repro analyze --lattice`` embeds :func:`lattice_to_json` in the
versioned analysis bundle and prints :func:`render_lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.callgraph import (CHA, RTA, StaticCallGraph,
                                      build_call_graph)
from repro.analysis.kcfa import (CallString, ContextSensitiveCallGraph,
                                 build_kcfa_graph, truncate)
from repro.analysis.soundness import (ContextEdges, flatten_context_edges,
                                      observe_context_edges,
                                      truncate_context_edges)
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.program import Program

#: k depths the lattice report always includes.
LATTICE_KS = (0, 1, 2)


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
    """Majority-target prediction accuracy of one tier vs the dynamic CCT."""

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

    def describe(self) -> str:
        return (f"site {self.site}: {self.fine} ⊄ {self.coarse} "
                f"(extra: {', '.join(self.extra)})")


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


def build_lattice_report(program: Program,
                         ks: Tuple[int, ...] = LATTICE_KS,
                         costs: CostModel = DEFAULT_COSTS,
                         phase: float = 0.0,
                         edges: Optional[ContextEdges] = None) \
        -> LatticeReport:
    """Build every tier, replay once, and assemble the tiered comparison.

    ``edges`` can be passed in to reuse an existing observation (the
    lattice soundness check collects the same data); otherwise a
    fixed-phase replay is performed here.
    """
    flat_graphs: Dict[str, StaticCallGraph] = {
        precision: build_call_graph(program, precision=precision,
                                    costs=costs)
        for precision in (CHA, RTA)}
    kgraphs: Dict[str, ContextSensitiveCallGraph] = {}
    for k in ks:
        graph = build_kcfa_graph(program, k=k, costs=costs)
        kgraphs[graph.precision] = graph
    tiers = (CHA, RTA) + tuple(kgraphs)

    if edges is None:
        edges = observe_context_edges(program, k=max(ks, default=0),
                                      costs=costs, phase=phase)
    flat_observed = flatten_context_edges(edges)

    def tier_targets(tier: str, site: int) -> FrozenSet[str]:
        if tier in flat_graphs:
            return flat_graphs[tier].targets(site)
        return kgraphs[tier].targets(site)

    # Every dispatched site any tier knows about, in id order.
    site_ids = sorted({s.site for g in flat_graphs.values()
                       for s in g.dispatched_sites()}
                      | {s.site for g in kgraphs.values()
                         for s in g.dispatched_sites()})

    rows: List[SiteLatticeRow] = []
    violations: List[ContainmentViolation] = []
    for site in site_ids:
        meta = _site_meta(site, flat_graphs, kgraphs)
        if meta is None:
            continue
        caller, selector, kind = meta
        sizes = tuple((tier, len(tier_targets(tier, site)))
                      for tier in tiers)
        ctx_mono = tuple(tier for tier, g in kgraphs.items()
                         if g.context_monomorphic(site))
        contexts = tuple(
            (tier, len(g.sites[site].by_context) if site in g.sites else 0)
            for tier, g in kgraphs.items())
        rows.append(SiteLatticeRow(
            site=site, caller=caller, selector=selector, kind=kind,
            sizes=sizes, context_monomorphic=ctx_mono, contexts=contexts,
            observed=len(flat_observed.get(site, frozenset()))))
        for coarse, fine in zip(tiers, tiers[1:]):
            extra = tier_targets(fine, site) - tier_targets(coarse, site)
            if extra:
                violations.append(ContainmentViolation(
                    site=site, coarse=coarse, fine=fine,
                    extra=tuple(sorted(extra))))

    scores = tuple(_score_tier(tier, flat_graphs, kgraphs, edges)
                   for tier in tiers)
    return LatticeReport(program_name=program.name, tiers=tiers,
                         rows=tuple(rows), violations=tuple(violations),
                         scores=scores)


def _site_meta(site: int, flat_graphs: Dict[str, StaticCallGraph],
               kgraphs: Dict[str, ContextSensitiveCallGraph]) \
        -> Optional[Tuple[str, str, str]]:
    for graph in flat_graphs.values():
        info = graph.sites.get(site)
        if info is not None:
            return info.caller, info.selector, info.kind
    for kgraph in kgraphs.values():
        kinfo = kgraph.sites.get(site)
        if kinfo is not None:
            return kinfo.caller, kinfo.selector, kinfo.kind
    return None


def _score_tier(tier: str, flat_graphs: Dict[str, StaticCallGraph],
                kgraphs: Dict[str, ContextSensitiveCallGraph],
                edges: ContextEdges) -> TierPrecisionScore:
    """Score one tier's majority-target predictions against the replay.

    Every tier is scored over the *same* dynamic groups -- the CCT's
    (site, full observed call string) pairs -- but each tier's prediction
    may only condition on the prefix it tracks: nothing for flat tiers,
    the string truncated to k for k-CFA.  A context the tier cannot
    distinguish therefore costs it every dispatch whose per-context
    target differs from its one site-wide answer, which is exactly the
    paper's argument for context-sensitive profiles, measured statically.
    The dynamic majority breaks count ties lexicographically, mirroring
    the static side's deterministic tie-break.
    """
    if tier in flat_graphs:
        k = 0
        graph = flat_graphs[tier]

        def predict(site: int, _ctx: CallString) -> Optional[str]:
            targets = graph.targets(site)
            # No per-target frequency exists at flat tiers (weight splits
            # evenly); the deterministic representative is the best a
            # context-insensitive predictor can honestly do.
            return min(targets) if targets else None
    else:
        kgraph = kgraphs[tier]
        k = kgraph.k

        def predict(site: int, ctx: CallString) -> Optional[str]:
            return kgraph.predicted_majority(site, ctx)

    groups = dispatches = matched = 0
    for (site, ctx), counts in sorted(edges.items()):
        total = sum(counts.values())
        majority = min(counts, key=lambda t: (-counts[t], t))
        groups += 1
        dispatches += total
        if predict(site, truncate(ctx, k)) == majority:
            matched += total
    return TierPrecisionScore(tier=tier, groups_scored=groups,
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


def render_lattice(report: LatticeReport) -> str:
    """Human-readable tiered comparison."""
    lines = [f"precision lattice {report.program_name} "
             f"[{' ⊇ '.join(report.tiers)} ⊇ observed]"]
    header = (["site", "caller", "selector"] + list(report.tiers)
              + ["obs", "ctx-mono"])
    lines.append("  " + "  ".join(header))
    for row in report.rows:
        cells = [str(row.site), row.caller, row.selector]
        cells += [str(row.size(tier)) for tier in report.tiers]
        cells.append(str(row.observed))
        cells.append(",".join(row.context_monomorphic) or "-")
        lines.append("  " + "  ".join(cells))
    for tier in report.tiers:
        if not tier.endswith("cfa"):
            continue
        rescued = report.rescued_sites(tier)
        lines.append(f"  rta-poly->{tier}-ctx-mono: {len(rescued)} site(s)"
                     + (f" {rescued}" if rescued else ""))
    lines.append("  precision scores (majority-target vs dynamic CCT):")
    for s in report.scores:
        lines.append(f"    {s.tier}: {s.score:.3f} "
                     f"({s.matched}/{s.dispatches} dispatches over "
                     f"{s.groups_scored} context groups)")
    if report.violations:
        lines.append(f"  CONTAINMENT VIOLATIONS: {len(report.violations)}")
        lines.extend(f"    {v.describe()}" for v in report.violations)
    else:
        lines.append("  static containment: ok at every site")
    return "\n".join(lines)
