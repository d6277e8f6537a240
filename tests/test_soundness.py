"""Tests for dynamic soundness checking and static flip attribution."""

import pytest

from repro.analysis.callgraph import CHA, build_call_graph
from repro.analysis.kcfa import build_kcfa_graph
from repro.analysis.lattice import PrecisionChain
from repro.analysis.soundness import (ATTR_PROFILE_DECIDED,
                                      ATTR_STATIC_DECIDED, ATTR_UNKNOWN_SITE,
                                      DispatchEdges, attribute_flips,
                                      check_tiers, render_attribution,
                                      replay, truncate_context_edges)
from repro.provenance.diff import FLIP_VERDICT, DecisionDiff, Flip
from repro.provenance.records import DecisionRecord


def observe(program, k):
    """One fixed-seed replay's dispatch edges at call-string depth ``k``."""
    recorder = DispatchEdges(k)
    replay(program, sinks=[recorder])
    return recorder.edges


class TestObserver:
    def test_records_dispatch_edges(self, diamond):
        # At k=0 every call string is empty: the flat edges.
        program, sites = diamond
        edges = observe(program, 0)
        assert all(ctx == () for _site, ctx in edges)
        assert set(edges[(sites["ping_a"], ())]) == {"A.ping"}
        assert set(edges[(sites["ping_b"], ())]) == {"B.ping"}
        # Static calls never fire the dispatch event.
        assert sites["loop"] not in {site for site, _ctx in edges}


class TestContainment:
    def test_diamond_is_sound(self, diamond):
        program, _sites = diamond
        (report,) = check_tiers([build_call_graph(program)],
                                observe(program, 0))
        assert report.ok
        assert report.precision == CHA
        assert report.sites_observed >= 2

    def test_foreign_edge_is_a_violation(self, diamond):
        program, sites = diamond
        graph = build_call_graph(program, precision=CHA)
        doctored = {(sites["ping_a"], ()): {"Ghost.ping": 1}}
        (report,) = check_tiers([graph], doctored)
        assert not report.ok
        (violation,) = report.violations
        assert violation.observed == "Ghost.ping"
        assert "A.ping" in violation.allowed
        assert violation.context is None

    def test_unknown_site_reported_with_empty_allowed(self, diamond):
        program, _sites = diamond
        graph = build_call_graph(program, precision=CHA)
        (report,) = check_tiers([graph], {(999, ()): {"A.ping": 1}})
        assert not report.ok
        assert report.violations[0].caller == "<unknown>"
        assert report.violations[0].allowed == ()

    @pytest.mark.parametrize("name", ["compress", "db", "mtrt"])
    def test_benchmarks_are_sound(self, name):
        from repro.workloads.spec import build_benchmark
        program = build_benchmark(name, scale=0.05).program
        (report,) = check_tiers([build_call_graph(program)],
                                observe(program, 0))
        assert report.ok, report.violations


class TestContextObserver:
    def test_edges_qualified_by_dynamic_call_string(self, ctxprog):
        program, sites = ctxprog
        edges = observe(program, 2)
        key_a = (sites["disp"], (sites["c1"], sites["call1"]))
        key_b = (sites["disp"], (sites["c2"], sites["call2"]))
        assert edges[key_a] == {"A.ping": 10}
        assert edges[key_b] == {"B.ping": 10}

    def test_truncate_merges_counts(self, ctxprog):
        program, sites = ctxprog
        edges = observe(program, 2)
        flat = truncate_context_edges(edges, 0)
        assert flat[(sites["disp"], ())] == {"A.ping": 10, "B.ping": 10}


class TestLatticeSoundness:
    def test_chain_contained_at_every_tier(self, ctxprog):
        program, _sites = ctxprog
        reports = check_tiers(PrecisionChain(program).tiers(),
                              observe(program, 2))
        assert all(report.ok for report in reports)
        assert [report.precision for report in reports] == \
            ["cha", "rta", "0cfa", "1cfa", "2cfa"]
        # Every tier counts the site's two executed edges: under one
        # empty call string at the flat tiers and 0-CFA, one per call
        # string at 1-CFA and 2-CFA.
        assert [report.edges_observed for report in reports] == \
            [2, 2, 2, 2, 2]

    def test_context_violation_names_tier_and_context(self, ctxprog):
        program, sites = ctxprog
        # Doctored dispatch counts: B.ping under the c1 chain is in the
        # flat sets, but 1-CFA allows only A.ping there; Ghost.ping is in
        # no set at all.
        doctored = {
            (sites["disp"], (sites["c1"], sites["call1"])): {"B.ping": 3},
            (sites["disp"], (sites["c2"], sites["call2"])): {
                "Ghost.ping": 1},
        }
        flat, kcfa = check_tiers([build_call_graph(program),
                                  build_kcfa_graph(program, k=1)], doctored)
        (ghost,) = flat.violations
        assert ghost.code == "unsound-cha"
        assert ghost.observed == "Ghost.ping"
        assert ghost.context is None
        assert [(v.code, v.observed, v.context) for v in kcfa.violations] \
            == [("unsound-1cfa", "B.ping", (sites["c1"],)),
                ("unsound-1cfa", "Ghost.ping", (sites["c2"],))]

    @pytest.mark.parametrize("name", ["jess", "db"])
    def test_benchmarks_lattice_sound(self, name):
        from repro.workloads.spec import build_benchmark
        program = build_benchmark(name, scale=0.05).program
        reports = check_tiers(PrecisionChain(program).tiers(),
                              observe(program, 2))
        assert all(report.ok for report in reports), \
            [v for report in reports for v in report.violations]


def _record(caller, site, context, verdict="direct", reason="tiny"):
    return DecisionRecord(
        clock=0.0, root=caller, version=1, caller=caller, site=site,
        depth=0, site_kind="virtual", selector="ping", verdict=verdict,
        reason=reason, context=context)


def _flip(caller, site):
    context = ((caller, site),)
    return Flip(key=(caller, site, context), kind=FLIP_VERDICT,
                a=_record(caller, site, context),
                b=_record(caller, site, context, verdict="refused",
                          reason="static-poly"))


class TestAttribution:
    def test_flips_bucketed_by_static_knowledge(self, diamond):
        program, sites = diamond
        graph = build_call_graph(program, precision=CHA)
        diff = DecisionDiff(flips=[
            _flip("Main.run", sites["ping_a"]),   # CHA-polymorphic
            _flip("Main.main", sites["loop"]),    # static call, bound
            _flip("Main.run", 424242),            # not in the graph
        ])
        buckets = attribute_flips(diff, graph)
        assert [f.key[1] for f in buckets[ATTR_PROFILE_DECIDED]] == \
            [sites["ping_a"]]
        assert [f.key[1] for f in buckets[ATTR_STATIC_DECIDED]] == \
            [sites["loop"]]
        assert [f.key[1] for f in buckets[ATTR_UNKNOWN_SITE]] == [424242]

    def test_render_attribution_mentions_each_bucket(self, diamond):
        program, sites = diamond
        graph = build_call_graph(program, precision=CHA)
        diff = DecisionDiff(flips=[_flip("Main.run", sites["ping_a"])])
        text = render_attribution(attribute_flips(diff, graph), graph)
        assert "1 flip(s)" in text
        assert "static-vs-profile disagreement" in text

    def test_render_attribution_respects_limit(self, diamond):
        program, sites = diamond
        graph = build_call_graph(program, precision=CHA)
        flips = [_flip("Main.run", sites["ping_a"]) for _ in range(5)]
        text = render_attribution(
            attribute_flips(DecisionDiff(flips=flips), graph), graph,
            limit=2)
        assert "... and 3 more" in text
