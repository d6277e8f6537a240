"""Tests for dynamic soundness checking and static flip attribution."""

import pytest

from repro.analysis.callgraph import CHA, build_call_graph
from repro.analysis.kcfa import build_kcfa_graph
from repro.analysis.soundness import (ATTR_PROFILE_DECIDED,
                                      ATTR_STATIC_DECIDED, ATTR_UNKNOWN_SITE,
                                      attribute_flips,
                                      check_containment,
                                      check_context_containment,
                                      check_lattice_soundness,
                                      check_soundness,
                                      flatten_context_edges,
                                      observe_context_edges,
                                      render_attribution,
                                      truncate_context_edges)
from repro.provenance.diff import FLIP_VERDICT, DecisionDiff, Flip
from repro.provenance.records import DecisionRecord


class TestObserver:
    def test_records_dispatch_edges(self, diamond):
        # At k=0 every call string is empty: the flat edges.
        program, sites = diamond
        edges = observe_context_edges(program, k=0)
        assert all(ctx == () for _site, ctx in edges)
        observed = flatten_context_edges(edges)
        assert observed[sites["ping_a"]] == frozenset({"A.ping"})
        assert observed[sites["ping_b"]] == frozenset({"B.ping"})
        # Static calls never fire the dispatch event.
        assert sites["loop"] not in observed


class TestContainment:
    def test_diamond_is_sound(self, diamond):
        program, _sites = diamond
        report = check_soundness(program)
        assert report.ok
        assert report.precision == CHA
        assert report.sites_observed >= 2
        assert "contained" in report.render()

    def test_foreign_edge_is_a_violation(self, diamond):
        program, sites = diamond
        graph = build_call_graph(program, precision=CHA)
        doctored = {sites["ping_a"]: frozenset({"Ghost.ping"})}
        report = check_containment(graph, doctored)
        assert not report.ok
        (violation,) = report.violations
        assert violation.observed == "Ghost.ping"
        assert "A.ping" in violation.allowed
        assert "VIOLATION" in report.render()
        assert "Ghost.ping" in violation.describe()

    def test_unknown_site_reported_with_empty_allowed(self, diamond):
        program, _sites = diamond
        graph = build_call_graph(program, precision=CHA)
        report = check_containment(graph, {999: frozenset({"A.ping"})})
        assert not report.ok
        assert report.violations[0].caller == "<unknown>"
        assert report.violations[0].allowed == ()

    @pytest.mark.parametrize("name", ["compress", "db", "mtrt"])
    def test_benchmarks_are_sound(self, name):
        from repro.workloads.spec import build_benchmark
        program = build_benchmark(name, scale=0.05).program
        report = check_soundness(program)
        assert report.ok, report.render()


class TestContextObserver:
    def test_edges_qualified_by_dynamic_call_string(self, ctxprog):
        program, sites = ctxprog
        edges = observe_context_edges(program, k=2)
        key_a = (sites["disp"], (sites["c1"], sites["call1"]))
        key_b = (sites["disp"], (sites["c2"], sites["call2"]))
        assert edges[key_a] == {"A.ping": 10}
        assert edges[key_b] == {"B.ping": 10}

    def test_truncate_merges_counts(self, ctxprog):
        program, sites = ctxprog
        edges = observe_context_edges(program, k=2)
        flat = truncate_context_edges(edges, 0)
        assert flat[(sites["disp"], ())] == {"A.ping": 10, "B.ping": 10}

    def test_flatten_drops_contexts(self, ctxprog):
        program, sites = ctxprog
        edges = observe_context_edges(program, k=2)
        assert flatten_context_edges(edges)[sites["disp"]] == \
            frozenset({"A.ping", "B.ping"})


class TestLatticeSoundness:
    def test_chain_contained_at_every_tier(self, ctxprog):
        program, _sites = ctxprog
        report = check_lattice_soundness(program)
        assert report.ok
        assert [s.precision for s in report.sections] == \
            ["cha", "rta", "0cfa", "1cfa", "2cfa"]
        assert report.violation_codes() == ()
        assert "contained at every tier" in report.render()

    def test_context_violation_names_tier_and_context(self, ctxprog):
        program, sites = ctxprog
        kgraph = build_kcfa_graph(program, k=1)
        # Doctored CCT: under the c1 chain only A.ping is allowed.
        doctored = {(sites["disp"], (sites["c1"],)): {"B.ping": 3}}
        report = check_context_containment(kgraph, doctored)
        assert not report.ok
        (violation,) = report.violations
        assert violation.code == "unsound-1cfa"
        assert violation.context == (sites["c1"],)
        assert violation.observed == "B.ping"
        assert "ctx=" in violation.describe()

    def test_reused_edges_match_fresh_replay(self, ctxprog):
        program, _sites = ctxprog
        edges = observe_context_edges(program, k=2)
        fresh = check_lattice_soundness(program)
        reused = check_lattice_soundness(program, edges=edges)
        assert reused.ok == fresh.ok
        assert [s.edges_observed for s in reused.sections] == \
            [s.edges_observed for s in fresh.sections]

    @pytest.mark.parametrize("name", ["jess", "db"])
    def test_benchmarks_lattice_sound(self, name):
        from repro.workloads.spec import build_benchmark
        program = build_benchmark(name, scale=0.05).program
        report = check_lattice_soundness(program)
        assert report.ok, report.render()


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
