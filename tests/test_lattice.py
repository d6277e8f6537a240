"""Tests for the precision chain (each tier built once, on first use)
and the precision-lattice report over it (per-site tier comparison,
containment checking, and precision scoring vs a replay's per-context
dispatch counts)."""

import json
import sys

import pytest

import repro.analysis.callgraph as callgraph_mod
import repro.analysis.kcfa as kcfa_mod
from conftest import build_context_program
from repro.analysis.lattice import (LATTICE_KS, ContainmentViolation,
                                    LatticeReport, PrecisionChain,
                                    build_lattice_report, lattice_to_json)
from repro.analysis.report import ANALYZE_PRECISIONS, analyze_program
from repro.analysis.soundness import DispatchEdges, replay


def lattice_report(program):
    """The lattice report of ``program`` against one fixed-seed replay."""
    recorder = DispatchEdges(k=max(LATTICE_KS))
    replay(program, sinks=[recorder])
    return build_lattice_report(PrecisionChain(program), recorder.edges)


@pytest.fixture(scope="module")
def ctx_report():
    program, sites = build_context_program()
    return lattice_report(program), sites


class TestReportShape:
    def test_tier_order_coarse_to_fine(self, ctx_report):
        report, _sites = ctx_report
        assert report.tiers == ("cha", "rta", "0cfa", "1cfa", "2cfa")
        assert report.ok

    def test_sizes_never_grow_along_the_chain(self, ctx_report):
        report, _sites = ctx_report
        for row in report.rows:
            sizes = [size for _tier, size in row.sizes]
            assert sizes == sorted(sizes, reverse=True)
            assert row.observed <= sizes[-1]

    def test_context_counts_recorded_per_cfa_tier(self, ctx_report):
        report, sites = ctx_report
        (row,) = [r for r in report.rows if r.site == sites["disp"]]
        contexts = dict(row.contexts)
        assert contexts["0cfa"] == 1
        assert contexts["1cfa"] == 2


class TestContextRescue:
    def test_dispatch_rescued_by_one_cfa(self, ctx_report):
        report, sites = ctx_report
        assert report.rescued_sites("1cfa") == [sites["disp"]]
        assert report.rescued_sites("0cfa") == []
        (row,) = [r for r in report.rows if r.site == sites["disp"]]
        assert row.rescued_by("1cfa")
        assert row.size("rta") == 2

    def test_jess_has_rta_poly_one_cfa_mono_sites(self):
        # The acceptance criterion the CI lattice-check greps for: at
        # least one site RTA calls polymorphic that 1-CFA proves
        # context-monomorphic, on a real benchmark.
        from repro.workloads.spec import build_benchmark
        program = build_benchmark("jess", scale=0.05).program
        report = lattice_report(program)
        assert report.ok, report.violations
        assert report.rescued_sites("1cfa")


class TestPrecisionScores:
    def test_context_tiers_beat_flat_tiers(self, ctx_report):
        report, _sites = ctx_report
        scores = {s.tier: s for s in report.scores}
        # Flat tiers must answer one target for a site whose dynamic
        # majority depends on the caller: they lose half the dispatches.
        assert scores["rta"].score == pytest.approx(0.5)
        assert scores["0cfa"].score == pytest.approx(0.5)
        assert scores["1cfa"].score == pytest.approx(1.0)
        assert scores["2cfa"].score == pytest.approx(1.0)

    def test_every_tier_scored_over_the_same_groups(self, ctx_report):
        report, _sites = ctx_report
        groups = {s.groups_scored for s in report.scores}
        dispatches = {s.dispatches for s in report.scores}
        assert len(groups) == 1 and len(dispatches) == 1


class TestSerialization:
    def test_json_payload_is_serializable_and_complete(self, ctx_report):
        report, sites = ctx_report
        payload = lattice_to_json(report)
        json.dumps(payload)  # must not raise
        assert payload["ok"]
        assert payload["tiers"] == list(report.tiers)
        assert payload["rescued_sites"]["1cfa"] == [sites["disp"]]
        assert payload["precision_scores"]["2cfa"]["score"] == 1.0
        (row,) = [r for r in payload["sites"]
                  if r["site"] == sites["disp"]]
        assert row["sizes"]["rta"] == 2
        assert row["sizes"]["1cfa"] == 2       # union over contexts
        assert row["context_monomorphic"] == ["1cfa", "2cfa"]


class TestViolations:
    def test_violation_breaks_ok_and_renders(self, ctx_report):
        report, _sites = ctx_report
        violation = ContainmentViolation(site=7, coarse="rta", fine="1cfa",
                                         extra=("Ghost.ping",))
        broken = LatticeReport(program_name=report.program_name,
                               tiers=report.tiers, rows=report.rows,
                               violations=(violation,),
                               scores=report.scores)
        assert not broken.ok
        assert not lattice_to_json(broken)["ok"]


class TestKs:
    def test_default_ks_cover_supported_depths(self):
        assert LATTICE_KS == (0, 1, 2)


@pytest.fixture
def graph_builds(monkeypatch):
    """Precisions of every call-graph build in the ``repro.analysis``
    modules, in build order."""
    built = []
    for owner, name in ((callgraph_mod, "build_call_graph"),
                        (kcfa_mod, "build_kcfa_graph")):
        original = getattr(owner, name)

        def counted(*args, _original=original, **kwargs):
            graph = _original(*args, **kwargs)
            built.append(graph.precision)
            return graph

        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("repro.analysis")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    return built


class TestOneBuildPerTier:
    def test_chain_builds_each_tier_on_first_use(self, ctxprog,
                                                 graph_builds):
        program, _sites = ctxprog
        chain = PrecisionChain(program)
        assert chain.kcfa(1) is chain.kcfa(1)
        assert graph_builds == ["1cfa"]
        assert [graph.precision for graph in chain.tiers()] == \
            ["cha", "rta", "0cfa", "1cfa", "2cfa"]
        chain.tiers()
        assert graph_builds == ["1cfa", "cha", "rta", "0cfa", "2cfa"]

    def test_a_tier_not_kept_is_built_on_each_read(self, ctxprog,
                                                   graph_builds):
        program, _sites = ctxprog
        chain = PrecisionChain(program, keep=("cha",))
        assert chain.flat("cha") is chain.flat("cha")
        assert chain.flat("rta") is not chain.flat("rta")
        assert graph_builds == ["cha", "rta", "rta"]

    def test_every_section_shares_one_chain(self, ctxprog, graph_builds):
        program, _sites = ctxprog
        analyze_program(program, lattice=True, soundness=True,
                        precisions=ANALYZE_PRECISIONS)
        assert sorted(graph_builds) == ["0cfa", "1cfa", "2cfa", "cha", "rta"]

    def test_summaries_alone_build_no_one_cfa(self, ctxprog, graph_builds):
        # The shape the host-time benchmark's analyze workload runs.
        program, _sites = ctxprog
        analyze_program(program, soundness=False,
                        precisions=ANALYZE_PRECISIONS)
        assert graph_builds == ["cha", "rta", "0cfa", "2cfa"]
