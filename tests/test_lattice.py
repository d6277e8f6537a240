"""Tests for the precision-lattice report (per-site tier comparison,
containment checking, and precision scoring vs a replay's per-context
dispatch counts)."""

import json

import pytest

from conftest import build_context_program
from repro.analysis.lattice import (LATTICE_KS, ContainmentViolation,
                                    LatticeReport, build_lattice_report,
                                    lattice_to_json)


@pytest.fixture(scope="module")
def ctx_report():
    program, sites = build_context_program()
    return build_lattice_report(program), sites


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
        report = build_lattice_report(program)
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
