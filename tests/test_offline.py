"""Tests for the offline-vs-online comparison experiment."""

import pytest

from repro.aos.organizers import AOSState, rules_fingerprint_of
from repro.experiments.offline import (OfflineComparison,
                                       _FrozenAIOrganizer,
                                       collect_full_profile,
                                       compare_online_offline,
                                       derive_offline_rules,
                                       run_with_pinned_rules)
from repro.jvm.costs import DEFAULT_COSTS
from repro.profiles.dcg import DynamicCallGraph
from repro.profiles.trace import TraceKey

SCALE = 0.1


class TestProfileCollection:
    def test_training_run_collects_undecayed_profile(self):
        dcg, result = collect_full_profile("jess", "fixed", 2, scale=SCALE)
        assert result.total_cycles > 0
        assert dcg.total_weight > 0
        # Decay disabled: total weight equals samples recorded (weight 1
        # each, minus nothing).
        assert dcg.total_weight == pytest.approx(result.traces_recorded)


class TestRuleDerivation:
    def test_threshold_applied_once(self):
        dcg = DynamicCallGraph()
        dcg.add(TraceKey("Hot", (("C", 1),)), 1000.0)
        dcg.add(TraceKey("Cold", (("C", 2),)), 1.0)
        rules = derive_offline_rules(dcg)
        assert [r.callee for r in rules] == ["Hot"]
        assert rules[0].share == pytest.approx(1000.0 / 1001.0)

    def test_empty_profile_no_rules(self):
        assert derive_offline_rules(DynamicCallGraph()) == []


class TestPinnedRun:
    def test_pinned_fingerprint_is_the_aos_fingerprint(self):
        # The AOS's CRC, not the builtin hash() that PYTHONHASHSEED salts.
        dcg = DynamicCallGraph()
        dcg.add(TraceKey("Hot", (("C", 1),)), 1000.0)
        dcg.add(TraceKey("Warm", (("C", 2), ("B", 7))), 500.0)
        rules = derive_offline_rules(dcg)
        state = AOSState()
        _FrozenAIOrganizer(state, rules).run(None)
        assert state.rules_fingerprint == rules_fingerprint_of(rules)

    def test_rules_stay_pinned(self):
        dcg, _ = collect_full_profile("jess", "fixed", 2, scale=SCALE)
        rules = derive_offline_rules(dcg)
        result = run_with_pinned_rules("jess", "fixed", 2, rules,
                                       scale=SCALE)
        assert result.rule_count == len(rules)

    def test_pinned_run_completes_correctly(self):
        dcg, online = collect_full_profile("db", "fixed", 2, scale=SCALE)
        rules = derive_offline_rules(dcg)
        offline = run_with_pinned_rules("db", "fixed", 2, rules,
                                        scale=SCALE)
        assert offline.return_value == online.return_value


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        cmp_, rendered = compare_online_offline("jess", "fixed", 3,
                                                scale=0.3)
        return cmp_, rendered

    def test_offline_compiles_no_more_than_online(self, comparison):
        cmp_, _ = comparison
        # Frozen rules mean no missing-edge churn: compile count can only
        # be lower (or equal) offline.
        assert cmp_.offline.opt_compilations <= cmp_.online.opt_compilations

    def test_penalty_metrics_finite(self, comparison):
        cmp_, _ = comparison
        assert -50.0 < cmp_.online_penalty_percent < 100.0
        assert cmp_.compile_churn_ratio >= 1.0

    def test_rendering(self, comparison):
        _, rendered = comparison
        assert "online" in rendered and "offline" in rendered
        assert "penalty" in rendered
