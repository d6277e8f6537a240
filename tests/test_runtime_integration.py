"""Integration tests: the full adaptive runtime on real workloads.

These verify the paper's end-to-end mechanisms: sampling drives
recompilation, the HashMap example's context-sensitive inlining chooses
the right targets, and the accounting invariants hold across a whole run.
"""

import pytest

from repro.aos.cost_accounting import ALL_COMPONENTS, APP
from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.costs import CostModel
from repro.policies import make_policy
from repro.workloads.hashmap_example import build as build_hashmap


@pytest.fixture(scope="module")
def cins_run():
    built = build_hashmap(iterations=4000)
    runtime = AdaptiveRuntime(built.program, make_policy("cins", 1))
    result = runtime.run()
    return built, runtime, result


@pytest.fixture(scope="module")
def fixed2_run():
    built = build_hashmap(iterations=4000)
    runtime = AdaptiveRuntime(built.program, make_policy("fixed", 2))
    result = runtime.run()
    return built, runtime, result


class TestAdaptationHappens:
    def test_samples_taken(self, cins_run):
        _b, _rt, result = cins_run
        assert result.samples_taken > 100

    def test_hot_methods_recompiled(self, cins_run):
        _b, runtime, result = cins_run
        assert result.opt_compilations > 0
        hot_ids = {cm.method.id for cm in runtime.code_cache.opt_methods()}
        # The hot loop bodies must be optimized.
        assert "HashMap.get" in hot_ids or "HashMapTest.runTest" in hot_ids

    def test_rules_derived(self, cins_run):
        _b, _rt, result = cins_run
        assert result.rule_count > 0

    def test_component_accounting_sums_to_total(self, cins_run):
        _b, _rt, result = cins_run
        total = sum(result.component_cycles[c] for c in ALL_COMPONENTS)
        assert total == pytest.approx(result.total_cycles)

    def test_app_dominates(self, cins_run):
        _b, _rt, result = cins_run
        assert result.component_cycles[APP] / result.total_cycles > 0.8

    def test_aos_fraction_small(self, cins_run):
        # Figure 6: the AOS (listeners+organizers+controller+compilation)
        # stays a small fraction of execution.
        _b, _rt, result = cins_run
        assert result.aos_fraction() < 0.15


class TestHashMapContextSensitivity:
    def test_cins_profile_shows_5050_split(self, cins_run):
        built, runtime, _result = cins_run
        dist = runtime.state.dcg.site_target_distribution(
            "HashMap.get", built.sites.hash_site)
        assert set(dist) == {"MyKey.hashCode", "Object.hashCode"}
        total = sum(dist.values())
        for weight in dist.values():
            assert 0.3 < weight / total < 0.7  # roughly 50/50

    def test_trace_profile_separates_contexts(self, fixed2_run):
        built, runtime, _result = fixed2_run
        per_context = {}
        for key, weight in runtime.state.dcg.items():
            if key.depth < 2:
                continue
            if key.context[0] != ("HashMap.get", built.sites.hash_site):
                continue
            per_context.setdefault(key.context[1], {}).setdefault(
                key.callee, 0.0)
            per_context[key.context[1]][key.callee] += weight
        # Figure 2c: each runTest call site sees exactly one target.
        assert len(per_context) == 2
        for bucket in per_context.values():
            assert len(bucket) == 1

    def test_context_sensitive_code_not_larger(self, cins_run, fixed2_run):
        _b1, _rt1, cins = cins_run
        _b2, _rt2, fixed2 = fixed2_run
        assert fixed2.live_opt_code_bytes <= cins.live_opt_code_bytes * 1.05

    def test_context_sensitive_fewer_guard_tests(self, cins_run, fixed2_run):
        _b1, _rt1, cins = cins_run
        _b2, _rt2, fixed2 = fixed2_run
        assert fixed2.guard_tests < cins.guard_tests

    def test_right_targets_inlined_per_context(self, fixed2_run):
        built, runtime, _result = fixed2_run
        compiled = runtime.code_cache.installed.get("HashMapTest.runTest")
        if compiled is None:
            pytest.skip("runTest not independently optimized in this run")
        # Inside runTest's inlined copies of get, the hashCode site must
        # inline exactly the context-correct target.
        for node in compiled.root.walk():
            decision = node.decisions.get(built.sites.hash_site)
            if decision is None:
                continue
            assert len(decision.options) == 1

    def test_mean_trace_depth_matches_policy(self, cins_run, fixed2_run):
        _b1, _rt1, cins = cins_run
        _b2, _rt2, fixed2 = fixed2_run
        assert cins.mean_trace_depth == pytest.approx(1.0)
        assert fixed2.mean_trace_depth > 1.2


class TestRuntimeConfigValidation:
    def test_bad_sample_phase_rejected(self):
        built = build_hashmap(iterations=10)
        with pytest.raises(ValueError):
            AdaptiveRuntime(built.program, make_policy("cins", 1),
                            sample_phase=1.5)

    def test_custom_cost_model(self):
        built = build_hashmap(iterations=200)
        costs = CostModel().replace(sample_interval=1_000)
        runtime = AdaptiveRuntime(built.program, make_policy("cins", 1),
                                  costs=costs)
        result = runtime.run()
        assert result.samples_taken > 0

    def test_return_value_propagates(self):
        built = build_hashmap(iterations=10)
        runtime = AdaptiveRuntime(built.program, make_policy("cins", 1))
        result = runtime.run()
        assert result.return_value == 0
