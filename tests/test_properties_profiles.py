"""Property-based tests (hypothesis) for the profile data structures.

These pin down the algebraic invariants the rest of the system leans on:
Equation-3 matching behaves like prefix compatibility, and the DCG
conserves weight under ingestion and scales it under decay.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiles.dcg import PRUNE_EPSILON, DynamicCallGraph
from repro.profiles.partial_match import (candidate_targets,
                                          contexts_compatible)
from repro.profiles.trace import InlineRule, TraceKey

# -- strategies ---------------------------------------------------------------

method_names = st.sampled_from(["A.m", "B.m", "C.m", "D.m", "E.m"])
sites = st.integers(min_value=0, max_value=5)
context_elements = st.tuples(method_names, sites)
contexts = st.lists(context_elements, min_size=1, max_size=5).map(tuple)
trace_keys = st.builds(TraceKey, method_names, contexts)
weights = st.floats(min_value=0.1, max_value=100.0,
                    allow_nan=False, allow_infinity=False)


# -- Equation 3 ------------------------------------------------------------------

class TestEq3Properties:
    @given(contexts)
    def test_reflexive(self, ctx):
        assert contexts_compatible(ctx, ctx)

    @given(contexts, contexts)
    def test_symmetric(self, a, b):
        # min(k, j) is symmetric, so Eq. 3 is too.
        assert contexts_compatible(a, b) == contexts_compatible(b, a)

    @given(contexts, st.integers(min_value=1, max_value=5))
    def test_prefix_always_compatible(self, ctx, cut):
        assert contexts_compatible(ctx[:cut], ctx)

    @given(contexts, contexts, contexts)
    def test_compatibility_with_common_extension(self, a, b, c):
        # If a and b are both prefixes of c they are compatible with c.
        assert contexts_compatible(a, tuple(a) + tuple(c))
        assert contexts_compatible(b, tuple(b) + tuple(c))

    @given(st.lists(st.builds(InlineRule, trace_keys, weights,
                              st.floats(0.0, 1.0)), max_size=12),
           contexts)
    def test_candidates_subset_of_rule_callees(self, rules, ctx):
        candidates = candidate_targets(rules, ctx)
        assert set(candidates) <= {r.callee for r in rules}

    @given(st.lists(st.builds(InlineRule, trace_keys, weights,
                              st.floats(0.0, 1.0)), max_size=12),
           contexts)
    def test_candidate_weights_positive(self, rules, ctx):
        for weight in candidate_targets(rules, ctx).values():
            assert weight > 0.0


# -- DCG ----------------------------------------------------------------------------

class TestDCGProperties:
    @given(st.lists(st.tuples(trace_keys, weights), max_size=30))
    def test_total_weight_is_sum(self, samples):
        dcg = DynamicCallGraph()
        for key, weight in samples:
            dcg.add(key, weight)
        assert math.isclose(dcg.total_weight,
                            sum(w for _k, w in samples), abs_tol=1e-6)

    @given(st.lists(st.tuples(trace_keys, weights), max_size=30))
    def test_entry_weight_aggregates_duplicates(self, samples):
        dcg = DynamicCallGraph()
        expected = {}
        for key, weight in samples:
            dcg.add(key, weight)
            expected[key] = expected.get(key, 0.0) + weight
        for key, weight in expected.items():
            assert math.isclose(dcg.weight(key), weight, abs_tol=1e-6)

    @given(st.lists(st.tuples(trace_keys, weights), min_size=1, max_size=30),
           st.floats(min_value=0.3, max_value=1.0))
    def test_decay_preserves_shares_when_nothing_pruned(self, samples, rate):
        dcg = DynamicCallGraph()
        for key, weight in samples:
            dcg.add(key, weight)
        if any(w * rate < PRUNE_EPSILON for _k, w in dcg.items()):
            return  # pruning intentionally shifts survivor shares upward
        before = {k: w / dcg.total_weight for k, w in dcg.items()}
        dcg.decay(rate)
        for key, share in before.items():
            after_share = dcg.weight(key) / dcg.total_weight
            assert math.isclose(after_share, share,
                                rel_tol=1e-6, abs_tol=1e-9)

    @given(st.lists(st.tuples(trace_keys, weights), min_size=1, max_size=30),
           st.floats(min_value=0.3, max_value=1.0))
    def test_decay_never_shrinks_survivor_shares(self, samples, rate):
        # Pruning removes only the coldest entries, so any surviving
        # trace's share can only grow (hot-trace detection stays sound).
        dcg = DynamicCallGraph()
        for key, weight in samples:
            dcg.add(key, weight)
        before = {k: w / dcg.total_weight for k, w in dcg.items()}
        dcg.decay(rate)
        if dcg.total_weight <= 0:
            return
        for key, _w in dcg.items():
            after_share = dcg.weight(key) / dcg.total_weight
            assert after_share >= before[key] - 1e-9

    @given(st.lists(st.tuples(trace_keys, weights), max_size=30))
    def test_hot_traces_all_above_cutoff(self, samples):
        dcg = DynamicCallGraph()
        for key, weight in samples:
            dcg.add(key, weight)
        hot = dcg.hot_traces(0.10)
        cutoff = 0.10 * dcg.total_weight
        assert all(weight > cutoff for _key, weight in hot)
