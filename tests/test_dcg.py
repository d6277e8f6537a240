"""Unit tests for the dynamic call graph (weights, decay, dilution)."""

import pytest

from repro.profiles.dcg import PRUNE_EPSILON, DynamicCallGraph
from repro.profiles.trace import TraceKey


def key(callee, *pairs):
    return TraceKey(callee, tuple(pairs))


@pytest.fixture
def dcg():
    return DynamicCallGraph()


class TestIngestion:
    def test_add_accumulates(self, dcg):
        k = key("D", ("C", 1))
        dcg.add(k)
        dcg.add(k, 2.0)
        assert dcg.weight(k) == 3.0
        assert dcg.total_weight == 3.0
        assert dcg.samples_added == 2

    def test_len_counts_distinct_keys(self, dcg):
        dcg.add(key("D", ("C", 1)))
        dcg.add(key("D", ("C", 1)))
        dcg.add(key("E", ("C", 2)))
        assert len(dcg) == 2

    def test_weight_of_absent_key(self, dcg):
        assert dcg.weight(key("D", ("C", 1))) == 0.0


class TestHotTraces:
    def test_threshold_is_strict(self, dcg):
        # One trace at exactly the cutoff must NOT be hot ("more than").
        dcg.add(key("A", ("C", 1)), 1.0)
        dcg.add(key("B", ("C", 2)), 99.0)
        hot = dcg.hot_traces(0.01)
        assert key("A", ("C", 1)) not in [k for k, _ in hot]

    def test_hot_sorted_by_weight(self, dcg):
        dcg.add(key("A", ("C", 1)), 10.0)
        dcg.add(key("B", ("C", 2)), 30.0)
        hot = dcg.hot_traces(0.1)
        assert [k.callee for k, _ in hot] == ["B", "A"]

    def test_empty_dcg(self, dcg):
        assert dcg.hot_traces(0.015) == []

    def test_profile_dilution(self, dcg):
        """The paper's Section 4 effect: splitting an edge's weight across
        contexts pushes every share below the threshold."""
        # Context-insensitive: one edge with 6% share -> hot.
        insensitive = DynamicCallGraph()
        insensitive.add(key("D", ("C", 1)), 6.0)
        insensitive.add(key("X", ("Y", 9)), 94.0)
        assert len(insensitive.hot_traces(0.015)) >= 1

        # Context-sensitive: same weight split over 5 grand-callers.
        for i in range(5):
            dcg.add(key("D", ("C", 1), (f"G{i}", i)), 1.2)
        dcg.add(key("X", ("Y", 9)), 94.0)
        hot = [k for k, _ in dcg.hot_traces(0.015)]
        assert all(k.callee != "D" for k in hot)


class TestProjections:
    def test_site_target_distribution(self, dcg):
        dcg.add(key("D1", ("C", 1)), 3.0)
        dcg.add(key("D2", ("C", 1), ("A", 2)), 5.0)
        dcg.add(key("D1", ("C", 9)), 7.0)  # different site
        dist = dcg.site_target_distribution("C", 1)
        assert dist == {"D1": 3.0, "D2": 5.0}

    def test_unskewed_sites_flagged(self, dcg):
        dcg.add(key("D1", ("C", 1)), 5.0)
        dcg.add(key("D2", ("C", 1)), 5.0)
        assert ("C", 1) in dcg.polymorphic_unskewed_sites()

    def test_skewed_site_not_flagged(self, dcg):
        dcg.add(key("D1", ("C", 1)), 9.0)
        dcg.add(key("D2", ("C", 1)), 1.0)
        assert ("C", 1) not in dcg.polymorphic_unskewed_sites()

    def test_monomorphic_site_not_flagged(self, dcg):
        dcg.add(key("D1", ("C", 1)), 10.0)
        assert dcg.polymorphic_unskewed_sites() == []


class TestDecay:
    def test_decay_scales_weights(self, dcg):
        k = key("D", ("C", 1))
        dcg.add(k, 10.0)
        dcg.decay(0.5)
        assert dcg.weight(k) == 5.0
        assert dcg.total_weight == pytest.approx(5.0)

    def test_decay_prunes_tiny_entries(self, dcg):
        dcg.add(key("D", ("C", 1)), PRUNE_EPSILON)
        dcg.decay(0.5)
        assert len(dcg) == 0
        assert dcg.total_weight == pytest.approx(0.0, abs=1e-9)

    def test_decay_returns_processed_count(self, dcg):
        dcg.add(key("D", ("C", 1)), 10.0)
        dcg.add(key("E", ("C", 2)), 10.0)
        assert dcg.decay(0.9) == 2

    def test_invalid_rate_rejected(self, dcg):
        with pytest.raises(ValueError):
            dcg.decay(0.0)
        with pytest.raises(ValueError):
            dcg.decay(1.5)

    def test_rate_one_is_identity_for_big_entries(self, dcg):
        dcg.add(key("D", ("C", 1)), 10.0)
        dcg.decay(1.0)
        assert dcg.weight(key("D", ("C", 1))) == 10.0
