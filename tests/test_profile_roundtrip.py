"""Round-trip tests for the profiles' flat projections.

``CallingContextTree.to_trace_weights`` and
``DynamicCallGraph.edge_weights`` flatten a profile into
``{TraceKey: weight}`` maps, and a profile rebuilt from such a map must
be the profile that produced it.  These tests pin the round-trip
invariants: a CCT rebuilt from its own trace weights is the same tree
(weights, node count, hot contexts), and the DCG's depth-1 projection
stays exact under heavy float accumulation.
"""

import random

import pytest

from repro.profiles.cct import CallingContextTree
from repro.profiles.dcg import DynamicCallGraph
from repro.profiles.trace import TraceKey, make_context


def sample_keys():
    """A mixed-depth trace population with shared prefixes."""
    return [
        TraceKey("A.m", make_context([("B.n", 0)])),
        TraceKey("A.m", make_context([("B.n", 0), ("C.p", 1)])),
        TraceKey("A.m", make_context([("B.n", 2), ("C.p", 1)])),
        TraceKey("D.q", make_context([("B.n", 0)])),
        TraceKey("D.q", make_context([("A.m", 3), ("B.n", 0), ("C.p", 1)])),
    ]


def rebuild(cct: CallingContextTree) -> CallingContextTree:
    """One round trip: project to weights, rebuild the tree."""
    rebuilt = CallingContextTree()
    weights = cct.to_trace_weights()
    for key in sorted(weights, key=lambda k: (k.callee, k.context)):
        rebuilt.add_trace(key, weights[key])
    return rebuilt


class TestCCTRoundTrip:
    def build(self, weights=None):
        cct = CallingContextTree()
        for index, key in enumerate(sample_keys()):
            cct.add_trace(key, weights[index] if weights else index + 1.0)
        return cct

    def test_weights_preserved(self):
        cct = self.build()
        rebuilt = rebuild(cct)
        original = cct.to_trace_weights()
        recovered = rebuilt.to_trace_weights()
        assert set(recovered) == set(original)
        for key in original:
            assert recovered[key] == pytest.approx(original[key])
        assert rebuilt.total_weight() == pytest.approx(cct.total_weight())

    def test_node_count_preserved(self):
        # Shared context prefixes must collapse into shared interior
        # nodes on rebuild, not duplicate.
        cct = self.build()
        assert rebuild(cct).node_count() == cct.node_count()

    def test_hot_contexts_preserved(self):
        cct = self.build()
        rebuilt = rebuild(cct)
        for threshold in (0.05, 0.2, 0.5):
            hot = {(node.method, tuple(node.path()), w)
                   for node, w in cct.hot_contexts(threshold)}
            hot_rebuilt = {(node.method, tuple(node.path()), w)
                           for node, w in rebuilt.hot_contexts(threshold)}
            assert hot_rebuilt == hot

    def test_double_round_trip_is_fixed_point(self):
        cct = self.build()
        once = rebuild(cct)
        twice = rebuild(once)
        assert twice.to_trace_weights() == once.to_trace_weights()

    def test_round_trip_under_float_accumulation(self):
        # Many tiny unrepresentable increments -- the projection must
        # still agree with the tree it came from.
        rng = random.Random(7)
        keys = sample_keys()
        cct = CallingContextTree()
        for _ in range(5000):
            cct.add_trace(rng.choice(keys), rng.random() * 0.1)
        rebuilt = rebuild(cct)
        original = cct.to_trace_weights()
        recovered = rebuilt.to_trace_weights()
        for key in original:
            assert recovered[key] == pytest.approx(original[key],
                                                   rel=1e-12)


class TestDCGEdgeWeights:
    def test_edges_fold_contexts_onto_innermost_caller(self):
        dcg = DynamicCallGraph()
        dcg.add(TraceKey("A.m", make_context([("B.n", 0), ("C.p", 1)])), 2.0)
        dcg.add(TraceKey("A.m", make_context([("B.n", 0), ("D.q", 2)])), 3.0)
        dcg.add(TraceKey("A.m", make_context([("E.r", 4)])), 1.0)
        edges = dcg.edge_weights()
        assert edges[TraceKey("A.m", make_context([("B.n", 0)]))] == \
            pytest.approx(5.0)
        assert edges[TraceKey("A.m", make_context([("E.r", 4)]))] == \
            pytest.approx(1.0)

    def test_projection_total_under_float_accumulation(self):
        # The depth-1 projection must conserve total weight even when
        # built from thousands of non-representable float increments.
        rng = random.Random(11)
        keys = [key for key in sample_keys() if key.context]
        dcg = DynamicCallGraph()
        expected_total = 0.0
        for _ in range(5000):
            weight = rng.random() * 0.3 + 1e-7
            dcg.add(rng.choice(keys), weight)
            expected_total += weight
        edges = dcg.edge_weights()
        assert sum(edges.values()) == pytest.approx(expected_total,
                                                    rel=1e-9)
        assert sum(edges.values()) == pytest.approx(dcg.total_weight,
                                                    rel=1e-9)

    def test_projection_is_insertion_order_stable(self):
        keys = [key for key in sample_keys() if key.context]
        weights = [0.1, 0.2, 0.3, 1.7, 0.05]
        projections = []
        for seed in range(4):
            pairs = list(zip(keys, weights))
            random.Random(seed).shuffle(pairs)
            dcg = DynamicCallGraph()
            for key, weight in pairs:
                dcg.add(key, weight)
            projections.append(dcg.edge_weights())
        assert all(set(p) == set(projections[0]) for p in projections)
        for key in projections[0]:
            values = {p[key] for p in projections}
            # Identical up to fold order: insertion order may change a
            # projected weight's last bits, never more.
            for value in values:
                assert value == pytest.approx(projections[0][key])
