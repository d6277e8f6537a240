"""Unit tests for call-trace structures."""

import pytest

from repro.profiles.trace import (InlineRule, TraceKey, format_trace,
                                  make_context)


def key(callee="D", *pairs):
    return TraceKey(callee, tuple(pairs) or (("C", 1),))


class TestTraceKey:
    def test_depth_counts_edges(self):
        k = key("D", ("C", 1), ("B", 2), ("A", 3))
        assert k.depth == 3

    def test_empty_context_rejected(self):
        with pytest.raises(ValueError):
            TraceKey("D", ())

    def test_immediate_caller_and_site(self):
        k = key("D", ("C", 7), ("B", 2))
        assert k.context[0] == ("C", 7)
        assert k.callsite == 7

    def test_truncated(self):
        k = key("D", ("C", 1), ("B", 2), ("A", 3))
        assert k.truncated(2) == key("D", ("C", 1), ("B", 2))

    def test_truncated_beyond_depth_is_self(self):
        k = key("D", ("C", 1))
        assert k.truncated(5) is k

    def test_truncated_zero_rejected(self):
        with pytest.raises(ValueError):
            key().truncated(0)

    def test_equality_and_hash(self):
        a = key("D", ("C", 1), ("B", 2))
        b = key("D", ("C", 1), ("B", 2))
        assert a == b
        assert hash(a) == hash(b)
        assert a != key("D", ("C", 1))
        assert a != key("E", ("C", 1), ("B", 2))

    def test_not_equal_to_other_types(self):
        assert key() != "not a trace"

    def test_usable_as_dict_key(self):
        d = {key("D", ("C", 1)): 1.0}
        d[key("D", ("C", 1))] = 2.0
        assert len(d) == 1


class TestInlineRule:
    def test_accessors(self):
        k = key("D", ("C", 1), ("B", 2))
        rule = InlineRule(k, weight=10.0, share=0.02)
        assert rule.callee == "D"
        assert rule.context == (("C", 1), ("B", 2))
        assert rule.weight == 10.0
        assert "share" in repr(rule)


class TestHelpers:
    def test_make_context_normalizes(self):
        ctx = make_context([("C", "1"), ("B", 2.0)])
        assert ctx == (("C", 1), ("B", 2))

    def test_format_trace_matches_paper_notation(self):
        k = key("D", ("C", 1), ("B", 2), ("A", 3))
        assert format_trace(k) == "A => B => C => D"

    def test_format_depth1(self):
        assert format_trace(key("D", ("C", 1))) == "C => D"
