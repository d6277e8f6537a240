"""Unit tests for Equation-3 partial context matching and the
intersection-of-target-sets candidate algorithm (paper Section 3.3)."""

from repro.profiles.partial_match import (applicable_rules, candidate_targets,
                                          contexts_compatible,
                                          ordered_candidates)
from repro.profiles.trace import InlineRule, TraceKey


def rule(callee, *pairs, weight=10.0, share=0.02):
    return InlineRule(TraceKey(callee, tuple(pairs)), weight, share)


class TestContextsCompatible:
    def test_identical(self):
        ctx = (("C", 1), ("B", 2))
        assert contexts_compatible(ctx, ctx)

    def test_rule_deeper_than_compilation(self):
        # Profile data often has more context than available at the site.
        assert contexts_compatible((("C", 1), ("B", 2), ("A", 3)),
                                   (("C", 1),))

    def test_compilation_deeper_than_rule(self):
        assert contexts_compatible((("C", 1),),
                                   (("C", 1), ("B", 2), ("A", 3)))

    def test_mismatch_at_level_one(self):
        assert not contexts_compatible((("C", 1),), (("C", 2),))
        assert not contexts_compatible((("C", 1),), (("X", 1),))

    def test_mismatch_at_deeper_level(self):
        assert not contexts_compatible((("C", 1), ("B", 2)),
                                       (("C", 1), ("B", 9)))

    def test_only_overlap_levels_compared(self):
        # Divergence beyond min(k, j) is invisible to Eq. 3.
        assert contexts_compatible((("C", 1), ("B", 2)),
                                   (("C", 1), ("B", 2), ("Z", 9)))


class TestDegenerateContexts:
    """Edge cases at the boundaries of Equation 3's min(k, j) overlap."""

    def test_empty_rule_context_matches_any_compilation_context(self):
        # A depth-0 rule constrains nothing: the overlap is empty, so
        # compatibility is vacuous regardless of compilation depth.
        assert contexts_compatible((), (("C", 1), ("B", 2), ("A", 3)))
        assert contexts_compatible((), ())

    def test_empty_compilation_context_matches_any_rule(self):
        assert contexts_compatible((("C", 1), ("B", 2), ("A", 3)), ())

    def test_compatibility_symmetric_on_the_overlap(self):
        # Eq. 3 only inspects the shared prefix, so swapping the rule and
        # compilation sides can never change the verdict.
        shallow = (("C", 1),)
        deep_match = (("C", 1), ("B", 2), ("A", 3))
        deep_clash = (("C", 2), ("B", 2))
        assert contexts_compatible(deep_match, shallow) == \
            contexts_compatible(shallow, deep_match) is True
        assert contexts_compatible(deep_clash, shallow) == \
            contexts_compatible(shallow, deep_clash) is False


class TestApplicableRules:
    def test_filters_by_compatibility(self):
        rules = [rule("D", ("C", 1), ("B", 2)),
                 rule("D", ("C", 1), ("X", 3)),
                 rule("D", ("C", 9))]
        applicable = applicable_rules(rules, (("C", 1), ("B", 2)))
        assert len(applicable) == 1
        assert applicable[0].context == (("C", 1), ("B", 2))

    def test_depth1_rules_apply_to_any_matching_site(self):
        rules = [rule("D", ("C", 1))]
        assert applicable_rules(rules, (("C", 1), ("B", 2), ("A", 3)))


class TestCandidateTargets:
    def test_empty_rules(self):
        assert candidate_targets([], (("C", 1),)) == {}

    def test_single_group_returns_its_targets(self):
        rules = [rule("D1", ("C", 1)), rule("D2", ("C", 1))]
        candidates = candidate_targets(rules, (("C", 1),))
        assert set(candidates) == {"D1", "D2"}

    def test_intersection_across_groups(self):
        # Two context groups; only D1 is hot in both.
        rules = [rule("D1", ("C", 1), ("B", 2)),
                 rule("D1", ("C", 1), ("A", 3)),
                 rule("D2", ("C", 1), ("B", 2))]
        candidates = candidate_targets(rules, (("C", 1),))
        assert set(candidates) == {"D1"}

    def test_disjoint_groups_empty_intersection(self):
        # The HashMap example compiled at an ambiguous root: each context
        # predicts a different target, so nothing is predicted.
        rules = [rule("MyKey.hashCode", ("get", 1), ("runTest", 10)),
                 rule("Object.hashCode", ("get", 1), ("runTest", 11))]
        assert candidate_targets(rules, (("get", 1),)) == {}

    def test_specific_context_selects_one_group(self):
        rules = [rule("MyKey.hashCode", ("get", 1), ("runTest", 10)),
                 rule("Object.hashCode", ("get", 1), ("runTest", 11))]
        candidates = candidate_targets(
            rules, (("get", 1), ("runTest", 10)))
        assert set(candidates) == {"MyKey.hashCode"}

    def test_incompatible_context_no_candidates(self):
        rules = [rule("D", ("C", 1), ("B", 2))]
        assert candidate_targets(rules, (("C", 1), ("Z", 5))) == {}

    def test_weights_summed_across_groups(self):
        rules = [rule("D", ("C", 1), ("B", 2), weight=5.0),
                 rule("D", ("C", 1), ("A", 3), weight=7.0)]
        candidates = candidate_targets(rules, (("C", 1),))
        assert candidates["D"] == 12.0

    def test_deeper_rule_groups_separate(self):
        # Same target through two distinct deep contexts still intersects.
        rules = [rule("D", ("C", 1), ("B", 2), ("A", 3)),
                 rule("D", ("C", 1), ("B", 2), ("X", 4))]
        candidates = candidate_targets(rules, (("C", 1), ("B", 2)))
        assert set(candidates) == {"D"}


class TestHelpers:
    def test_ordered_candidates_hottest_first(self):
        ordered = ordered_candidates({"A": 1.0, "B": 5.0, "C": 5.0})
        assert ordered == [("B", 5.0), ("C", 5.0), ("A", 1.0)]

    def test_ordered_candidates_ties_ignore_insertion_order(self):
        # Guard-target order feeds compiled-code layout, so all-tied
        # weights must order identically however the dict was built.
        forward = ordered_candidates({"A": 2.0, "M": 2.0, "X": 2.0})
        backward = ordered_candidates({"X": 2.0, "M": 2.0, "A": 2.0})
        assert forward == backward == [("A", 2.0), ("M", 2.0), ("X", 2.0)]
