"""Unit tests for the inline oracle's policy decisions."""

import pytest

from repro.compiler.oracle import (Decision, InlineOracle, RECORDED_REFUSALS,
                                   build_site_trace_index, guard_coverage)
from repro.jvm.costs import CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (Arg, Const, Return, StaticCall, VirtualCall,
                               Work)
from repro.profiles.dcg import DynamicCallGraph
from repro.profiles.trace import InlineRule, TraceKey
from repro.workloads.builder import ProgramBuilder


def build_program():
    """Callees of every size class plus a two-target virtual selector."""
    b = ProgramBuilder("oracle")
    b.cls("C")
    b.cls("Base")
    b.cls("A", superclass="Base")
    b.cls("B", superclass="Base")
    costs = CostModel()

    def sized(name, bytecodes):
        b.method("C", name, [Work(bytecodes - 1), Return(Const(0))],
                 params=1, static=True)

    sized("tiny", costs.tiny_limit - 2)
    sized("small", costs.small_limit - 2)
    sized("medium", costs.medium_limit - 10)
    sized("large", costs.medium_limit + 50)

    b.method("A", "poly", [Work(6), Return(Const(1))], params=1)
    b.method("B", "poly", [Work(6), Return(Const(2))], params=1)
    b.method("C", "solo", [Work(3), Return(Const(3))], params=1)

    b.method("C", "root", [Return(Const(0))], params=0, static=True)
    b.entry("C.root")
    # Root needs a real body size for budgets; fake a caller of size 60.
    b.program.classes["C"].methods["root"].bytecodes = 60
    return b.program, costs


@pytest.fixture
def env():
    program, costs = build_program()
    hierarchy = ClassHierarchy(program)
    return program, hierarchy, costs


def oracle_for(env, rules=(), refusals=None, dcg=None):
    program, hierarchy, costs = env
    return InlineOracle(program, hierarchy, costs, rules,
                        on_refusal=refusals, dcg=dcg)


def static_call(target, site=5, args=()):
    return StaticCall(site, target, args)


def rule_for(callee, *pairs, weight=10.0):
    return InlineRule(TraceKey(callee, tuple(pairs)), weight, 0.05)


ROOT_CTX = (("C.root", 5),)


class TestStaticDecisions:
    def test_tiny_always_inlined(self, env):
        program, _h, _c = env
        oracle = oracle_for(env)
        d = oracle.decide(static_call("C.tiny"), ROOT_CTX, 0, 60,
                          program.method("C.root"))
        assert d.inline and not d.guarded
        assert d.reason == "tiny"

    def test_small_inlined_within_budget(self, env):
        program = env[0]
        oracle = oracle_for(env)
        d = oracle.decide(static_call("C.small"), ROOT_CTX, 0, 60,
                          program.method("C.root"))
        assert d.inline
        assert d.reason == "small"

    def test_small_past_budget_needs_profile(self, env):
        program, _h, costs = env
        oracle = oracle_for(env)
        huge_current = int(60 * costs.space_expansion_factor) + 100
        d = oracle.decide(static_call("C.small"), ROOT_CTX, 0,
                          huge_current, program.method("C.root"))
        assert not d.inline
        assert d.reason == "budget"

    def test_small_past_budget_with_hot_rule_inlined(self, env):
        program, _h, costs = env
        oracle = oracle_for(env, rules=[rule_for("C.small", ("C.root", 5))])
        huge_current = int(60 * costs.space_expansion_factor) + 100
        d = oracle.decide(static_call("C.small"), ROOT_CTX, 0,
                          huge_current, program.method("C.root"))
        assert d.inline
        assert d.reason == "small-hot"

    def test_medium_requires_profile(self, env):
        program = env[0]
        oracle = oracle_for(env)
        d = oracle.decide(static_call("C.medium"), ROOT_CTX, 0, 60,
                          program.method("C.root"))
        assert not d.inline
        assert d.reason == "no_profile"

    def test_medium_with_rule_inlined(self, env):
        program = env[0]
        oracle = oracle_for(env, rules=[rule_for("C.medium", ("C.root", 5))])
        d = oracle.decide(static_call("C.medium"), ROOT_CTX, 0, 60,
                          program.method("C.root"))
        assert d.inline
        assert d.reason == "medium-hot"

    def test_large_never_inlined_and_recorded(self, env):
        program = env[0]
        recorded = []
        oracle = oracle_for(
            env, rules=[rule_for("C.large", ("C.root", 5))],
            refusals=lambda *a: recorded.append(a))
        d = oracle.decide(static_call("C.large"), ROOT_CTX, 0, 60,
                          program.method("C.root"))
        assert not d.inline
        assert d.reason == "large"
        assert recorded == [("C.root", 5, "C.large", "large")]

    def test_depth_cap(self, env):
        program, _h, costs = env
        oracle = oracle_for(env)
        d = oracle.decide(static_call("C.tiny"), ROOT_CTX,
                          costs.max_inline_depth, 60,
                          program.method("C.root"))
        assert not d.inline
        assert d.reason == "depth"

    def test_absolute_cap(self, env):
        program, _h, costs = env
        oracle = oracle_for(env)
        d = oracle.decide(static_call("C.tiny"), ROOT_CTX, 0,
                          costs.absolute_size_cap, program.method("C.root"))
        assert not d.inline
        assert d.reason == "space"

    def test_self_recursion_refused(self, env):
        program = env[0]
        oracle = oracle_for(env)
        d = oracle.decide(static_call("C.root"), ROOT_CTX, 0, 60,
                          program.method("C.root"))
        assert not d.inline
        assert d.reason == "recursive"

    def test_mutual_recursion_via_context_refused(self, env):
        program = env[0]
        oracle = oracle_for(env)
        ctx = (("C.tiny", 9), ("C.root", 5))
        d = oracle.decide(static_call("C.tiny", site=9), ctx, 1, 60,
                          program.method("C.root"))
        assert not d.inline
        assert d.reason == "recursive"

    def test_constant_args_enable_inline(self, env):
        # large is just over the limit... use a method near the boundary.
        program, _h, costs = env
        oracle = oracle_for(env, rules=[rule_for("C.medium", ("C.root", 5))])
        call = static_call("C.medium", args=[Const(1), Const(2)])
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert d.inline


class TestVirtualDecisions:
    def test_cha_sole_implementation_direct(self, env):
        program = env[0]
        oracle = oracle_for(env)
        call = VirtualCall(5, "solo", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert d.inline and not d.guarded
        assert d.targets[0].id == "C.solo"

    def test_polymorphic_without_profile_not_inlined(self, env):
        program = env[0]
        oracle = oracle_for(env)
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert not d.inline
        assert d.reason == "no_profile"

    def test_polymorphic_with_rules_guarded(self, env):
        program = env[0]
        oracle = oracle_for(env, rules=[rule_for("A.poly", ("C.root", 5)),
                                        rule_for("B.poly", ("C.root", 5))])
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert d.inline and d.guarded
        assert sorted(t.id for t in d.targets) == ["A.poly", "B.poly"]

    def test_guarded_targets_ordered_by_weight(self, env):
        program = env[0]
        oracle = oracle_for(env, rules=[
            rule_for("A.poly", ("C.root", 5), weight=1.0),
            rule_for("B.poly", ("C.root", 5), weight=9.0)])
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert d.targets[0].id == "B.poly"

    def test_context_selects_single_target(self, env):
        program = env[0]
        oracle = oracle_for(env, rules=[
            rule_for("A.poly", ("C.root", 5), ("X", 1)),
            rule_for("B.poly", ("C.root", 5), ("Y", 2))])
        call = VirtualCall(5, "poly", Arg(0))
        ctx = (("C.root", 5), ("X", 1))
        d = oracle.decide(call, ctx, 0, 60, program.method("C.root"))
        assert d.inline
        assert [t.id for t in d.targets] == ["A.poly"]

    def test_ambiguous_root_intersection_empty(self, env):
        program = env[0]
        oracle = oracle_for(env, rules=[
            rule_for("A.poly", ("C.root", 5), ("X", 1)),
            rule_for("B.poly", ("C.root", 5), ("Y", 2))])
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert not d.inline

    def test_max_guarded_targets_cap(self, env):
        program, hierarchy, costs = env
        tight = costs.replace(max_guarded_targets=1)
        oracle = InlineOracle(program, hierarchy, tight,
                              [rule_for("A.poly", ("C.root", 5), weight=9.0),
                               rule_for("B.poly", ("C.root", 5), weight=1.0)])
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert d.inline
        assert [t.id for t in d.targets] == ["A.poly"]


class TestGuardCoverage:
    def _dcg_with_tail(self):
        """A site where the hot target covers only half the dispatches."""
        dcg = DynamicCallGraph()
        dcg.add(TraceKey("A.poly", (("C.root", 5),)), 10.0)
        dcg.add(TraceKey("B.poly", (("C.root", 5),)), 10.0)
        return dcg

    def test_low_coverage_refused(self, env):
        program = env[0]
        # Only A.poly is a rule, but B.poly receives half the dispatches.
        oracle = oracle_for(env, rules=[rule_for("A.poly", ("C.root", 5))],
                            dcg=self._dcg_with_tail())
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert not d.inline
        assert d.reason == "unskewed"

    def test_full_coverage_accepted(self, env):
        program = env[0]
        oracle = oracle_for(env, rules=[rule_for("A.poly", ("C.root", 5)),
                                        rule_for("B.poly", ("C.root", 5))],
                            dcg=self._dcg_with_tail())
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert d.inline

    def test_contextual_coverage_uses_matching_traces_only(self, env):
        program = env[0]
        dcg = DynamicCallGraph()
        dcg.add(TraceKey("A.poly", (("C.root", 5), ("X", 1))), 10.0)
        dcg.add(TraceKey("B.poly", (("C.root", 5), ("Y", 2))), 10.0)
        oracle = oracle_for(
            env, rules=[rule_for("A.poly", ("C.root", 5), ("X", 1))],
            dcg=dcg)
        call = VirtualCall(5, "poly", Arg(0))
        ctx = (("C.root", 5), ("X", 1))
        d = oracle.decide(call, ctx, 0, 60, program.method("C.root"))
        assert d.inline  # within context X the single target covers 100%

    def test_no_dcg_disables_test(self, env):
        program = env[0]
        oracle = oracle_for(env, rules=[rule_for("A.poly", ("C.root", 5))])
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert d.inline


class TestCoverageHelpers:
    """Edge cases for build_site_trace_index and guard_coverage."""

    def test_empty_dcg_yields_empty_index(self):
        assert build_site_trace_index(DynamicCallGraph()) == {}

    def test_index_groups_by_innermost_edge(self):
        dcg = DynamicCallGraph()
        dcg.add(TraceKey("A.poly", (("C.root", 5),)), 3.0)
        dcg.add(TraceKey("B.poly", (("C.root", 5), ("X", 1))), 2.0)
        dcg.add(TraceKey("A.poly", (("C.other", 9),)), 1.0)
        index = build_site_trace_index(dcg)
        assert set(index) == {("C.root", 5), ("C.other", 9)}
        assert len(index[("C.root", 5)]) == 2

    def test_single_trace_full_coverage(self):
        dcg = DynamicCallGraph()
        key = TraceKey("A.poly", (("C.root", 5),))
        dcg.add(key, 7.0)
        traces = build_site_trace_index(dcg)[("C.root", 5)]
        assert guard_coverage(traces, ROOT_CTX, {"A.poly"}) == 1.0
        assert guard_coverage(traces, ROOT_CTX, {"B.poly"}) == 0.0

    def test_no_applicable_traces_defaults_to_full_coverage(self):
        dcg = DynamicCallGraph()
        dcg.add(TraceKey("A.poly", (("C.root", 5), ("X", 1))), 5.0)
        traces = build_site_trace_index(dcg)[("C.root", 5)]
        # Compiling within context Y: the X-trace is Eq.-3 incompatible,
        # so nothing contradicts the choice.
        assert guard_coverage(traces, (("C.root", 5), ("Y", 2)),
                              {"B.poly"}) == 1.0

    def test_coverage_exactly_at_threshold_accepted(self, env):
        program, _hierarchy, costs = env
        dcg = DynamicCallGraph()
        # A.poly covers exactly guard_coverage_min of the dispatch weight.
        dcg.add(TraceKey("A.poly", (("C.root", 5),)),
                10.0 * costs.guard_coverage_min)
        dcg.add(TraceKey("B.poly", (("C.root", 5),)),
                10.0 * (1.0 - costs.guard_coverage_min))
        oracle = oracle_for(env, rules=[rule_for("A.poly", ("C.root", 5))],
                            dcg=dcg)
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert d.inline  # >= threshold passes; only strictly-below refuses
        assert d.coverage == pytest.approx(costs.guard_coverage_min)

    def test_coverage_just_below_threshold_refused(self, env):
        program, _hierarchy, costs = env
        below = costs.guard_coverage_min - 0.01
        dcg = DynamicCallGraph()
        dcg.add(TraceKey("A.poly", (("C.root", 5),)), 10.0 * below)
        dcg.add(TraceKey("B.poly", (("C.root", 5),)), 10.0 * (1.0 - below))
        oracle = oracle_for(env, rules=[rule_for("A.poly", ("C.root", 5))],
                            dcg=dcg)
        call = VirtualCall(5, "poly", Arg(0))
        d = oracle.decide(call, ROOT_CTX, 0, 60, program.method("C.root"))
        assert not d.inline
        assert d.reason == "unskewed"
        assert d.coverage == pytest.approx(below)


class TestDecisionType:
    def test_decision_repr(self):
        # The repr is a stable string derived from verdict + reason code.
        assert repr(Decision.no("depth")) == "<Decision refused:depth>"
        assert (repr(Decision.guarded_inline(()))
                == "<Decision guarded:profile []>")

    def test_decision_repr_direct(self, env):
        program = env[0]
        tiny = program.method("C.tiny")
        assert (repr(Decision.direct(tiny, "tiny"))
                == "<Decision direct:tiny [C.tiny]>")

    def test_decision_verdict(self, env):
        program = env[0]
        tiny = program.method("C.tiny")
        assert Decision.no("depth").verdict == "refused"
        assert Decision.direct(tiny, "tiny").verdict == "direct"
        assert Decision.guarded_inline([tiny]).verdict == "guarded"

    def test_reason_is_normalized_to_plain_string(self):
        from repro.provenance import ReasonCode
        d = Decision.no(ReasonCode.DEPTH)
        assert type(d.reason) is str
        assert d.reason == "depth"

    def test_non_call_statement_rejected(self, env):
        program = env[0]
        oracle = oracle_for(env)
        with pytest.raises(TypeError):
            oracle.decide(Work(1), ROOT_CTX, 0, 60,
                          program.method("C.root"))

    def test_recorded_refusal_reasons_are_durable(self):
        assert set(RECORDED_REFUSALS) == {"large", "space", "budget",
                                          "recursive"}
