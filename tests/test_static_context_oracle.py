"""Tests for the k-CFA-driven static-context oracle and its policy."""

import pytest

from conftest import build_context_program
from repro.analysis.callgraph import RTA, build_call_graph
from repro.analysis.kcfa import build_kcfa_graph
from repro.analysis.static_oracle import StaticContextOracle
from repro.compiler.compiled_method import DIRECT
from repro.compiler.opt_compiler import OptCompiler, iter_call_sites
from repro.jvm.costs import CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.policies import StaticContextOraclePolicy, make_policy
from repro.provenance.reasons import ReasonCode


def make_oracle(program, k=1, costs=None):
    costs = costs or CostModel()
    hierarchy = ClassHierarchy(program)
    graph = build_call_graph(program, precision=RTA, costs=costs)
    kgraph = build_kcfa_graph(program, hierarchy=hierarchy, k=k, costs=costs)
    return StaticContextOracle(program, hierarchy, costs, graph, kgraph)


def decide_disp(program, sites, comp_context, k=1):
    oracle = make_oracle(program, k=k)
    helper = program.method("C.helper")
    stmt = next(s for s in iter_call_sites(helper.body)
                if s.site == sites["disp"])
    root_id = comp_context[-1][0]
    root = program.method(root_id)
    return oracle.decide(stmt, comp_context, depth=len(comp_context) - 1,
                         current_size=root.bytecodes, root=root)


class TestContextDecisions:
    def test_known_prefix_devirtualizes_without_guard(self, ctxprog):
        program, sites = ctxprog
        # Compiling C.c1 with helper inlined: the chain above the
        # dispatch proves the (c1 -> helper) call string.
        comp_context = (("C.helper", sites["disp"]), ("C.c1", sites["c1"]))
        decision = decide_disp(program, sites, comp_context)
        assert decision.inline and not decision.guarded
        assert decision.reason == ReasonCode.STATIC_CTX_MONO.value
        assert [t.id for t in decision.targets] == ["A.ping"]
        assert decision.weight is not None and decision.weight > 0

    def test_other_chain_picks_other_target(self, ctxprog):
        program, sites = ctxprog
        comp_context = (("C.helper", sites["disp"]), ("C.c2", sites["c2"]))
        decision = decide_disp(program, sites, comp_context)
        assert decision.inline
        assert [t.id for t in decision.targets] == ["B.ping"]

    def test_no_prefix_refuses_as_context_polymorphic(self, ctxprog):
        program, sites = ctxprog
        # Compiling C.helper as its own root: no chain, every analysis
        # context is compatible, the join stays polymorphic.
        comp_context = (("C.helper", sites["disp"]),)
        decision = decide_disp(program, sites, comp_context)
        assert not decision.inline
        assert decision.reason == ReasonCode.STATIC_CTX_POLY.value

    def test_prefix_cleared_between_decisions(self, ctxprog):
        program, sites = ctxprog
        oracle = make_oracle(program)
        helper = program.method("C.helper")
        stmt = next(s for s in iter_call_sites(helper.body)
                    if s.site == sites["disp"])
        root = program.method("C.c1")
        oracle.decide(stmt, (("C.helper", sites["disp"]),
                             ("C.c1", sites["c1"])),
                      depth=1, current_size=root.bytecodes, root=root)
        assert oracle._known_prefix == ()


class TestCompiledTree:
    def test_guard_elimination_through_full_compile(self, ctxprog):
        program, sites = ctxprog
        costs = CostModel()
        hierarchy = ClassHierarchy(program)
        graph = build_call_graph(program, precision=RTA, costs=costs)
        kgraph = build_kcfa_graph(program, hierarchy=hierarchy, k=1,
                                  costs=costs)
        oracle = StaticContextOracle(program, hierarchy, costs, graph,
                                     kgraph)
        compiled = OptCompiler(costs).compile(
            program.method("C.c1"), oracle, version=1)
        # helper inlines into c1, and inside that inlined body the
        # dispatch devirtualizes directly -- no method-test guard.
        assert compiled.has_inlined(sites["c1"], "C.helper")
        decisions = {site: d for node in compiled.root.walk()
                     for site, d in node.decisions.items()}
        decision = decisions[sites["disp"]]
        assert decision.kind == DIRECT
        assert decision.targets() == ["A.ping"]
        assert compiled.guard_count() == 0

    def test_flat_static_oracle_refuses_the_same_site(self, ctxprog):
        from repro.analysis.static_oracle import StaticOracle
        program, sites = ctxprog
        costs = CostModel()
        hierarchy = ClassHierarchy(program)
        graph = build_call_graph(program, precision=RTA, costs=costs)
        oracle = StaticOracle(program, hierarchy, costs, graph)
        compiled = OptCompiler(costs).compile(
            program.method("C.c1"), oracle, version=1)
        decided = {site for node in compiled.root.walk()
                   for site in node.decisions}
        assert sites["disp"] not in decided


class TestPolicyIntegration:
    def test_make_policy_maps_depth_to_k(self):
        policy = make_policy("static-k", 3)
        assert isinstance(policy, StaticContextOraclePolicy)
        assert policy.label == "static-k"
        assert policy.k == 3
        assert policy.name == "static-k(k=3)"

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            StaticContextOraclePolicy(k=-1)

    def test_make_oracle_caches_both_graphs(self, ctxprog):
        program, _sites = ctxprog
        policy = make_policy("static-k", 1)
        hierarchy = ClassHierarchy(program)
        costs = CostModel()
        oracle1 = policy.make_oracle(program, hierarchy, costs)
        oracle2 = policy.make_oracle(program, hierarchy, costs)
        assert isinstance(oracle1, StaticContextOracle)
        assert oracle1._graph is oracle2._graph
        assert oracle1._kgraph is oracle2._kgraph

    def test_run_single_with_static_k_family(self):
        from repro.experiments.runner import run_single
        result = run_single("jess", "static-k", 1, scale=0.05)
        assert result.total_cycles > 0
        assert result.opt_compilations > 0

    def test_static_k_runs_deterministically(self):
        from repro.experiments.runner import run_single
        a = run_single("db", "static-k", 1, scale=0.05)
        b = run_single("db", "static-k", 1, scale=0.05)
        assert a.total_cycles == b.total_cycles
        assert a.opt_code_bytes == b.opt_code_bytes


class TestSweepCell:
    def test_static_k_family_through_sweep(self):
        from repro.experiments.config import SweepConfig
        from repro.experiments.runner import run_sweep
        config = SweepConfig(benchmarks=("compress",),
                             families=("static-k",), depths=(1,),
                             phases=(0.0,), scale=0.05, jobs=1)
        results = run_sweep(config)
        assert results.failures == {}
        assert results.result("compress", "static-k", 1).total_cycles > 0
        assert isinstance(
            results.speedup_percent("compress", "static-k", 1), float)
