"""Unit tests for the static-oracle baseline policy."""

from repro.analysis.callgraph import CHA, RTA, build_call_graph
from repro.analysis.static_oracle import StaticOracle
from repro.compiler.compiled_method import GUARDED
from repro.compiler.opt_compiler import OptCompiler
from repro.jvm.costs import CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (Arg, Const, Local, Loop, New, Return,
                               StaticCall, VirtualCall, Work)
from repro.policies import StaticOraclePolicy, make_policy
from repro.provenance.reasons import GUARD_METHOD_TEST, ReasonCode
from repro.workloads.builder import ProgramBuilder


def make_oracle(program, precision=RTA, costs=None):
    costs = costs or CostModel()
    hierarchy = ClassHierarchy(program)
    graph = build_call_graph(program, precision=precision, costs=costs)
    return StaticOracle(program, hierarchy, costs, graph), costs


def decide_at(program, root_id, site, precision=RTA, current_size=None):
    """Run the oracle on one call site of ``root_id``'s body."""
    oracle, _costs = make_oracle(program, precision)
    root = program.method(root_id)
    stmt = next(s for s in _walk_calls(root.body) if s.site == site)
    if current_size is None:
        current_size = root.bytecodes
    return oracle.decide(stmt, ((root_id, site),), depth=0,
                         current_size=current_size, root=root)


def _walk_calls(body):
    from repro.compiler.opt_compiler import iter_call_sites
    return iter_call_sites(body)


def build_bound_program(cold=False):
    """Static calls only: a tiny callee and a medium callee.

    With ``cold`` a 300-trip loop around the tiny call dwarfs the medium
    site's share of total static frequency, pushing it below the
    hot-edge threshold.
    """
    b = ProgramBuilder("bound-cold" if cold else "bound-hot")
    b.cls("C")
    b.method("C", "tiny", [Work(4), Return(Const(0))], params=0, static=True)
    b.method("C", "med", [Work(50), Return(Const(0))], params=0, static=True)
    tiny_site, med_site = b.site(), b.site()
    tiny_call = StaticCall(tiny_site, "C.tiny", dst=1)
    body = [Loop(Const(300), 0, [tiny_call])] if cold else [tiny_call]
    b.method("C", "root", body + [
        StaticCall(med_site, "C.med", dst=1),
        Return(Const(0)),
    ], params=0, static=True, locals_=4)
    main_site = b.site()
    b.static_method("C", "main", [
        StaticCall(main_site, "C.root", dst=0),
        Return(Local(0)),
    ])
    b.entry("C.main")
    return b.build(), {"tiny": tiny_site, "med": med_site}


def build_virtual_program(allocate_both=True, sole_impl=False):
    """One virtual site; receiver classes vary by flag.

    * ``sole_impl``: only S1 implements the selector (CHA binds it).
    * ``allocate_both``: both S1 and S2 are instantiated (RTA-polymorphic)
      versus only S1 (RTA-monomorphic, CHA-polymorphic).
    """
    b = ProgramBuilder("virt")
    b.cls("Sub")
    b.cls("S1", superclass="Sub")
    b.cls("S2", superclass="Sub")
    b.method("S1", "act", [Work(3), Return(Const(1))], params=1)
    if not sole_impl:
        b.method("S2", "act", [Work(3), Return(Const(2))], params=1)
    b.cls("C")
    act_site = b.site()
    b.method("C", "root", [
        VirtualCall(act_site, "act", Arg(0), dst=0),
        Return(Local(0)),
    ], params=1, static=True, locals_=4)
    root_site = b.site()
    main_body = [New(0, "S1")]
    if allocate_both:
        main_body.append(New(1, "S2"))
    main_body += [
        StaticCall(root_site, "C.root", [Local(0)], dst=2),
        Return(Local(2)),
    ]
    b.static_method("C", "main", main_body, locals_=4)
    b.entry("C.main")
    return b.build(), act_site


class TestBoundDecisions:
    def test_tiny_callee_inlines(self):
        program, sites = build_bound_program()
        decision = decide_at(program, "C.root", sites["tiny"])
        assert decision.inline and not decision.guarded
        assert decision.reason == ReasonCode.TINY.value

    def test_statically_hot_medium_inlines(self):
        program, sites = build_bound_program(cold=False)
        decision = decide_at(program, "C.root", sites["med"])
        assert decision.inline
        assert decision.reason == ReasonCode.STATIC_HOT.value
        assert decision.weight is not None and decision.weight > 0

    def test_statically_cold_medium_refused(self):
        program, sites = build_bound_program(cold=True)
        decision = decide_at(program, "C.root", sites["med"])
        assert not decision.inline
        assert decision.reason == ReasonCode.STATIC_COLD.value

    def test_cold_site_weight_below_threshold(self):
        program, sites = build_bound_program(cold=True)
        oracle, costs = make_oracle(program)
        assert oracle._graph.site_weight(sites["med"]) < \
            costs.hot_edge_threshold


class TestVirtualDecisions:
    def test_polymorphic_site_refused(self):
        program, site = build_virtual_program(allocate_both=True)
        decision = decide_at(program, "C.root", site)
        assert not decision.inline
        assert decision.reason == ReasonCode.STATIC_POLY.value

    def test_rta_singleton_inlines_behind_method_test(self):
        program, site = build_virtual_program(allocate_both=False)
        decision = decide_at(program, "C.root", site)
        assert decision.inline and decision.guarded
        assert [t.id for t in decision.targets] == ["S1.act"]
        assert decision.guard_kind == GUARD_METHOD_TEST

    def test_cha_precision_sees_singleton_as_polymorphic(self):
        # At CHA precision the unallocated S2.act is still a target, so
        # the graph gives the oracle no grounds to devirtualize.
        program, site = build_virtual_program(allocate_both=False)
        decision = decide_at(program, "C.root", site, precision=CHA)
        assert not decision.inline
        assert decision.reason == ReasonCode.STATIC_POLY.value

    def test_sole_implementation_binds_without_guard(self):
        program, site = build_virtual_program(sole_impl=True)
        decision = decide_at(program, "C.root", site)
        assert decision.inline and not decision.guarded
        assert decision.reason == ReasonCode.TINY.value


class TestCompiledTree:
    def test_full_compile_shape(self):
        program, site = build_virtual_program(allocate_both=False)
        costs = CostModel()
        hierarchy = ClassHierarchy(program)
        graph = build_call_graph(program, precision=RTA, costs=costs)
        oracle = StaticOracle(program, hierarchy, costs, graph)
        compiled = OptCompiler(costs).compile(
            program.method("C.root"), oracle, version=1)
        decision = compiled.root.decisions[site]
        assert decision.kind == GUARDED
        assert decision.targets() == ["S1.act"]

    def test_poly_site_left_as_dispatch(self):
        program, site = build_virtual_program(allocate_both=True)
        costs = CostModel()
        hierarchy = ClassHierarchy(program)
        graph = build_call_graph(program, precision=RTA, costs=costs)
        oracle = StaticOracle(program, hierarchy, costs, graph)
        compiled = OptCompiler(costs).compile(
            program.method("C.root"), oracle, version=1)
        assert site not in compiled.root.decisions


class TestPolicyIntegration:
    def test_make_policy_builds_static_policy(self):
        policy = make_policy("static")
        assert isinstance(policy, StaticOraclePolicy)
        assert policy.label == "static"

    def test_make_oracle_returns_static_oracle_and_caches_graph(self):
        program, _site = build_virtual_program()
        policy = make_policy("static")
        hierarchy = ClassHierarchy(program)
        costs = CostModel()
        oracle1 = policy.make_oracle(program, hierarchy, costs)
        oracle2 = policy.make_oracle(program, hierarchy, costs)
        assert isinstance(oracle1, StaticOracle)
        assert oracle1._graph is oracle2._graph

    def test_run_single_with_static_family(self):
        from repro.experiments.runner import run_single
        result = run_single("compress", "static", 1, scale=0.05)
        assert result.total_cycles > 0
        assert result.opt_compilations > 0

    def test_static_runs_deterministically(self):
        from repro.experiments.runner import run_single
        a = run_single("db", "static", 1, scale=0.05)
        b = run_single("db", "static", 1, scale=0.05)
        assert a.total_cycles == b.total_cycles
        assert a.opt_code_bytes == b.opt_code_bytes


class TestSweepCell:
    def test_static_family_through_sweep(self):
        from repro.experiments.config import SweepConfig
        from repro.experiments.runner import run_sweep
        config = SweepConfig(benchmarks=("compress",), families=("static",),
                             depths=(1,), phases=(0.0,), scale=0.05, jobs=1)
        results = run_sweep(config)
        assert results.failures == {}
        assert results.result("compress", "static", 1).total_cycles > 0
        # Baseline cell runs alongside, so the Figure-4 query works.
        assert isinstance(
            results.speedup_percent("compress", "static", 1), float)
