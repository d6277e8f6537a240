"""Unit tests for the optimizing compiler's inline-tree construction."""

import pytest

from repro.compiler.code_cache import CodeCache
from repro.compiler.compiled_method import DIRECT, GUARDED, InlineNode
from repro.compiler.opt_compiler import OptCompiler, iter_call_sites
from repro.compiler.oracle import InlineOracle
from repro.jvm.costs import OPT_BYTES_PER_BC, CostModel
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import (Arg, Const, If, Local, Loop, Return,
                               StaticCall, VirtualCall, Work)
from repro.profiles.trace import InlineRule, TraceKey
from repro.workloads.builder import ProgramBuilder


def rule_for(callee, *pairs, weight=10.0):
    return InlineRule(TraceKey(callee, tuple(pairs)), weight, 0.05)


def build_chain_program():
    """root -> mid (medium) -> leaf (tiny); poly site inside mid."""
    b = ProgramBuilder("chain")
    b.cls("C")
    b.cls("Base")
    b.cls("A", superclass="Base")
    b.cls("B", superclass="Base")
    b.method("A", "poly", [Work(5), Return(Const(1))], params=1)
    b.method("B", "poly", [Work(5), Return(Const(2))], params=1)

    b.method("C", "leaf", [Work(4), Return(Const(0))], params=0, static=True)

    leaf_site = 100
    poly_site = 101
    b.method("C", "mid", [
        Work(30),
        StaticCall(leaf_site, "C.leaf", dst=0),
        VirtualCall(poly_site, "poly", Arg(0), dst=1),
        Return(Const(0)),
    ], params=1, static=True)

    mid_site = 102
    b.method("C", "root", [
        Work(10),
        StaticCall(mid_site, "C.mid", [Arg(0)], dst=0),
        Return(Const(0)),
    ], params=1, static=True)
    # The tests compile C.root directly; the entry only needs to make the
    # program well-formed (a runnable entry takes no parameters).
    b.method("C", "main", [
        StaticCall(103, "C.root", [Const(0)], dst=0),
        Return(Local(0)),
    ], params=0, static=True)
    b.entry("C.main")
    program = b.build()
    return program, {"leaf": leaf_site, "poly": poly_site, "mid": mid_site}


@pytest.fixture
def chain():
    return build_chain_program()


def compile_root(chain, rules=(), costs=None):
    program, sites = chain
    costs = costs or CostModel()
    hierarchy = ClassHierarchy(program)
    oracle = InlineOracle(program, hierarchy, costs, rules)
    compiler = OptCompiler(costs)
    compiled = compiler.compile(program.method("C.root"), oracle, version=1)
    return compiled, sites


class TestIterCallSites:
    def test_finds_nested_calls(self):
        body = [
            Loop(Const(2), 0, [
                If(Arg(0), [StaticCall(1, "C.m")],
                   [VirtualCall(2, "s", Arg(0))]),
            ]),
            StaticCall(3, "C.m"),
        ]
        sites = [stmt.site for stmt in iter_call_sites(body)]
        assert sites == [1, 2, 3]


class TestInlineTree:
    def test_no_rules_no_medium_inline(self, chain):
        compiled, sites = compile_root(chain)
        assert sites["mid"] not in compiled.root.decisions
        assert compiled.inlined_bytecodes == \
            compiled.method.bytecodes

    def test_rule_inlines_medium_chain(self, chain):
        rules = [rule_for("C.mid", ("C.root", 102))]
        compiled, sites = compile_root(chain, rules)
        decision = compiled.root.decisions[sites["mid"]]
        assert decision.kind == DIRECT
        # Inside the inlined mid, the tiny leaf is inlined too.
        mid_node = decision.sole.node
        assert sites["leaf"] in mid_node.decisions
        assert mid_node.depth == 1
        assert mid_node.decisions[sites["leaf"]].sole.node.depth == 2

    def test_guarded_inline_inside_inlined_body(self, chain):
        rules = [rule_for("C.mid", ("C.root", 102)),
                 rule_for("A.poly", ("C.mid", 101), ("C.root", 102))]
        compiled, sites = compile_root(chain, rules)
        mid_node = compiled.root.decisions[sites["mid"]].sole.node
        poly_decision = mid_node.decisions[sites["poly"]]
        assert poly_decision.kind == GUARDED
        assert poly_decision.targets() == ["A.poly"]

    def test_context_of_nested_site_includes_chain(self, chain):
        # A rule requiring the *wrong* outer context must not fire.
        rules = [rule_for("C.mid", ("C.root", 102)),
                 rule_for("A.poly", ("C.mid", 101), ("C.other", 999))]
        compiled, sites = compile_root(chain, rules)
        mid_node = compiled.root.decisions[sites["mid"]].sole.node
        assert sites["poly"] not in mid_node.decisions

    def test_inlined_bytecodes_accumulate(self, chain):
        program, _ = chain
        rules = [rule_for("C.mid", ("C.root", 102))]
        compiled, _sites = compile_root(chain, rules)
        assert compiled.inlined_bytecodes > program.method("C.root").bytecodes

    def test_code_bytes_and_compile_cycles_scale(self, chain):
        costs = CostModel()
        compiled, _ = compile_root(chain, costs=costs)
        assert compiled.code_bytes == \
            compiled.inlined_bytecodes * OPT_BYTES_PER_BC
        assert compiled.compile_cycles == \
            compiled.inlined_bytecodes * costs.opt_compile_cycles_per_bc

    def test_version_recorded(self, chain):
        compiled, _ = compile_root(chain)
        assert compiled.version == 1


class TestCompiledMethodQueries:
    def test_inlined_edges(self, chain):
        rules = [rule_for("C.mid", ("C.root", 102))]
        compiled, sites = compile_root(chain, rules)
        edges = compiled.inlined_edges()
        assert ("C.root", sites["mid"], "C.mid") in edges
        assert ("C.mid", sites["leaf"], "C.leaf") in edges

    def test_has_inlined(self, chain):
        rules = [rule_for("C.mid", ("C.root", 102))]
        compiled, sites = compile_root(chain, rules)
        assert compiled.has_inlined(sites["mid"], "C.mid")
        assert compiled.has_inlined(sites["leaf"], "C.leaf")
        assert not compiled.has_inlined(sites["poly"], "A.poly")

    def test_walk_visits_all_nodes(self, chain):
        rules = [rule_for("C.mid", ("C.root", 102))]
        compiled, _ = compile_root(chain, rules)
        methods = [node.method.id for node in compiled.root.walk()]
        assert methods[0] == "C.root"
        assert "C.mid" in methods and "C.leaf" in methods

    def test_node_inlined_bytecodes_matches_total(self, chain):
        rules = [rule_for("C.mid", ("C.root", 102))]
        compiled, _ = compile_root(chain, rules)
        # The tree's own recursive count uses raw bytecodes; the compiler's
        # total uses constant-arg-discounted estimates, so tree >= total.
        assert compiled.root.inlined_bytecodes() >= \
            compiled.inlined_bytecodes


class TestCodeCache:
    def test_install_and_replace(self, chain):
        costs = CostModel()
        cache = CodeCache(costs)
        compiled1, _ = compile_root(chain)
        cache.install(compiled1)
        assert cache.installed["C.root"] is compiled1
        assert cache.next_version("C.root") == 2

        compiled2, _ = compile_root(chain)
        compiled2.version = 2
        cache.install(compiled2)
        assert cache.installed["C.root"] is compiled2
        # Cumulative metrics keep both versions; live only the last.
        assert cache.opt_code_bytes == \
            compiled1.code_bytes + compiled2.code_bytes
        assert cache.live_opt_code_bytes() == compiled2.code_bytes
        assert cache.opt_compilations == 2
