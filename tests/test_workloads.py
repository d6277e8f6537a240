"""Tests for the workload builder, generator, and SPEC-like suite."""

import pytest

from repro.analysis.callgraph import build_call_graph
from repro.jvm.errors import ConfigError, ProgramError
from repro.jvm.program import Const, Return, Work
from repro.workloads.builder import ProgramBuilder
from repro.workloads.generator import (BenchmarkSpec, PatternSpec,
                                       SharedMediumSpec, generate)
from repro.workloads.hashmap_example import build as build_hashmap
from repro.workloads.spec import BENCHMARK_ORDER, TABLE1, build_benchmark


class TestProgramBuilder:
    def test_site_ids_unique(self):
        b = ProgramBuilder("t")
        assert b.site() != b.site()

    def test_cls_idempotent(self):
        b = ProgramBuilder("t")
        first = b.cls("C")
        assert b.cls("C") is first

    def test_cls_conflicting_superclass_rejected(self):
        b = ProgramBuilder("t")
        b.cls("Base")
        b.cls("C", superclass="Base")
        with pytest.raises(ProgramError):
            b.cls("C", superclass=None)

    def test_method_requires_declared_class(self):
        b = ProgramBuilder("t")
        with pytest.raises(ProgramError):
            b.method("Ghost", "m", [Return(Const(0))])

    def test_call_helpers_allocate_sites(self):
        b = ProgramBuilder("t")
        b.cls("C")
        b.static_method("C", "m", [Return(Const(0))])
        call = b.call("C.m")
        vcall = b.vcall("m", Const(0))
        assert call.site != vcall.site

    def test_build_validates(self):
        from repro.analysis.verifier import UNKNOWN_STATIC_TARGET
        from repro.aos.runtime import AdaptiveRuntime
        from repro.policies import make_policy
        b = ProgramBuilder("t")
        b.cls("C")
        b.static_method("C", "m", [b.call("C.ghost")])
        b.entry("C.m")
        # build() checks nothing; the runtime refuses the program.
        with pytest.raises(ProgramError) as exc:
            AdaptiveRuntime(b.build(), make_policy("cins", 1))
        assert UNKNOWN_STATIC_TARGET in exc.value.report.by_code()


class TestHashMapExample:
    def test_builds_and_validates(self):
        from repro.analysis.verifier import verify_program
        built = build_hashmap(iterations=5)
        assert verify_program(built.program).ok
        assert built.program.entry == "HashMapTest.main"
        assert built.sites.cs1 != built.sites.cs2

    def test_hashcode_polymorphic(self):
        from repro.jvm.hierarchy import ClassHierarchy
        built = build_hashmap(iterations=5)
        hierarchy = ClassHierarchy(built.program)
        assert hierarchy.sole_implementation("hashCode") is None
        assert hierarchy.sole_implementation("intValue") is not None


class TestSpecSuite:
    def test_all_benchmarks_match_table1_exactly_for_static_counts(self):
        for name in BENCHMARK_ORDER:
            generated = build_benchmark(name)
            program = generated.program
            classes, methods, _bc = TABLE1[name]
            assert len(program.classes) == classes, name
            assert len(program.methods()) == methods, name

    def test_bytecodes_within_tolerance(self):
        for name in BENCHMARK_ORDER:
            generated = build_benchmark(name)
            target = TABLE1[name][2]
            actual = generated.program.total_bytecodes()
            assert abs(actual - target) / target < 0.01, name

    def test_generation_deterministic(self):
        a = build_benchmark("jess").program
        b = build_benchmark("jess").program
        assert [m.id for m in a.methods()] == [m.id for m in b.methods()]
        assert [m.bytecodes for m in a.methods()] == \
            [m.bytecodes for m in b.methods()]

    def test_scale_shrinks_only_dynamics(self):
        full = build_benchmark("db")
        small = build_benchmark("db", scale=0.1)
        assert small.spec.iterations < full.spec.iterations
        assert len(small.program.methods()) == len(full.program.methods())

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError):
            build_benchmark("quake")


class TestSpecValidation:
    def test_pattern_fanout_validated(self):
        with pytest.raises(ConfigError):
            PatternSpec(fanout=1)

    def test_pattern_depth_validated(self):
        with pytest.raises(ConfigError):
            PatternSpec(depth=1)

    def test_benchmark_spec_validated(self):
        with pytest.raises(ConfigError):
            BenchmarkSpec(name="x", classes=10, methods=10, bytecodes=100,
                          seed=1, iterations=0)

    def test_too_few_classes_rejected(self):
        spec = BenchmarkSpec(
            name="tiny", classes=3, methods=400, bytecodes=9000, seed=1,
            iterations=10,
            patterns=(PatternSpec(),), shared=(SharedMediumSpec(),))
        with pytest.raises(ConfigError):
            generate(spec)


class TestGeneratedDynamics:
    """Run a scaled-down benchmark and check every method is exercised."""

    @pytest.fixture(scope="class")
    def executed(self):
        from repro.aos.runtime import AdaptiveRuntime
        from repro.policies import make_policy
        generated = build_benchmark("compress", scale=0.05)
        runtime = AdaptiveRuntime(generated.program, make_policy("cins", 1))
        result = runtime.run()
        return generated, runtime, result

    def test_every_method_dynamically_compiled(self, executed):
        generated, _runtime, result = executed
        # Table 1's "methods dynamically compiled" equals the program's
        # method count: startup touches all cold code.
        assert result.methods_compiled == len(generated.program.methods())

    def test_bytecodes_compiled_match_program(self, executed):
        generated, _runtime, result = executed
        assert result.bytecodes_compiled == \
            generated.program.total_bytecodes()

    def test_polymorphic_sites_dispatched(self, executed):
        _generated, _runtime, result = executed
        assert result.dispatches > 0

    def test_correlated_pattern_is_context_monomorphic(self, executed):
        generated, runtime, _result = executed
        site = generated.pattern_sites[0]
        caller = build_call_graph(generated.program).sites[site].caller
        dist = runtime.state.dcg.site_target_distribution(caller, site)
        # Globally polymorphic...
        assert len(dist) >= 2
