"""Structural tests for the synthetic-benchmark generator's output."""

import pytest

from repro.analysis.callgraph import build_call_graph
from repro.compiler.opt_compiler import iter_call_sites
from repro.compiler.size_estimator import SizeClass, classify, is_large
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import S_VIRTUAL_CALL
from repro.workloads.generator import (BenchmarkSpec, PatternSpec,
                                       SharedMediumSpec, generate)


def small_spec(**overrides):
    base = dict(
        name="t", classes=30, methods=220, bytecodes=9_000, seed=7,
        iterations=50, drivers=3,
        patterns=(PatternSpec(fanout=3, correlated=True, depth=3),),
        shared=(SharedMediumSpec(static=True),),
        cond_patterns=1, helper_chain=2)
    base.update(overrides)
    return BenchmarkSpec(**base)


@pytest.fixture(scope="module")
def generated():
    return generate(small_spec())


class TestPatternStructure:
    def test_receiver_classes_form_hierarchy(self, generated):
        program = generated.program
        assert "P0B" in program.classes
        for j in range(3):
            assert program.classes[f"P0C{j}"].superclass == "P0B"

    def test_selector_polymorphic(self, generated):
        hierarchy = ClassHierarchy(generated.program)
        impls = hierarchy.implementations("sel0")
        # Base + fanout-1 overrides (subclass 0 inherits).
        assert len(impls) == 3

    def test_worker_is_medium(self, generated):
        proc = generated.program.method("P0U.proc0")
        assert classify(proc, DEFAULT_COSTS) is SizeClass.MEDIUM

    def test_dispatch_site_recorded(self, generated):
        site = generated.pattern_sites[0]
        info = build_call_graph(generated.program).sites[site]
        assert info.caller == "P0U.proc0"
        assert info.kind == "virtual"

    def test_depth3_pattern_has_one_wrapper(self, generated):
        wrapper = generated.program.method("P0U.w0_0")
        assert classify(wrapper, DEFAULT_COSTS) in (SizeClass.TINY,
                                                    SizeClass.SMALL)

    def test_one_caller_per_receiver_class(self, generated):
        for j in range(3):
            generated.program.method(f"P0U.c0_{j}")


class TestSharedMediumStructure:
    def test_wrapper_small_callee_medium(self, generated):
        s = generated.program.method("Shr0.s0")
        m = generated.program.method("Shr0.m0")
        assert classify(s, DEFAULT_COSTS) is SizeClass.SMALL
        assert classify(m, DEFAULT_COSTS) is SizeClass.MEDIUM

    def test_every_driver_calls_the_wrapper(self, generated):
        for d in range(3):
            driver = generated.program.method(f"Drv.t{d}")
            targets = [stmt.target for stmt in iter_call_sites(driver.body)
                       if stmt.kind != S_VIRTUAL_CALL]
            assert "Shr0.s0" in targets


class TestCondPatternStructure:
    def test_taken_and_untaken_callers_exist(self, generated):
        generated.program.method("Cond0.ct0")
        generated.program.method("Cond0.cf0")

    def test_helper_is_medium(self, generated):
        helper = generated.program.method("Cond0.h0")
        assert classify(helper, DEFAULT_COSTS) is SizeClass.MEDIUM


class TestLargeChain:
    def test_large_methods_interposed(self):
        generated = generate(small_spec(large_in_chain=True, classes=31))
        large = generated.program.method("Big.L0")
        assert is_large(large, DEFAULT_COSTS)
        # Drivers route through the large method instead of calling the
        # pattern callers directly.
        driver = generated.program.method("Drv.t0")
        targets = {stmt.target for stmt in iter_call_sites(driver.body)
                   if hasattr(stmt, "target")}
        assert any(t.startswith("Big.L") for t in targets)


class TestDutyCycle:
    def test_duty_cycle_reduces_dispatches(self):
        from repro.aos.runtime import AdaptiveRuntime
        from repro.policies import make_policy

        full = generate(small_spec(iterations=300))
        throttled = generate(small_spec(
            iterations=300,
            patterns=(PatternSpec(fanout=3, correlated=True, depth=3,
                                  duty_cycle=3),)))
        r_full = AdaptiveRuntime(full.program,
                                 make_policy("cins", 1)).run()
        r_thr = AdaptiveRuntime(throttled.program,
                                make_policy("cins", 1)).run()
        assert r_thr.dispatches < r_full.dispatches

    def test_invalid_duty_cycle_rejected(self):
        from repro.jvm.errors import ConfigError
        with pytest.raises(ConfigError):
            PatternSpec(duty_cycle=0)


class TestColdMass:
    def test_cold_classes_populated(self, generated):
        cold = [name for name in generated.program.classes
                if name.startswith("Cold")]
        assert cold
        for name in cold:
            assert generated.program.classes[name].methods

    def test_init_groups_cover_every_cold_method(self, generated):
        program = generated.program
        called = set()
        for name, cls in program.classes.items():
            if name != "Init":
                continue
            for method in cls.methods.values():
                for stmt in iter_call_sites(method.body):
                    called.add(stmt.target)
        cold_methods = {m.id for m in program.methods()
                        if m.klass.startswith("Cold")}
        assert cold_methods <= called
