"""Unit tests for the analysis-layer program verifier."""

import pytest

from conftest import build_diamond_program
from repro.analysis import verifier
from repro.analysis.verifier import (VERIFIER_CODES, VerificationFailure,
                                     verify_program)
from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.program import (Arg, ClassDef, Const, If, Let, Local, Loop,
                               Mod, MethodDef, New, NewPool, Program, Return,
                               StaticCall, VirtualCall, Work)
from repro.policies import make_policy


def program_with(entry_body, classes=(), methods=(), entry_params=0,
                 num_locals=8):
    """A minimal program: Main.main plus optional extra classes/methods.

    ``methods`` entries are (klass, name, num_params, is_static, body).
    Nothing checks the program on the way in -- the verifier must cope
    with arbitrarily broken input without raising.
    """
    p = Program("broken")
    p.add_class(ClassDef("Main"))
    for cls in classes:
        p.add_class(cls)
    for klass, name, params, static, body in methods:
        p.classes[klass].declare(MethodDef(klass, name, params, static, body))
    p.classes["Main"].declare(
        MethodDef("Main", "main", entry_params, True, entry_body,
                  num_locals=num_locals))
    p.set_entry("Main.main")
    return p


def codes_of(program):
    return {e.code for e in verify_program(program).errors}


class TestCleanPrograms:
    def test_diamond_verifies_clean(self):
        program, _sites = build_diamond_program()
        report = verify_program(program)
        assert report.ok
        assert report.methods_checked == 5
        assert report.sites_checked == 3

    def test_report_counters_and_render(self):
        program, _sites = build_diamond_program()
        report = verify_program(program)
        assert report.by_code() == {}
        assert "OK" in report.render()
        report.raise_if_failed()  # must not raise


class TestHierarchyChecks:
    def test_unknown_superclass(self):
        p = program_with([Return(Const(0))],
                         classes=[ClassDef("A", superclass="Ghost")])
        assert verifier.UNKNOWN_SUPERCLASS in codes_of(p)

    def test_superclass_cycle(self):
        p = program_with([Return(Const(0))],
                         classes=[ClassDef("A", superclass="B"),
                                  ClassDef("B", superclass="A")])
        assert verifier.SUPERCLASS_CYCLE in codes_of(p)


class TestEntryChecks:
    def test_missing_entry(self):
        p = Program("broken")
        p.add_class(ClassDef("Main"))
        assert verifier.ENTRY_MISSING in codes_of(p)

    def test_entry_with_params(self):
        p = program_with([Return(Const(0))], entry_params=2)
        assert verifier.ENTRY_PARAMS in codes_of(p)


class TestCallChecks:
    def test_unknown_static_target(self):
        p = program_with([StaticCall(0, "Ghost.m", dst=0), Return(Const(0))])
        assert verifier.UNKNOWN_STATIC_TARGET in codes_of(p)

    def test_static_arity_mismatch(self):
        p = program_with(
            [StaticCall(0, "Main.helper", [Const(1), Const(2)], dst=0),
             Return(Const(0))],
            methods=[("Main", "helper", 1, True, [Return(Arg(0))])])
        assert verifier.STATIC_ARITY in codes_of(p)

    def test_unresolved_selector(self):
        p = program_with([New(0, "Main"),
                          VirtualCall(1, "ghost", Local(0), dst=1),
                          Return(Const(0))])
        assert verifier.UNRESOLVED_SELECTOR in codes_of(p)

    def test_virtual_arity_mismatch(self):
        # ping declares receiver-only (1 slot); dispatch passes an extra arg.
        p = program_with(
            [New(0, "A"), VirtualCall(1, "ping", Local(0), [Const(7)],
                                      dst=1),
             Return(Const(0))],
            classes=[ClassDef("A")],
            methods=[("A", "ping", 1, False, [Return(Const(0))])])
        assert verifier.VIRTUAL_ARITY in codes_of(p)

    def test_duplicate_site_ids(self):
        p = program_with(
            [StaticCall(5, "Main.helper", dst=0),
             StaticCall(5, "Main.helper", dst=1), Return(Const(0))],
            methods=[("Main", "helper", 0, True, [Return(Const(0))])])
        assert verifier.DUPLICATE_SITE in codes_of(p)


class TestBodyChecks:
    def test_unknown_class_in_new(self):
        for alloc in (New(0, "Ghost"), NewPool(0, ("Main", "Ghost"))):
            p = program_with([alloc, Return(Const(0))])
            assert verifier.UNKNOWN_CLASS in codes_of(p), alloc

    def test_empty_pool(self):
        p = program_with([NewPool(0, []), Return(Const(0))])
        assert verifier.EMPTY_POOL in codes_of(p)

    def test_arg_index_out_of_range(self):
        p = program_with(
            [StaticCall(0, "Main.helper", [Const(1)], dst=0),
             Return(Const(0))],
            methods=[("Main", "helper", 1, True, [Return(Arg(3))])])
        assert verifier.ARG_RANGE in codes_of(p)

    def test_local_index_out_of_range(self):
        p = program_with([Let(99, Const(1)), Return(Const(0))], num_locals=4)
        assert verifier.LOCAL_RANGE in codes_of(p)

    def test_negative_loop_bound(self):
        p = program_with([Loop(Const(-3), 0, [Work(1)]), Return(Const(0))])
        assert verifier.LOOP_BOUND in codes_of(p)

    def test_negative_work_cost(self):
        # The Work constructor rejects negatives, so a bad cost can only
        # arrive via mutation -- exactly what the verifier must catch.
        work = Work(1)
        work.cost = -5
        p = program_with([work, Return(Const(0))])
        assert verifier.WORK_COST in codes_of(p)

    def test_mod_by_constant_zero(self):
        p = program_with([Let(0, Mod(Const(7), Const(0))), Return(Const(0))])
        assert verifier.MOD_ZERO in codes_of(p)

    def test_bad_kind_tags(self):
        class FakeStmt:
            kind = 999

        class FakeExpr:
            kind = 888

        # body_bytecodes would choke on the fake kinds, so size the
        # method explicitly (the verifier must not depend on it).
        p = Program("broken")
        p.add_class(ClassDef("Main"))
        p.classes["Main"].declare(MethodDef(
            "Main", "main", 0, True,
            [FakeStmt(), Let(0, FakeExpr()), Return(Const(0))],
            bytecodes=3))
        p.set_entry("Main.main")
        codes = codes_of(p)
        assert verifier.BAD_STMT_KIND in codes
        assert verifier.BAD_EXPR_KIND in codes

    def test_error_paths_locate_nested_statements(self):
        bad = Work(1)
        bad.cost = -1
        p = program_with([If(Const(1), [bad], [Work(1)]),
                          Return(Const(0))])
        (error,) = verify_program(p).errors
        assert error.path == "body[0].then[0]"
        assert error.method == "Main.main"
        assert error.code in VERIFIER_CODES
        assert "body[0].then[0]" in error.describe()


class TestRuntimeVerifies:
    def test_runtime_rejects_a_malformed_program_naming_every_finding(self):
        # A virtual call passing one argument too many and a Return of a
        # local slot past num_locals: neither is a missing name, and the
        # runtime must refuse the program before it runs.
        p = program_with(
            [New(0, "A"),
             VirtualCall(1, "ping", Local(0), [Const(7)], dst=1),
             Return(Local(9))],
            classes=[ClassDef("A")],
            methods=[("A", "ping", 1, False, [Return(Const(0))])],
            num_locals=4)
        with pytest.raises(VerificationFailure) as exc:
            AdaptiveRuntime(p, make_policy("cins", 1))
        report = exc.value.report
        assert report.by_code() == {verifier.VIRTUAL_ARITY: 1,
                                    verifier.LOCAL_RANGE: 1}
        for error in report.errors:
            assert error.describe() in str(exc.value)


class TestRealWorkloads:
    @pytest.mark.parametrize("seed_offset", range(4))
    @pytest.mark.parametrize("name", [
        "compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack",
        "SPECjbb2000"])
    def test_spec_benchmarks_verify_clean(self, name, seed_offset):
        from repro.workloads.spec import build_benchmark
        generated = build_benchmark(name, scale=0.05,
                                    seed_offset=seed_offset)
        report = verify_program(generated.program)
        assert report.ok, report.render()

    @pytest.mark.parametrize("module_name", [
        "hashmap_example", "phase_shift", "lazy_loading"])
    def test_example_workloads_verify_clean(self, module_name):
        import importlib
        module = importlib.import_module(f"repro.workloads.{module_name}")
        built = module.build(iterations=50)
        report = verify_program(built.program)
        assert report.ok, report.render()
