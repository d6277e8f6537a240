"""Unit tests for the program model (classes, methods, statements)."""

import pytest

from repro.jvm.errors import ProgramError
from repro.jvm.program import (Add, Arg, ClassDef, Const, If, Let, Local,
                               Loop, MethodDef, Mod, Mul, New, NewPool, Pick,
                               Program, Return, StaticCall, Sub, VirtualCall,
                               Work, body_bytecodes)


def method(name="m", klass="C", body=(), params=0, static=True, **kw):
    return MethodDef(klass, name, params, static, body, **kw)


class TestWork:
    def test_cost_recorded(self):
        assert Work(7).cost == 7

    def test_negative_cost_rejected(self):
        with pytest.raises(ProgramError):
            Work(-1)

    def test_zero_cost_allowed(self):
        assert Work(0).cost == 0


class TestBodyBytecodes:
    def test_work_counts_cost(self):
        assert body_bytecodes([Work(9)]) == 9

    def test_lets_and_news_count_one(self):
        assert body_bytecodes([Let(0, Const(1)), New(1, "C"),
                               Return(Const(0))]) == 3

    def test_calls_count_call_units(self):
        from repro.jvm.costs import CALL_UNITS
        assert body_bytecodes([StaticCall(0, "C.m")]) == CALL_UNITS
        assert body_bytecodes(
            [VirtualCall(1, "m", Arg(0))]) == CALL_UNITS

    def test_if_counts_both_branches(self):
        body = [If(Arg(0), [Work(5)], [Work(3)])]
        assert body_bytecodes(body) == 1 + 5 + 3

    def test_loop_counts_body_once(self):
        body = [Loop(Const(100), 0, [Work(5)])]
        assert body_bytecodes(body) == 2 + 5

    def test_newpool_counts_per_entry(self):
        assert body_bytecodes([NewPool(0, ("A", "B", "C"))]) == 4

    def test_nested_structures(self):
        body = [Loop(Const(2), 0, [If(Arg(0), [Work(2)], [])])]
        assert body_bytecodes(body) == 2 + 1 + 2


class TestMethodDef:
    def test_id_combines_class_and_name(self):
        assert method(name="foo", klass="Bar").id == "Bar.foo"

    def test_bytecodes_computed_from_body(self):
        m = method(body=[Work(10), Return(Const(0))])
        assert m.bytecodes == 11

    def test_explicit_bytecodes_override(self):
        m = method(body=[Work(10)], bytecodes=99)
        assert m.bytecodes == 99

    def test_declared_params_static(self):
        assert method(params=3, static=True).declared_params == 3

    def test_declared_params_instance_excludes_receiver(self):
        assert method(params=3, static=False).declared_params == 2

    def test_instance_method_with_only_this_is_parameterless(self):
        assert method(params=1, static=False).is_parameterless

    def test_static_with_params_not_parameterless(self):
        assert not method(params=1, static=True).is_parameterless

    def test_static_no_params_is_parameterless(self):
        assert method(params=0, static=True).is_parameterless


class TestClassDef:
    def test_declare_and_lookup(self):
        cls = ClassDef("C")
        m = method()
        cls.declare(m)
        assert cls.methods["m"] is m

    def test_declare_wrong_class_rejected(self):
        cls = ClassDef("D")
        with pytest.raises(ProgramError):
            cls.declare(method(klass="C"))

    def test_duplicate_method_rejected(self):
        cls = ClassDef("C")
        cls.declare(method())
        with pytest.raises(ProgramError):
            cls.declare(method())


class TestProgramValidation:
    def _program(self):
        p = Program("t")
        c = p.add_class(ClassDef("C"))
        c.declare(method(name="m", body=[Return(Const(0))]))
        return p

    def test_duplicate_class_rejected(self):
        p = self._program()
        with pytest.raises(ProgramError):
            p.add_class(ClassDef("C"))

    def test_unknown_method_lookup(self):
        p = self._program()
        with pytest.raises(ProgramError):
            p.method("C.nope")

    def test_method_lookup(self):
        p = self._program()
        assert p.method("C.m").name == "m"

    def test_entry_method(self):
        p = self._program()
        p.set_entry("C.m")
        assert p.entry_method().id == "C.m"

    def test_entry_missing(self):
        p = self._program()
        with pytest.raises(ProgramError):
            p.entry_method()

    def test_methods_deterministic_order(self):
        p = self._program()
        p.classes["C"].declare(method(name="a", body=[Return(Const(0))]))
        ids = [m.id for m in p.methods()]
        assert ids == sorted(ids)

    def test_total_bytecodes(self, diamond_program):
        total = sum(m.bytecodes for m in diamond_program.methods())
        assert diamond_program.total_bytecodes() == total


class TestExprRepr:
    """Smoke tests that node reprs stay informative (used in debugging)."""

    def test_reprs(self):
        assert "Const" in repr(Const(3))
        assert "Arg" in repr(Arg(0))
        assert "Local" in repr(Local(1))
        assert "Add" in repr(Add(Const(1), Const(2)))
        assert "Sub" in repr(Sub(Const(1), Const(2)))
        assert "Mul" in repr(Mul(Const(1), Const(2)))
        assert "Mod" in repr(Mod(Const(1), Const(2)))
        assert "Pick" in repr(Pick(Local(0), Arg(0)))
        assert "Work" in repr(Work(1))
        assert "StaticCall" in repr(StaticCall(0, "C.m"))
        assert "VirtualCall" in repr(VirtualCall(0, "m", Arg(0)))
        assert "Loop" in repr(Loop(Const(1), 0, []))
        assert "If" in repr(If(Const(1), []))
        assert "Return" in repr(Return())
        assert "New" in repr(New(0, "C"))
        assert "NewPool" in repr(NewPool(0, ("C",)))
        assert "Let" in repr(Let(0, Const(1)))
