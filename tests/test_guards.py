"""Unit tests for guard synthesis helpers."""

from repro.compiler.guards import (accept_cache_info, classes_for_target,
                                   clear_accept_cache)
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import ClassDef, Const, MethodDef, Program, Return


def _program():
    p = Program("g")
    p.add_class(ClassDef("Base"))
    p.add_class(ClassDef("Mid", superclass="Base"))
    p.add_class(ClassDef("Leaf", superclass="Mid"))

    def declare(klass, name):
        method = MethodDef(klass, name, 1, False, [Return(Const(0))])
        p.classes[klass].declare(method)
        return method

    base_ping = declare("Base", "ping")
    mid_ping = declare("Mid", "ping")
    return p, base_ping, mid_ping


class TestClassesForTarget:
    def test_acceptance_sets_partition_hierarchy(self):
        program, base_ping, mid_ping = _program()
        hierarchy = ClassHierarchy(program)
        base_accepts = classes_for_target(hierarchy, "ping", base_ping)
        mid_accepts = classes_for_target(hierarchy, "ping", mid_ping)
        assert base_accepts == {"Base"}
        assert mid_accepts == {"Mid", "Leaf"}
        assert base_accepts.isdisjoint(mid_accepts)


class TestAcceptanceSetMemoization:
    def test_second_lookup_hits_cache(self):
        program, base_ping, _mid = _program()
        hierarchy = ClassHierarchy(program)
        clear_accept_cache()
        first = classes_for_target(hierarchy, "ping", base_ping)
        info = accept_cache_info()
        assert info == {"hits": 0, "misses": 1, "size": 1}
        second = classes_for_target(hierarchy, "ping", base_ping)
        assert second == first
        assert accept_cache_info()["hits"] == 1

    def test_cached_set_is_a_private_copy(self):
        program, base_ping, _mid = _program()
        hierarchy = ClassHierarchy(program)
        clear_accept_cache()
        classes_for_target(hierarchy, "ping", base_ping).add("Poison")
        assert classes_for_target(hierarchy, "ping", base_ping) == {"Base"}

    def test_class_load_invalidates_via_generation(self):
        program, base_ping, _mid = _program()
        hierarchy = ClassHierarchy(program)
        clear_accept_cache()
        classes_for_target(hierarchy, "ping", base_ping)
        hierarchy.mark_loaded("Leaf")  # bumps the load generation
        classes_for_target(hierarchy, "ping", base_ping)
        info = accept_cache_info()
        assert info["misses"] == 2 and info["hits"] == 0
