"""Unit tests for class hierarchy analysis."""

import pytest

from repro.jvm.errors import ExecutionError, ProgramError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import ClassDef, Const, MethodDef, Program, Return


def _program():
    p = Program("h")
    p.add_class(ClassDef("Base"))
    p.add_class(ClassDef("Mid", superclass="Base"))
    p.add_class(ClassDef("Leaf", superclass="Mid"))
    p.add_class(ClassDef("Other"))

    def declare(klass, name):
        p.classes[klass].declare(
            MethodDef(klass, name, 1, False, [Return(Const(0))]))

    declare("Base", "ping")
    declare("Mid", "ping")        # overrides Base.ping
    declare("Base", "solo")       # single implementation program-wide
    declare("Other", "ping")      # unrelated implementation
    return p


@pytest.fixture
def hierarchy():
    return ClassHierarchy(_program())


class TestResolve:
    def test_resolves_own_method(self, hierarchy):
        assert hierarchy.resolve("Base", "ping").klass == "Base"

    def test_resolves_override(self, hierarchy):
        assert hierarchy.resolve("Mid", "ping").klass == "Mid"

    def test_walks_superclass_chain(self, hierarchy):
        # Leaf has no ping; inherits Mid's override.
        assert hierarchy.resolve("Leaf", "ping").klass == "Mid"

    def test_inherited_from_root(self, hierarchy):
        assert hierarchy.resolve("Leaf", "solo").klass == "Base"

    def test_unknown_class(self, hierarchy):
        with pytest.raises(ExecutionError):
            hierarchy.resolve("Ghost", "ping")

    def test_missing_selector(self, hierarchy):
        with pytest.raises(ExecutionError):
            hierarchy.resolve("Other", "solo")

    def test_resolution_cached_identity(self, hierarchy):
        first = hierarchy.resolve("Leaf", "ping")
        assert hierarchy.resolve("Leaf", "ping") is first


class TestCHA:
    def test_sole_implementation_found(self, hierarchy):
        assert hierarchy.sole_implementation("solo").klass == "Base"

    def test_multiple_implementations_not_bound(self, hierarchy):
        assert hierarchy.sole_implementation("ping") is None

    def test_unknown_selector(self, hierarchy):
        assert hierarchy.sole_implementation("ghost") is None

    def test_implementations_lists_all(self, hierarchy):
        impls = hierarchy.implementations("ping")
        assert sorted(m.klass for m in impls) == ["Base", "Mid", "Other"]


class TestSubclasses:
    def test_reflexive(self, hierarchy):
        assert "Base" in hierarchy.subclasses("Base")

    def test_transitive(self, hierarchy):
        assert hierarchy.subclasses("Base") == {"Base", "Mid", "Leaf"}

    def test_leaf_only_itself(self, hierarchy):
        assert hierarchy.subclasses("Leaf") == {"Leaf"}

    def test_unknown_class_raises(self, hierarchy):
        with pytest.raises(ProgramError):
            hierarchy.subclasses("Ghost")


class TestLoadedTargets:
    def test_no_loaded_classes_no_targets(self, hierarchy):
        assert hierarchy.loaded_count == 0
        assert hierarchy.loaded_targets("ping") == frozenset()
        assert hierarchy.sole_loaded_target("ping") is None

    def test_resolution_through_multi_level_chain(self, hierarchy):
        # Leaf defines neither ping nor solo; loading it must surface the
        # inherited implementations, walking two superclass links for solo.
        hierarchy.mark_loaded("Leaf")
        assert hierarchy.loaded_targets("ping") == {"Mid.ping"}
        assert hierarchy.loaded_targets("solo") == {"Base.solo"}
        assert hierarchy.sole_loaded_target("ping").id == "Mid.ping"

    def test_mark_loaded_invalidates_target_cache(self, hierarchy):
        hierarchy.mark_loaded("Mid")
        assert hierarchy.loaded_targets("ping") == {"Mid.ping"}
        # A second load must not serve the now-stale cached answer.
        assert hierarchy.mark_loaded("Other")
        assert hierarchy.loaded_targets("ping") == {"Mid.ping", "Other.ping"}
        assert hierarchy.sole_loaded_target("ping") is None

    def test_reload_is_a_noop(self, hierarchy):
        assert hierarchy.mark_loaded("Mid")
        assert not hierarchy.mark_loaded("Mid")
        assert hierarchy.loaded_count == 1

    def test_loading_unknown_class_raises(self, hierarchy):
        with pytest.raises(ProgramError):
            hierarchy.mark_loaded("Ghost")

    def test_selector_not_understood_is_skipped(self, hierarchy):
        hierarchy.mark_loaded("Other")
        assert hierarchy.loaded_targets("solo") == frozenset()

