"""Unit tests for class hierarchy analysis."""

import os
import subprocess
import sys

import pytest

from repro.analysis.callgraph import build_call_graph
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



#: Hands a program whose classes ``A`` and ``B`` extend each other to the
#: entry point named by ``argv[1]`` and prints the error it raises.
_CYCLE_SCRIPT = """
import sys
from repro.analysis.callgraph import build_call_graph
from repro.jvm.errors import ProgramError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.program import ClassDef, Const, MethodDef, Program, Return

program = Program("cycle")
program.add_class(ClassDef("Main"))
program.add_class(ClassDef("A", superclass="B"))
program.add_class(ClassDef("B", superclass="A"))
program.classes["Main"].declare(
    MethodDef("Main", "main", 0, True, [Return(Const(0))]))
program.set_entry("Main.main")
entry = {"hierarchy": ClassHierarchy, "callgraph": build_call_graph}
try:
    entry[sys.argv[1]](program)
except ProgramError as exc:
    print(exc)
"""


class TestMalformedHierarchy:
    """Callers that build a hierarchy without verifying first get a
    ``ProgramError``, not a hang or a bare ``KeyError``."""

    @pytest.mark.parametrize("entry", ["hierarchy", "callgraph"])
    def test_inheritance_cycle_raises(self, entry):
        # A child process bounds the walk, so a regression fails on the
        # timeout instead of hanging the suite.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-c", _CYCLE_SCRIPT, entry],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "inheritance cycle through" in done.stdout

    @pytest.mark.parametrize("entry", [ClassHierarchy, build_call_graph])
    def test_unknown_superclass_raises(self, entry):
        program = _program()
        program.add_class(ClassDef("Orphan", superclass="Ghost"))
        with pytest.raises(ProgramError,
                           match="Orphan extends unknown class 'Ghost'"):
            entry(program)
