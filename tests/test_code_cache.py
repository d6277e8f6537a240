"""Unit tests for code-cache metrics and invalidation bookkeeping."""

import pytest

from repro.compiler.code_cache import CodeCache
from repro.compiler.compiled_method import CompiledMethod, InlineNode
from repro.jvm.costs import BASELINE_BYTES_PER_BC, CostModel
from repro.jvm.program import Const, MethodDef, Return, Work


def method(name, work=30):
    return MethodDef("C", name, 0, True, [Work(work), Return(Const(0))])


def compiled(m, version=1):
    return CompiledMethod(InlineNode(m, 0), m.bytecodes, m.bytecodes * 6,
                          m.bytecodes * 14, version)


@pytest.fixture
def cache():
    return CodeCache(CostModel())


class TestBaselineTier:
    def test_compile_baseline_once(self, cache):
        m = method("m")
        cycles = cache.compile_baseline(m)
        assert cycles > 0
        assert cache.has_baseline("C.m")
        assert cache.compile_baseline(m) == 0.0  # idempotent
        assert cache.baseline_compiled_methods == 1

    def test_table1_metrics(self, cache):
        a, b = method("a", 10), method("b", 20)
        cache.compile_baseline(a)
        cache.compile_baseline(b)
        assert cache.dynamically_compiled_methods == 2
        assert cache.dynamically_compiled_bytecodes == \
            a.bytecodes + b.bytecodes

    def test_baseline_code_bytes(self, cache):
        m = method("m")
        cache.compile_baseline(m)
        assert cache.baseline_code_bytes == m.bytecodes * BASELINE_BYTES_PER_BC


class TestInvalidation:
    def test_invalidate_removes_live_code(self, cache):
        m = method("m")
        cm = compiled(m)
        cache.install(cm)
        assert cache.invalidate("C.m")
        assert "C.m" not in cache.installed
        assert cache.invalidated_compilations == 1

    def test_invalidate_missing_is_noop(self, cache):
        assert not cache.invalidate("C.ghost")
        assert cache.invalidated_compilations == 0

    def test_version_counter_survives_invalidation(self, cache):
        m = method("m")
        cache.install(compiled(m, version=1))
        cache.invalidate("C.m")
        # The next compile is observably a *new* version.
        assert cache.next_version("C.m") == 2

    def test_cumulative_metrics_keep_invalidated_code(self, cache):
        m = method("m")
        cm = compiled(m)
        cache.install(cm)
        cache.invalidate("C.m")
        assert cache.opt_code_bytes == cm.code_bytes
        assert cache.live_opt_code_bytes() == 0
