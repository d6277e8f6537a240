"""The code cache: which compiled code exists for each method.

Tracks baseline-compiled methods (compiled lazily at first invocation, as
in Jikes RVM's FastAdaptive configurations) and the current optimized
version of each recompiled method.  Also accumulates the metrics the
paper's evaluation reports:

* ``opt_code_bytes`` -- cumulative bytes of optimized machine code emitted
  (Figure 5; old versions are not reclaimed in Jikes RVM 2.1.1, so the
  cumulative measure is the faithful one),
* ``opt_compile_cycles`` -- cumulative optimizing-compilation time,
* Table 1's "methods / bytecodes dynamically compiled" counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.compiler.compiled_method import CompiledMethod
from repro.jvm.costs import BASELINE_BYTES_PER_BC, CostModel
from repro.jvm.program import MethodDef


class CodeCache:
    """Registry of compiled code plus compilation metrics."""

    def __init__(self, costs: CostModel):
        self._costs = costs
        self._baseline: Set[str] = set()
        #: The installed optimized code: method id -> its latest
        #: :class:`CompiledMethod`.  Read it directly; only
        #: :meth:`install` and :meth:`invalidate` change it.
        self.installed: Dict[str, CompiledMethod] = {}
        self._versions: Dict[str, int] = {}

        self.baseline_compiled_methods = 0
        self.baseline_compiled_bytecodes = 0
        self.baseline_code_bytes = 0
        self.opt_compilations = 0
        self.invalidated_compilations = 0
        self.opt_code_bytes = 0
        self.opt_compile_cycles = 0.0
        self.opt_inlined_bytecodes = 0

    # -- baseline tier -----------------------------------------------------

    def has_baseline(self, method_id: str) -> bool:
        return method_id in self._baseline

    def compile_baseline(self, method: MethodDef) -> float:
        """Record a baseline compilation; returns the cycles it cost."""
        if method.id in self._baseline:
            return 0.0
        self._baseline.add(method.id)
        cycles = method.bytecodes * self._costs.baseline_compile_cycles_per_bc
        self.baseline_compiled_methods += 1
        self.baseline_compiled_bytecodes += method.bytecodes
        self.baseline_code_bytes += method.bytecodes * BASELINE_BYTES_PER_BC
        return float(cycles)

    # -- optimizing tier ---------------------------------------------------

    def next_version(self, method_id: str) -> int:
        return self._versions.get(method_id, 0) + 1

    def install(self, compiled: CompiledMethod) -> Optional[CompiledMethod]:
        """Install new optimized code; return the version it replaced.

        The replaced version stops receiving new invocations: an eviction
        in the live-code-space sense (cumulative ``opt_code_bytes`` still
        counts it, faithfully to Jikes RVM 2.1.1's non-reclaiming code
        space).
        """
        method_id = compiled.method.id
        replaced = self.installed.get(method_id)
        self.installed[method_id] = compiled
        self._versions[method_id] = compiled.version
        self.opt_compilations += 1
        self.opt_code_bytes += compiled.code_bytes
        self.opt_compile_cycles += compiled.compile_cycles
        self.opt_inlined_bytecodes += compiled.inlined_bytecodes
        return replaced

    def opt_methods(self) -> List[CompiledMethod]:
        """Currently installed optimized methods (latest versions only)."""
        return list(self.installed.values())

    def invalidate(self, method_id: str) -> Optional[CompiledMethod]:
        """Discard installed optimized code (CHA dependency broken);
        return it, or ``None`` when none is installed.

        Future invocations fall back to baseline code until the adaptive
        system recompiles; the version counter keeps advancing so the
        recompile is observably a new version.  In-flight activations keep
        running the old inline tree -- which is exactly what pre-existence
        licenses (their receivers predate the class that just loaded).
        """
        removed = self.installed.pop(method_id, None)
        if removed is None:
            return None
        self.invalidated_compilations += 1
        return removed

    def live_opt_code_bytes(self) -> int:
        """Bytes of the latest versions only (alternative code-space view)."""
        return sum(cm.code_bytes for cm in self.installed.values())

    # -- Table 1 metrics ---------------------------------------------------

    @property
    def dynamically_compiled_methods(self) -> int:
        """Methods compiled at least once (Table 1's 'Methods' column)."""
        return self.baseline_compiled_methods

    @property
    def dynamically_compiled_bytecodes(self) -> int:
        """Bytecodes of dynamically compiled methods (Table 1)."""
        return self.baseline_compiled_bytecodes
