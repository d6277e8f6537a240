"""Context-sensitivity policy protocol (paper Section 4).

A policy controls how deep the trace listener walks the call stack when it
takes a sample.  The walk that all policies share (implemented in
:class:`repro.aos.listeners.TraceListener`):

* the chain starts at the sampled callee ``m0``; edge *e* adds caller
  ``m_e`` and the call site inside it;
* edge 1 (the plain context-insensitive edge) is always recorded;
* before adding edge *e* (for e >= 2) the walk consults
  :meth:`ContextSensitivityPolicy.stop_below` on ``m_{e-2}`` -- the method
  through which any state from the new context would have to flow.  If no
  state can flow through it, deeper context is inconsequential and the walk
  stops (Parameterless / Class-Methods family);
* after adding edge *e* the walk consults :meth:`stop_at` on the caller
  just added.  The Large-Methods policy stops here: a large method is never
  inlined into its own caller, so context above it can never be used;
* the walk never exceeds :attr:`max_depth` edges.

Policies may additionally vary the depth limit per call site
(:meth:`depth_limit`); the imprecision-driven policy uses this hook.
"""

from __future__ import annotations

from repro.jvm.program import MethodDef


class ContextSensitivityPolicy:
    """Base policy: fixed-level behaviour with no early termination."""

    #: Short label used in figures (matches the paper's x-axis labels).
    label = "base"

    def __init__(self, max_depth: int):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth

    @property
    def name(self) -> str:
        return f"{self.label}(max={self.max_depth})"

    # -- the three extension hooks -------------------------------------------

    def depth_limit(self, caller_id: str, site: int) -> int:
        """Per-site depth cap; defaults to the policy-wide maximum."""
        return self.max_depth

    def stop_below(self, method: MethodDef) -> bool:
        """True when no state can flow through ``method`` from deeper context.

        Checked *before* extending the trace past this method.
        """
        return False

    def stop_at(self, caller: MethodDef) -> bool:
        """True when context above ``caller`` can never be used.

        Checked *after* adding ``caller`` to the trace.
        """
        return False

    # -- organizer feedback (imprecision policy) -------------------------------

    def observe(self, dcg) -> None:
        """Hook called by the DCG organizer after each processing epoch.

        Most policies are stateless and ignore it; the imprecision-driven
        policy uses it to adapt per-site depths.
        """

    def __repr__(self) -> str:
        return f"<policy {self.name}>"
