"""Causal profiling for the adaptive optimization system.

Coz-style what-if experiments (arXiv:1608.03676) over the simulation's
cost model: each experiment makes one AOS component *virtually faster*
by scaling its :class:`~repro.jvm.costs.CostModel` fields, re-runs the
fixed-seed benchmark, and measures the change in progress-point
throughput (:mod:`repro.telemetry.progress`).  The report ranks
components by how much end-to-end progress their speedup would actually
buy -- which is not the same as how much time they account for.

* :mod:`~repro.causal.components` -- the registry of virtually-speedable
  components and their cost-field/accounting mappings;
* :mod:`~repro.causal.engine` -- the multi-seed experiment grid, run
  through the sweep harness's cell loop and per-cell cache;
* :mod:`~repro.causal.report` -- confidence intervals, rankings, and the
  versioned ``repro.causal/v1`` bundle.
"""

from repro.causal.components import (CAUSAL_COMPONENTS, CausalComponent,
                                     accounted_share, apply_virtual_speedup,
                                     component_names, get_component)
from repro.causal.engine import (BASELINE, DEFAULT_FACTORS, CausalConfig,
                                 CausalResults, causal_fingerprint,
                                 run_causal)
from repro.causal.report import (CAUSAL_SCHEMA, NOISY_RCIW,
                                 build_causal_bundle, cell_stats,
                                 component_curve, render_causal_bundle,
                                 validate_causal_bundle,
                                 write_causal_bundle)

__all__ = [
    "BASELINE", "CAUSAL_COMPONENTS", "CAUSAL_SCHEMA", "CausalComponent",
    "CausalConfig", "CausalResults", "DEFAULT_FACTORS", "NOISY_RCIW",
    "accounted_share", "apply_virtual_speedup", "build_causal_bundle",
    "causal_fingerprint", "cell_stats", "component_curve",
    "component_names", "get_component", "render_causal_bundle", "run_causal",
    "validate_causal_bundle", "write_causal_bundle",
]
