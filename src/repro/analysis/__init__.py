"""Static analysis over mini-JVM programs.

Nine coordinated pieces, layered strictly *above* the JVM/compiler
layers (nothing in :mod:`repro.jvm` or :mod:`repro.compiler` imports
this package; the runtime hands the compiler duck-typed speculation
and deopt-planner objects only when the cost model opts in):

* :mod:`repro.analysis.verifier` -- structural well-formedness checking
  with machine-readable :class:`VerifierError` diagnostics;
* :mod:`repro.analysis.callgraph` -- whole-program static call graphs at
  CHA and RTA precision, with static frequency estimates;
* :mod:`repro.analysis.kcfa` -- context-sensitive call graphs keyed by
  k-bounded call strings (0-CFA refines RTA; each k refines k-1), with
  per-context frequency estimates;
* :mod:`repro.analysis.lattice` -- the precision-lattice report:
  per-site target-set sizes across ``CHA ⊇ RTA ⊇ 0CFA ⊇ kCFA ⊇
  observed``, context-rescued sites, and per-tier majority-prediction
  scores against the fixed-seed dynamic CCT;
* :mod:`repro.analysis.static_oracle` -- profile-free inlining policies
  driven purely by the static graphs (the baselines the paper's online
  system is measured against), flat and context-sensitive;
* :mod:`repro.analysis.dataflow` -- the intraprocedural monotone
  dataflow framework (forward and backward, over the structured
  statement tree, sharing one transfer-function registry) and its
  speculation clients: receiver preexistence, must-available guards
  for dominance-based elision, and invalidation-cone risk;
* :mod:`repro.analysis.liveness` -- backward live-variable analysis
  deriving per-statement live sets, per-loop OSR live sets, and
  per-call-site exit live sets;
* :mod:`repro.analysis.deopt` -- the guard planner, the one place that
  chooses what runs at a guarded site: it owns the run's speculation
  analysis and combines it with liveness-derived state-mapping cost and
  k-CFA context precision to pick each site's guard plan (full guard,
  preexistence, exhaustive last guard or cheap OSR exit);
* :mod:`repro.analysis.soundness` -- dynamic containment checking
  (every executed dispatch edge must lie in each tier's target set,
  context-conditioned for the k-CFA tiers), the elision-replay check
  (no elided guard may ever have failed), the OSR live-state replay
  check (static live sets must cover every local the interpreter
  reads after a transition), and static-vs-profile attribution of
  decision-diff flips.

:mod:`repro.analysis.report` bundles all of it behind the
``repro analyze`` CLI as a versioned JSON report.
"""

from repro.analysis.callgraph import (CHA, PRECISIONS, RTA, CallSite,
                                      StaticCallGraph, build_call_graph)
from repro.analysis.dataflow import (ACTION_ELIDE, ACTION_GUARD,
                                     ACTION_REFUSE, ALWAYS_PRE, NOT_PRE,
                                     TRANSFER_REGISTRY,
                                     AvailableGuardAnalysis, BackwardAnalysis,
                                     CallFacts, DataflowAnalysis,
                                     ForwardAnalysis, MethodSummary,
                                     PreexistenceAnalysis,
                                     SpeculationAnalysis, SpeculationVerdict,
                                     join_pre, static_speculation_summary)
from repro.analysis.deopt import DeoptPlanner
from repro.analysis.kcfa import (ContextSensitiveCallGraph, ContextTargets,
                                 KSite, build_kcfa_graph, extend,
                                 strings_compatible, truncate)
from repro.analysis.liveness import (LivenessAnalysis, LoopLiveness,
                                     MethodLiveness, collect_uses,
                                     method_liveness)
from repro.analysis.lattice import (LATTICE_KS, ContainmentViolation,
                                    LatticeReport, SiteLatticeRow,
                                    TierPrecisionScore, build_lattice_report,
                                    lattice_to_json, render_lattice)
from repro.analysis.report import (ANALYSIS_SCHEMA, ANALYZE_PRECISIONS,
                                   DEFAULT_PRECISIONS, analyze_benchmark,
                                   analyze_program, bundle_reports,
                                   render_analysis, render_bundle,
                                   report_ok, write_report)
from repro.analysis.soundness import (ATTR_PROFILE_DECIDED,
                                      ATTR_STATIC_DECIDED, ATTR_UNKNOWN_SITE,
                                      ElisionReport, ElisionViolation,
                                      LatticeSoundnessReport, OSRReport,
                                      OSRViolation, SoundnessReport,
                                      SoundnessViolation, attribute_flips,
                                      check_containment,
                                      check_context_containment,
                                      check_elision_soundness,
                                      check_lattice_soundness,
                                      check_osr_soundness,
                                      check_soundness,
                                      flatten_context_edges,
                                      observe_context_edges,
                                      observe_dispatch_edges,
                                      render_attribution,
                                      truncate_context_edges)
from repro.analysis.static_oracle import StaticContextOracle, StaticOracle
from repro.analysis.verifier import (VERIFIER_CODES, VerificationFailure,
                                     VerificationReport, VerifierError,
                                     verify_program)

__all__ = [
    "ACTION_ELIDE",
    "ACTION_GUARD",
    "ACTION_REFUSE",
    "ALWAYS_PRE",
    "ANALYSIS_SCHEMA",
    "ANALYZE_PRECISIONS",
    "ATTR_PROFILE_DECIDED",
    "ATTR_STATIC_DECIDED",
    "ATTR_UNKNOWN_SITE",
    "AvailableGuardAnalysis",
    "BackwardAnalysis",
    "CHA",
    "CallFacts",
    "CallSite",
    "ContainmentViolation",
    "ContextSensitiveCallGraph",
    "ContextTargets",
    "DEFAULT_PRECISIONS",
    "DataflowAnalysis",
    "DeoptPlanner",
    "ElisionReport",
    "ElisionViolation",
    "ForwardAnalysis",
    "KSite",
    "LATTICE_KS",
    "LatticeReport",
    "LatticeSoundnessReport",
    "LivenessAnalysis",
    "LoopLiveness",
    "MethodLiveness",
    "MethodSummary",
    "NOT_PRE",
    "OSRReport",
    "OSRViolation",
    "PRECISIONS",
    "PreexistenceAnalysis",
    "RTA",
    "SiteLatticeRow",
    "SoundnessReport",
    "SoundnessViolation",
    "SpeculationAnalysis",
    "SpeculationVerdict",
    "StaticCallGraph",
    "StaticContextOracle",
    "StaticOracle",
    "TRANSFER_REGISTRY",
    "TierPrecisionScore",
    "VERIFIER_CODES",
    "VerificationFailure",
    "VerificationReport",
    "VerifierError",
    "analyze_benchmark",
    "analyze_program",
    "attribute_flips",
    "build_call_graph",
    "build_kcfa_graph",
    "build_lattice_report",
    "bundle_reports",
    "check_containment",
    "check_context_containment",
    "check_elision_soundness",
    "check_lattice_soundness",
    "check_osr_soundness",
    "check_soundness",
    "collect_uses",
    "extend",
    "flatten_context_edges",
    "join_pre",
    "lattice_to_json",
    "method_liveness",
    "observe_context_edges",
    "observe_dispatch_edges",
    "render_analysis",
    "render_attribution",
    "render_bundle",
    "render_lattice",
    "report_ok",
    "static_speculation_summary",
    "strings_compatible",
    "truncate",
    "truncate_context_edges",
    "verify_program",
    "write_report",
]
