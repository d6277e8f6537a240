"""Adaptive online context-sensitive inlining -- a full reproduction.

Reproduces Hazelwood & Grove, *Adaptive Online Context-Sensitive Inlining*
(CGO 2003) on a simulated JVM adaptive optimization system.  See DESIGN.md
for the system inventory and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import AdaptiveRuntime, make_policy
    from repro.workloads import hashmap_example

    built = hashmap_example.build()
    runtime = AdaptiveRuntime(built.program, make_policy("fixed", 2))
    result = runtime.run()
    print(result.opt_code_bytes, result.total_cycles)

The imports below are ordered bottom-up (errors/values -> program model ->
profiles -> compiler -> policies -> interpreter -> AOS) so the module
graph stays acyclic.
"""

# -- mini-JVM substrate -------------------------------------------------------
from repro.jvm.errors import (CompilationError, ConfigError, ExecutionError,
                              ProgramError, ReproError)
from repro.jvm.values import Instance, Value, dynamic_class
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.program import (Add, Arg, ClassDef, Const, Expr, If, Let,
                               Local, Loop, MethodDef, Mod, Mul, New,
                               NewPool, Pick, Program, Return, StaticCall,
                               Stmt, Sub, VirtualCall, Work, body_bytecodes)
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.frames import Frame, physical_method

# -- profiles -------------------------------------------------------------------
from repro.profiles.trace import (Context, InlineRule, TraceKey, format_trace,
                                  make_context)
from repro.profiles.partial_match import (applicable_rules, candidate_targets,
                                          contexts_compatible,
                                          ordered_candidates)
from repro.profiles.dcg import DynamicCallGraph

# -- compiler ---------------------------------------------------------------------
from repro.compiler.size_estimator import (SizeClass, classify,
                                           estimate_inlined_bytecodes,
                                           is_large)
from repro.compiler.compiled_method import (CompiledMethod, GuardOption,
                                            InlineDecision, InlineNode)
from repro.compiler.code_cache import CodeCache
from repro.compiler.oracle import Decision, InlineOracle
from repro.compiler.opt_compiler import OptCompiler, iter_call_sites

# -- policies ----------------------------------------------------------------------
from repro.policies import (ClassMethods, ContextInsensitive,
                            ContextSensitivityPolicy, FixedLevel,
                            ImprecisionDriven, LargeMethods, POLICY_LABELS,
                            ParameterlessClassMethods,
                            ParameterlessLargeMethods, ParameterlessMethods,
                            StaticOraclePolicy, make_policy)

# -- execution engine ---------------------------------------------------------------
from repro.jvm.interpreter import Machine, MachineStats

# -- adaptive optimization system ------------------------------------------------------
from repro.aos.cost_accounting import (AOS_COMPONENTS, ALL_COMPONENTS, APP,
                                       CostAccounting)
from repro.aos.database import AOSDatabase
from repro.aos.listeners import (MethodListener, TerminationStatsProbe,
                                 TraceListener)
from repro.aos.runtime import AdaptiveRuntime, RunResult

# -- telemetry -------------------------------------------------------------------------
from repro.telemetry import (ProgressTracker, TelemetryRecorder,
                             TelemetrySnapshot, to_chrome_trace)

# -- decision provenance -----------------------------------------------------------------
from repro.provenance import (DecisionRecord, EventKind, ProvenanceRecorder,
                              ReasonCode, diff_logs, explain_method,
                              read_decision_log, render_diff)

# -- causal profiling --------------------------------------------------------------------
from repro.causal import (CausalConfig, CausalResults,
                          apply_virtual_speedup, build_causal_bundle,
                          render_causal_bundle, run_causal)

# -- static analysis ---------------------------------------------------------------------
from repro.analysis import (SoundnessReport, StaticCallGraph, StaticOracle,
                            VerificationReport, VerifierError,
                            analyze_program, attribute_flips,
                            build_call_graph, check_tiers, verify_program)

__version__ = "1.0.0"

__all__ = [
    "ALL_COMPONENTS", "AOSDatabase", "AOS_COMPONENTS", "APP",
    "AdaptiveRuntime", "Add", "Arg", "CausalConfig", "CausalResults",
    "ClassDef", "ClassHierarchy",
    "ClassMethods", "CodeCache", "CompilationError", "CompiledMethod",
    "ConfigError", "Const", "Context", "ContextInsensitive",
    "ContextSensitivityPolicy", "CostAccounting", "CostModel", "DEFAULT_COSTS",
    "Decision", "DecisionRecord", "DynamicCallGraph", "EventKind",
    "ExecutionError", "Expr", "FixedLevel", "Frame", "GuardOption", "If",
    "ImprecisionDriven", "InlineDecision", "InlineNode", "InlineOracle",
    "InlineRule", "Instance", "LargeMethods", "Let", "Local",
    "Loop", "Machine", "MachineStats", "MethodDef", "MethodListener", "Mod",
    "Mul", "New", "NewPool", "OptCompiler", "POLICY_LABELS",
    "ParameterlessClassMethods", "ParameterlessLargeMethods",
    "ParameterlessMethods", "Pick", "Program", "ProgramError",
    "ProgressTracker", "ProvenanceRecorder", "ReasonCode", "ReproError",
    "Return", "RunResult", "SizeClass", "SoundnessReport", "StaticCall",
    "StaticCallGraph", "StaticOracle", "StaticOraclePolicy", "Stmt", "Sub",
    "TelemetryRecorder", "TelemetrySnapshot", "TerminationStatsProbe",
    "TraceKey", "TraceListener", "Value", "VerificationReport",
    "VerifierError", "VirtualCall", "Work", "analyze_program",
    "applicable_rules", "apply_virtual_speedup", "attribute_flips",
    "body_bytecodes", "build_call_graph", "build_causal_bundle",
    "candidate_targets", "check_tiers", "classify", "contexts_compatible",
    "diff_logs", "dynamic_class", "estimate_inlined_bytecodes",
    "explain_method", "format_trace", "is_large", "iter_call_sites",
    "make_context", "make_policy", "ordered_candidates", "physical_method",
    "read_decision_log", "render_causal_bundle", "render_diff", "run_causal",
    "to_chrome_trace", "verify_program",
]
