"""Context-sensitivity policies (paper Section 4)."""

from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.errors import ConfigError
from repro.policies.base import ContextSensitivityPolicy
from repro.policies.catalog import (ClassMethods, ContextInsensitive,
                                    FixedLevel, LargeMethods,
                                    ParameterlessClassMethods,
                                    ParameterlessLargeMethods,
                                    ParameterlessMethods,
                                    StaticContextOraclePolicy,
                                    StaticOraclePolicy)
from repro.policies.imprecision import ImprecisionDriven

#: Figure labels -> policy families, matching the paper's x-axes, plus
#: the ``static``/``static-k`` no-profile baselines (not paper figure
#: families).
POLICY_LABELS = ("cins", "fixed", "paramLess", "class", "large", "hybrid1",
                 "hybrid2", "imprecision", "static", "static-k")


def make_policy(label: str, max_depth: int = 1,
                costs: CostModel = DEFAULT_COSTS) -> ContextSensitivityPolicy:
    """Instantiate a policy by its figure label.

    ``cins`` ignores ``max_depth`` (it is depth 1 by definition); all other
    families use it as the paper's "maximum context sensitivity" knob.
    """
    if label == "cins":
        return ContextInsensitive()
    if label == "fixed":
        return FixedLevel(max_depth)
    if label == "paramLess":
        return ParameterlessMethods(max_depth)
    if label == "class":
        return ClassMethods(max_depth)
    if label == "large":
        return LargeMethods(max_depth, costs)
    if label == "hybrid1":
        return ParameterlessClassMethods(max_depth)
    if label == "hybrid2":
        return ParameterlessLargeMethods(max_depth, costs)
    if label == "imprecision":
        return ImprecisionDriven(max_depth)
    if label == "static":
        # Depth-1 by construction (the profile is gathered but unused).
        return StaticOraclePolicy(costs=costs)
    if label == "static-k":
        # ``max_depth`` plays the role of k: the sweep's depth axis
        # becomes the call-string length of the k-CFA graph.
        return StaticContextOraclePolicy(k=max_depth, costs=costs)
    raise ConfigError(f"unknown policy label {label!r}; "
                      f"expected one of {POLICY_LABELS}")


__all__ = [
    "ClassMethods", "ContextInsensitive", "ContextSensitivityPolicy",
    "FixedLevel", "ImprecisionDriven", "LargeMethods", "POLICY_LABELS",
    "ParameterlessClassMethods", "ParameterlessLargeMethods",
    "ParameterlessMethods", "StaticContextOraclePolicy",
    "StaticOraclePolicy", "make_policy",
]
