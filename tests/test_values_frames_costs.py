"""Unit tests for small substrate modules: values, frames, cost model."""

import pytest

from repro.jvm.costs import CostModel, DEFAULT_COSTS
from repro.jvm.frames import Frame, physical_method
from repro.jvm.program import Const, MethodDef, Return
from repro.jvm.values import Instance, dynamic_class


class TestValues:
    def test_instance_carries_class(self):
        assert Instance("K").klass == "K"

    def test_instances_have_identity(self):
        a, b = Instance("K"), Instance("K")
        assert a is not b

    def test_dynamic_class_of_instance(self):
        assert dynamic_class(Instance("K")) == "K"

    def test_dynamic_class_of_int_rejected(self):
        with pytest.raises(TypeError):
            dynamic_class(7)


class TestFrames:
    def _method(self, name):
        return MethodDef("C", name, 0, True, [Return(Const(0))])

    def test_physical_method_skips_inlined(self):
        stack = [Frame(self._method("root"), None, False),
                 Frame(self._method("inl1"), 1, True),
                 Frame(self._method("inl2"), 2, True)]
        assert physical_method(stack).name == "root"

    def test_physical_method_top_when_not_inlined(self):
        stack = [Frame(self._method("root"), None, False),
                 Frame(self._method("callee"), 1, False)]
        assert physical_method(stack).name == "callee"

    def test_empty_stack(self):
        assert physical_method([]) is None


class TestCostModel:
    def test_one_definition_per_cost_value(self):
        # A value is either a CostModel field (or derived property) or a
        # module constant, never both.
        import dataclasses

        from repro.jvm import costs
        model_names = {f.name for f in dataclasses.fields(CostModel)} | {
            name for name, value in vars(CostModel).items()
            if isinstance(value, property)}
        mirrored = {name for name in vars(costs)
                    if not name.startswith("_")
                    and name.lower() in model_names}
        assert not mirrored
        model = CostModel()
        assert model.tiny_limit == 2 * costs.CALL_UNITS
        assert model.small_limit == 5 * costs.CALL_UNITS
        assert model.medium_limit == 25 * costs.CALL_UNITS

    def test_estimated_speedup_derived(self):
        model = CostModel(baseline_exec_mult=3.0, opt_exec_mult=1.5)
        assert model.estimated_opt_speedup == pytest.approx(2.0)

    def test_replace_is_nondestructive(self):
        model = CostModel()
        changed = model.replace(hot_edge_threshold=0.05)
        assert changed.hot_edge_threshold == 0.05
        assert model.hot_edge_threshold != 0.05
        assert changed.sample_interval == model.sample_interval

    def test_replace_rejects_unknown_field(self):
        from repro.jvm.errors import ConfigError
        model = CostModel()
        with pytest.raises(ConfigError) as excinfo:
            model.replace(guard_tset=0)
        # The error must name the typo and suggest the real field: a
        # silently-ignored override would run the baseline model and
        # corrupt any causal profile built on top of it.
        message = str(excinfo.value)
        assert "guard_tset" in message
        assert "guard_test" in message

    def test_replace_rejects_derived_property(self):
        from repro.jvm.errors import ConfigError
        with pytest.raises(ConfigError):
            CostModel().replace(estimated_opt_speedup=3.0)

    def test_replace_reports_all_unknowns(self):
        from repro.jvm.errors import ConfigError
        with pytest.raises(ConfigError) as excinfo:
            CostModel().replace(bogus_one=1, bogus_two=2)
        assert "bogus_one" in str(excinfo.value)
        assert "bogus_two" in str(excinfo.value)

    def test_replace_accepts_float_override_of_int_field(self):
        # Virtual-speedup experiments scale integer cycle costs by
        # fractional factors; the model must carry them through.
        changed = CostModel().replace(guard_test=0.5)
        assert changed.guard_test == 0.5

    def test_default_costs_singleton_sane(self):
        assert DEFAULT_COSTS.baseline_exec_mult > DEFAULT_COSTS.opt_exec_mult
        assert 0.0 < DEFAULT_COSTS.hot_edge_threshold < 1.0
        assert 0.0 < DEFAULT_COSTS.guard_coverage_min <= 1.0
        assert 0.0 < DEFAULT_COSTS.decay_rate <= 1.0
        assert DEFAULT_COSTS.tiny_limit < DEFAULT_COSTS.small_limit \
            < DEFAULT_COSTS.medium_limit
