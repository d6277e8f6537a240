"""Contract tests for the top-level public API surface."""

import inspect

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        missing = [name for name in repro.__all__
                   if not hasattr(repro, name)]
        assert missing == []

    def test_all_is_sorted_unique(self):
        assert len(set(repro.__all__)) == len(repro.__all__)
        assert repro.__all__ == sorted(repro.__all__)

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_public_classes_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert undocumented == [], \
            f"public items missing docstrings: {undocumented}"


class TestQuickstartContract:
    """The README's quickstart snippet must keep working verbatim."""

    def test_readme_quickstart(self):
        from repro import AdaptiveRuntime, make_policy
        from repro.workloads import hashmap_example

        built = hashmap_example.build(iterations=500)
        runtime = AdaptiveRuntime(built.program, make_policy("fixed", 2))
        result = runtime.run()
        assert result.opt_code_bytes >= 0
        assert result.total_cycles > 0

    def test_policy_labels_stable(self):
        # Downstream users key on these labels; renaming breaks them.
        # (Additions go at the end: "static"/"static-k" are the
        # no-profile baselines.)
        assert repro.POLICY_LABELS == (
            "cins", "fixed", "paramLess", "class", "large", "hybrid1",
            "hybrid2", "imprecision", "static", "static-k")
