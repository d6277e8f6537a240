"""The causal experiment grid: cells, fingerprints, runs, and resume."""

import pytest

from repro.causal.engine import (BASELINE, CausalConfig, causal_fingerprint,
                                 run_causal)
from repro.experiments.cell_cache import CellCache
from repro.experiments.runner import run_single
from repro.jvm.errors import ConfigError

#: One tiny grid shared by the expensive tests (module-scoped fixture).
TINY = CausalConfig(benchmarks=("jess",), families=("cins",),
                    components=("compile",), factors=(1.0,),
                    seeds=2, scale=0.04, jobs=1)


@pytest.fixture(scope="module")
def tiny_results():
    return run_causal(TINY)


class TestConfig:
    def test_cells_cover_baselines_and_experiments(self):
        cells = TINY.cells()
        # 2 baseline seeds + 1 component x 1 factor x 2 seeds; keys sort,
        # as the bundle lists failures in key order.
        assert cells == sorted(cells) == [
            ("jess", "cins", BASELINE, 0.0, 0),
            ("jess", "cins", BASELINE, 0.0, 1),
            ("jess", "cins", "compile", 1.0, 0),
            ("jess", "cins", "compile", 1.0, 1)]

    def test_unknown_component_rejected(self):
        config = CausalConfig(components=("compiler",))
        with pytest.raises(ConfigError):
            config.validate()

    def test_bad_factor_rejected(self):
        config = CausalConfig(factors=(0.0,))
        with pytest.raises(ConfigError):
            config.validate()

    def test_defaults_are_valid(self):
        CausalConfig().validate()


class TestFingerprints:
    def test_distinct_per_axis(self):
        base = causal_fingerprint("jess", "cins", 2, "guard", 0.5, 0,
                                  0.0, 1.0)
        assert base != causal_fingerprint("jess", "cins", 2, "guard", 0.5,
                                          1, 0.0, 1.0)  # seed
        assert base != causal_fingerprint("jess", "cins", 2, "guard",
                                          0.25, 0, 0.0, 1.0)  # factor
        assert base != causal_fingerprint("jess", "cins", 2, "compile",
                                          0.5, 0, 0.0, 1.0)  # component
        assert base != causal_fingerprint("jess", "cins", 2, None, 0.0, 0,
                                          0.0, 1.0)  # baseline
        assert base == causal_fingerprint("jess", "cins", 2, "guard", 0.5,
                                          0, 0.0, 1.0)  # deterministic


class TestRunCausal:
    def test_grid_completes_with_progress_points(self, tiny_results):
        assert len(tiny_results.cells) == 4
        assert not tiny_results.failures
        for result in tiny_results.cells.values():
            assert result.progress_points is not None

    def test_baseline_cell_matches_plain_run(self, tiny_results):
        base = tiny_results.baseline("jess", "cins", 0)
        plain = run_single("jess", "cins", TINY.depth, phase=TINY.phase,
                           scale=TINY.scale)
        assert base.total_cycles == plain.total_cycles

    def test_speedup_makes_experiment_faster(self, tiny_results):
        # A free compiler must not make the run slower.
        for seed in range(TINY.seeds):
            base = tiny_results.baseline("jess", "cins", seed)
            exp = tiny_results.experiment("jess", "cins", "compile", 1.0,
                                          seed)
            assert exp.total_cycles < base.total_cycles

    def test_seeds_differ(self, tiny_results):
        first = tiny_results.baseline("jess", "cins", 0)
        second = tiny_results.baseline("jess", "cins", 1)
        assert first.total_cycles != second.total_cycles

    def test_pairs_returns_all_seeds(self, tiny_results):
        pairs = tiny_results.pairs("jess", "cins", "compile", 1.0)
        assert [seed for seed, _b, _e in pairs] == [0, 1]


class TestCacheResume:
    def test_resume_serves_identical_results(self, tiny_results, tmp_path):
        cache = CellCache(str(tmp_path))
        fresh = run_causal(TINY, cache=cache)
        assert set(fresh.cells) == set(tiny_results.cells)

        resumed = run_causal(TINY, cache=cache)
        for key, result in resumed.cells.items():
            assert result.total_cycles == fresh.cells[key].total_cycles
            assert result.progress_points == fresh.cells[key].progress_points

    def test_cached_cell_without_progress_points_reruns(self, tmp_path):
        from repro.causal.engine import config_fingerprint
        import dataclasses

        cache = CellCache(str(tmp_path))
        first = run_causal(TINY, cache=cache)
        key = ("jess", "cins", BASELINE, 0.0, 0)
        # Poison one cached cell as if written by a non-causal run.
        stripped = dataclasses.replace(first.cells[key],
                                       progress_points=None)
        cache.store(config_fingerprint(TINY, key), key, stripped)

        resumed = run_causal(TINY, cache=cache)
        assert resumed.cells[key].progress_points is not None
