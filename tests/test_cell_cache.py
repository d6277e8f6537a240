"""Tests for the content-addressed per-cell sweep cache and its keys."""

import json
import os

import pytest

from repro.experiments import config
from repro.experiments.cell_cache import (CellCache, cell_cache_root,
                                          result_from_dict, result_to_dict)
from repro.experiments.config import (SweepConfig, cell_fingerprint,
                                      cost_model_fingerprint)
from repro.experiments.runner import run_single
from repro.jvm.costs import DEFAULT_COSTS


@pytest.fixture(scope="module")
def result():
    return run_single("jess", "cins", 1, scale=0.05)


class TestFingerprint:
    def test_deterministic(self):
        a = cell_fingerprint("jess", "fixed", 2, (0.0, 0.5), 0.5)
        b = cell_fingerprint("jess", "fixed", 2, (0.0, 0.5), 0.5)
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_sensitive_to_every_result_defining_input(self, monkeypatch):
        base = cell_fingerprint("jess", "fixed", 2, (0.0, 0.5), 0.5)
        assert cell_fingerprint("db", "fixed", 2, (0.0, 0.5), 0.5) != base
        assert cell_fingerprint("jess", "class", 2, (0.0, 0.5), 0.5) != base
        assert cell_fingerprint("jess", "fixed", 3, (0.0, 0.5), 0.5) != base
        assert cell_fingerprint("jess", "fixed", 2, (0.0,), 0.5) != base
        assert cell_fingerprint("jess", "fixed", 2, (0.0, 0.5), 0.25) != base
        tweaked = DEFAULT_COSTS.replace(guard_test=DEFAULT_COSTS.guard_test + 1)
        assert cell_fingerprint("jess", "fixed", 2, (0.0, 0.5), 0.5,
                                costs=tweaked) != base
        # A cell-format change bumps the version: old entries stop matching.
        monkeypatch.setattr(config, "FINGERPRINT_VERSION",
                            config.FINGERPRINT_VERSION + 1)
        assert cell_fingerprint("jess", "fixed", 2, (0.0, 0.5), 0.5) != base

    def test_execution_knobs_do_not_enter_the_fingerprint(self):
        # jobs / cell_timeout change how a sweep runs, not what a cell
        # computes: configs differing only there share cell fingerprints.
        a = SweepConfig(phases=(0.0,), scale=0.5, jobs=1)
        b = SweepConfig(phases=(0.0,), scale=0.5, jobs=8, cell_timeout=60.0)
        assert a.cell_fingerprint("jess", "fixed", 2) == \
            b.cell_fingerprint("jess", "fixed", 2)

    def test_cost_model_fingerprint_covers_all_fields(self):
        base = cost_model_fingerprint(DEFAULT_COSTS)
        tweaked = DEFAULT_COSTS.replace(decay_rate=DEFAULT_COSTS.decay_rate / 2)
        assert cost_model_fingerprint(tweaked) != base


class TestResultCodec:
    def test_round_trip(self, result):
        loaded = result_from_dict(result_to_dict(result))
        assert loaded == result

    def test_round_trip_through_json(self, result):
        # The on-disk path: histogram keys become strings in JSON and
        # must come back as ints.
        loaded = result_from_dict(
            json.loads(json.dumps(result_to_dict(result))))
        assert loaded == result
        assert all(isinstance(k, int) for k in loaded.depth_histogram)


class TestCellCache:
    KEY = ("jess", "cins", 1)
    FP = "ab" * 32

    def test_store_then_load(self, tmp_path, result):
        cache = CellCache(str(tmp_path / "cells"))
        assert not cache.has(self.FP)
        assert cache.load(self.FP) is None
        path = cache.store(self.FP, self.KEY, result)
        assert cache.has(self.FP)
        assert os.path.exists(path)
        assert cache.load(self.FP) == result

    def test_corrupt_entry_warns_and_misses(self, tmp_path, result):
        cache = CellCache(str(tmp_path / "cells"))
        path = cache.store(self.FP, self.KEY, result)
        with open(path, "w") as handle:
            handle.write("{truncated")
        with pytest.warns(RuntimeWarning, match="rerunning that cell"):
            assert cache.load(self.FP) is None

    def test_entry_with_a_removed_field_warns_and_misses(self, tmp_path,
                                                         result):
        # A cell written while RunResult still had a field it has since
        # lost cannot be rebuilt; it costs one rerun, never the sweep.
        cache = CellCache(str(tmp_path / "cells"))
        path = cache.store(self.FP, self.KEY, result)
        with open(path) as handle:
            payload = json.load(handle)
        payload["result"]["warm_started"] = False
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.warns(RuntimeWarning, match="TypeError"):
            assert cache.load(self.FP) is None

    def test_renamed_entry_rejected(self, tmp_path, result):
        # An entry copied to a different fingerprint's slot (or a cache
        # dir edited by hand) must not satisfy the wrong cell.
        cache = CellCache(str(tmp_path / "cells"))
        path = cache.store(self.FP, self.KEY, result)
        other = "cd" * 32
        os.rename(path, cache.path_for(other))
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert cache.load(other) is None

    def test_store_leaves_no_temp_files(self, tmp_path, result):
        cache = CellCache(str(tmp_path / "cells"))
        cache.store(self.FP, self.KEY, result)
        assert [p for p in os.listdir(cache.root)
                if p.endswith(".tmp")] == []

    def test_load_many_returns_only_hits(self, tmp_path, result):
        cache = CellCache(str(tmp_path / "cells"))
        cache.store(self.FP, self.KEY, result)
        wanted = {self.KEY: self.FP, ("db", "cins", 1): "ef" * 32}
        assert cache.load_many(wanted) == {self.KEY: result}


class TestCacheRoot:
    def test_json_suffix_swapped_for_cells(self):
        assert cell_cache_root("sweep.json") == "sweep.cells"
        assert cell_cache_root("benchmarks/.sweep_cache.json") == \
            "benchmarks/.sweep_cache.cells"

    def test_other_paths_get_suffix_appended(self):
        assert cell_cache_root("results/sweep") == "results/sweep.cells"
