"""Additional unit tests for the figure formatters' internals."""

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.figures import HARMEAN, _metric_matrix
from repro.experiments.runner import SweepResults, run_cell


@pytest.fixture(scope="module")
def two_cell_results():
    config = SweepConfig(benchmarks=("jess",), families=("fixed",),
                         depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
    cells = {}
    cells[("jess", "cins", 1)], _ = run_cell("jess", "cins", 1, (0.0,), 0.05)
    cells[("jess", "fixed", 2)], _ = run_cell("jess", "fixed", 2, (0.0,),
                                              0.05)
    return SweepResults(config=config, cells=cells)


class TestMetricMatrix:
    def test_matrix_has_harmean_row(self, two_cell_results):
        matrix = _metric_matrix(two_cell_results, "fixed",
                                two_cell_results.speedup_percent)
        assert HARMEAN in matrix
        assert set(matrix["jess"]) == {2}

    def test_single_benchmark_harmean_equals_value(self, two_cell_results):
        matrix = _metric_matrix(two_cell_results, "fixed",
                                two_cell_results.speedup_percent)
        assert matrix[HARMEAN][2] == pytest.approx(matrix["jess"][2],
                                                   abs=1e-9)


class TestRelativeMetricEdgeCases:
    def test_zero_baseline_code_returns_zero(self, two_cell_results):
        # Force a pathological baseline with zero code bytes.
        baseline = two_cell_results.baseline("jess")
        saved = baseline.live_opt_code_bytes
        baseline.live_opt_code_bytes = 0
        try:
            assert two_cell_results.code_size_percent(
                "jess", "fixed", 2) == 0.0
        finally:
            baseline.live_opt_code_bytes = saved

    def test_zero_baseline_compile_returns_zero(self, two_cell_results):
        baseline = two_cell_results.baseline("jess")
        saved = baseline.opt_compile_cycles
        baseline.opt_compile_cycles = 0
        try:
            assert two_cell_results.compile_time_percent(
                "jess", "fixed", 2) == 0.0
        finally:
            baseline.opt_compile_cycles = saved
