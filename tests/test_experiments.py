"""Tests for the experiment harness: runner, sweep serialization, figures.

The sweeps here run at tiny scale -- the point is plumbing correctness
(keys, baselines, serialization, rendering), not paper-shaped numbers.
"""

import ast
import json
import math
import os
import subprocess
import sys
import time

import pytest

from repro.experiments import runner
from repro.experiments.cell_cache import CellCache
from repro.experiments.config import (DEFAULT_PHASES, DEPTHS,
                                      FINGERPRINT_VERSION, POLICY_FAMILIES,
                                      SweepConfig, cost_model_fingerprint)
from repro.experiments.figures import (FIGURE6_COMPONENTS, figure2, figure4,
                                       figure5, figure6, headline, table1,
                                       termination_stats)
from repro.experiments.runner import (CellFailure, SweepResults,
                                      _cell_worker, load_or_run_sweep,
                                      run_cell, run_cells, run_single,
                                      run_sweep)
from repro.jvm.errors import ConfigError, ExecutionError
from repro.workloads.spec import BENCHMARK_ORDER

TINY = SweepConfig(benchmarks=("jess", "db"), families=("fixed", "hybrid1"),
                   depths=(2,), phases=(0.0,), scale=0.05, jobs=1)


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_sweep(TINY)


class TestConfig:
    def test_configurations_include_baseline_first_per_benchmark(self):
        cells = TINY.configurations()
        assert cells[0] == ("jess", "cins", 1)
        assert ("jess", "fixed", 2) in cells
        assert ("db", "hybrid1", 2) in cells

    def test_default_families_match_paper(self):
        assert POLICY_FAMILIES == ("fixed", "paramLess", "class", "large",
                                   "hybrid1", "hybrid2")
        assert DEPTHS == (2, 3, 4, 5)
        assert len(DEFAULT_PHASES) >= 2


class TestRunner:
    def test_run_single_returns_result(self):
        result = run_single("jess", "cins", 1, scale=0.05)
        assert result.total_cycles > 0
        assert result.program_name == "jess"

    def test_run_cell_takes_best_of_phases(self):
        best, log = run_cell("jess", "cins", 1, phases=(0.0, 0.5),
                             scale=0.05)
        assert log is None
        single0 = run_single("jess", "cins", 1, phase=0.0, scale=0.05)
        single5 = run_single("jess", "cins", 1, phase=0.5, scale=0.05)
        assert best.total_cycles == min(single0.total_cycles,
                                        single5.total_cycles)

    def test_sweep_covers_all_cells(self, tiny_sweep):
        assert set(tiny_sweep.cells) == set(TINY.configurations())

    def test_relative_metrics(self, tiny_sweep):
        # Baseline relative to itself is exactly zero.
        assert tiny_sweep.speedup_percent("jess", "cins", 1) == 0.0
        assert tiny_sweep.code_size_percent("jess", "cins", 1) == 0.0
        assert tiny_sweep.compile_time_percent("jess", "cins", 1) == 0.0
        # Non-baseline cells produce finite numbers.
        value = tiny_sweep.speedup_percent("db", "fixed", 2)
        assert -100.0 < value < 100.0


class TestSerialization:
    def test_round_trip(self, tiny_sweep):
        text = tiny_sweep.to_json()
        loaded = SweepResults.from_json(text)
        assert loaded.config == tiny_sweep.config
        assert set(loaded.cells) == set(tiny_sweep.cells)
        for key in tiny_sweep.cells:
            assert loaded.cells[key].total_cycles == \
                tiny_sweep.cells[key].total_cycles
            assert loaded.cells[key].depth_histogram == \
                tiny_sweep.cells[key].depth_histogram


SMALL = SweepConfig(benchmarks=("jess",), families=("fixed",),
                    depths=(2,), phases=(0.0,), scale=0.05, jobs=1)


def _counting_worker(executed):
    """A _cell_worker wrapper recording which cells actually run."""
    real = _cell_worker

    def worker(args):
        executed.append(args[:3])
        return real(args)
    return worker


class TestResumableSweep:
    def test_resume_reruns_exactly_the_missing_cells(self, tmp_path,
                                                     monkeypatch):
        executed = []
        monkeypatch.setattr(runner, "_cell_worker",
                            _counting_worker(executed))
        cache = CellCache(str(tmp_path / "cells"))
        run_sweep(SMALL, cache=cache)
        assert set(executed) == set(SMALL.configurations())

        # A wider sweep sharing phases/scale reuses the overlapping
        # cells and dispatches only the new ones.
        executed.clear()
        full = SweepConfig(benchmarks=("jess", "db"), families=("fixed",),
                           depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        results = run_sweep(full, cache=cache)
        assert set(executed) == \
            set(full.configurations()) - set(SMALL.configurations())
        assert set(results.cells) == set(full.configurations())

        # A fully cached rerun dispatches nothing at all.
        executed.clear()
        again = run_sweep(full, cache=cache)
        assert executed == []
        assert again.cells == results.cells

    def test_interrupted_sweep_resumes_where_it_died(self, tmp_path,
                                                     monkeypatch):
        path = str(tmp_path / "sweep.json")
        config = SweepConfig(benchmarks=("jess", "db"), families=("fixed",),
                             depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        real = _cell_worker
        completed_before_kill = 2
        state = {"left": completed_before_kill}

        def dying(args):
            if state["left"] == 0:
                raise KeyboardInterrupt
            state["left"] -= 1
            return real(args)

        monkeypatch.setattr(runner, "_cell_worker", dying)
        with pytest.raises(KeyboardInterrupt):
            load_or_run_sweep(path, config)
        assert not os.path.exists(path)  # results file never written

        executed = []
        monkeypatch.setattr(runner, "_cell_worker",
                            _counting_worker(executed))
        results = load_or_run_sweep(path, config)
        assert len(executed) == \
            len(config.configurations()) - completed_before_kill
        assert set(results.cells) == set(config.configurations())
        assert os.path.exists(path)

    def test_results_file_is_written_but_never_read(self, tmp_path):
        # The per-cell cache is the only cache: a doctored results file
        # is not served, and the next run rewrites it from the cells.
        path = tmp_path / "sweep.json"
        first = load_or_run_sweep(str(path), SMALL)
        payload = json.loads(path.read_text())
        for entry in payload["cells"]:
            if entry["key"] == ["jess", "fixed", 2]:
                entry["result"]["total_cycles"] += 1
        path.write_text(json.dumps(payload))

        again = load_or_run_sweep(str(path), SMALL)
        cell = first.result("jess", "fixed", 2)
        assert again.result("jess", "fixed", 2) == cell
        rewritten = SweepResults.from_json(path.read_text())
        assert rewritten.result("jess", "fixed", 2) == cell

    def test_cached_and_fresh_cells_bit_identical(self, tmp_path):
        cache = CellCache(str(tmp_path / "cells"))
        fresh = run_sweep(SMALL, cache=cache)
        cached = run_sweep(SMALL, cache=cache)
        assert cached.cells == fresh.cells
        assert cached.to_json() == fresh.to_json()

    def test_corrupt_cell_entry_costs_exactly_one_rerun(self, tmp_path,
                                                        monkeypatch):
        cache = CellCache(str(tmp_path / "cells"))
        run_sweep(SMALL, cache=cache)
        victim = ("jess", "fixed", 2)
        entry = cache.path_for(SMALL.cell_fingerprint(*victim))
        with open(entry, "w") as handle:
            handle.write("{half an entr")

        executed = []
        monkeypatch.setattr(runner, "_cell_worker",
                            _counting_worker(executed))
        with pytest.warns(RuntimeWarning, match="rerunning that cell"):
            results = run_sweep(SMALL, cache=cache)
        assert executed == [victim]
        assert set(results.cells) == set(SMALL.configurations())

    def test_worker_error_becomes_structured_failure(self, tmp_path,
                                                     monkeypatch):
        config = SweepConfig(benchmarks=("jess", "db"), families=("fixed",),
                             depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        bad = ("db", "fixed", 2)
        real = _cell_worker

        def flaky(args):
            if args[:3] == bad:
                raise ExecutionError("simulated worker crash")
            return real(args)

        monkeypatch.setattr(runner, "_cell_worker", flaky)
        cache = CellCache(str(tmp_path / "cells"))
        results = run_sweep(config, cache=cache)

        # The failing cell is recorded, not fatal; every other cell
        # completed and was persisted.
        assert bad not in results.cells
        failure = results.failures[bad]
        assert failure.error_type == "ExecutionError"
        assert "simulated worker crash" in failure.message
        assert failure.attempts == 2  # first try plus one retry
        assert set(results.cells) == set(config.configurations()) - {bad}

        # The next sweep retries only the failed cell (failures are
        # never cached) and succeeds.
        executed = []
        monkeypatch.setattr(runner, "_cell_worker",
                            _counting_worker(executed))
        retried = run_sweep(config, cache=cache)
        assert executed == [bad]
        assert not retried.failures
        assert set(retried.cells) == set(config.configurations())

    def test_transient_error_recovered_by_retry(self, monkeypatch):
        real = _cell_worker
        state = {"failed_once": False}

        def flaky_once(args):
            if args[:3] == ("jess", "fixed", 2) and not state["failed_once"]:
                state["failed_once"] = True
                raise RuntimeError("transient")
            return real(args)

        monkeypatch.setattr(runner, "_cell_worker", flaky_once)
        results = run_sweep(SMALL)
        assert not results.failures
        assert set(results.cells) == set(SMALL.configurations())

    def test_pool_unavailable_degrades_to_in_process(self, monkeypatch):
        import multiprocessing

        def unavailable(self):
            raise OSError("fork: Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.Process, "start", unavailable)
        config = SweepConfig(benchmarks=("jess",), families=("fixed",),
                             depths=(2,), phases=(0.0,), scale=0.05, jobs=2)
        with pytest.warns(RuntimeWarning, match="in-process"):
            results = run_sweep(config)
        assert set(results.cells) == set(config.configurations())
        assert not results.failures

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("timeout", [0, -1.5, math.inf, math.nan])
    def test_unusable_timeout_is_rejected_before_any_cell(self, jobs,
                                                          timeout,
                                                          monkeypatch):
        # At either job count: before the check, one job ran both cells
        # and two jobs recorded a TimeoutError for each.
        import multiprocessing

        started = []
        monkeypatch.setattr(multiprocessing.Process, "start",
                            lambda process: started.append(process))

        def worker(arg):
            started.append(arg)
            return arg, None

        with pytest.raises(ConfigError, match="timeout"):
            run_cells({("a",): 0.1, ("b",): 0.1}, worker, str,
                      lambda fingerprint, result: True, jobs=jobs,
                      timeout=timeout)
        assert started == []

    @staticmethod
    def _sleepy_run_cells(tmp_path, cells: str, timeout: float = 1):
        """Run ``run_cells`` with ``jobs=2`` and ``timeout`` over ``cells``
        (the source of a ``key -> behaviour`` dict) in a child process, so
        a failure of the child cannot kill the test run.  A behaviour is
        seconds to sleep, ``"kill"`` (the cell's process SIGKILLs itself)
        or ``"raise"`` (the worker raises a ``ValueError`` naming its
        PID); each cell's result is the PID of the process that ran it.

        Returns a dict: ``run_s``, how long ``run_cells`` took in the
        child; ``elapsed``, how long the whole child took; ``pid``, the
        child's PID; ``results``, ``key -> PID``; ``failures``,
        ``key -> (error type, message, attempts)``; and ``starts``, the
        ``(PID, behaviour)`` of every worker call in start order.
        """
        (tmp_path / "sleepy.py").write_text(
            "import os\n"
            "import signal\n"
            "import time\n"
            "def worker(behaviour):\n"
            "    log = os.path.join(os.path.dirname(__file__), 'starts')\n"
            "    with open(log, 'a') as handle:\n"
            "        handle.write(repr((os.getpid(), behaviour)) + '\\n')\n"
            "    if behaviour == 'kill':\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    if behaviour == 'raise':\n"
            "        raise ValueError(f'raised in {os.getpid()}')\n"
            "    time.sleep(behaviour)\n"
            "    return os.getpid(), None\n")
        script = (
            "import os\n"
            "import time\n"
            "from repro.experiments.runner import run_cells\n"
            "import sleepy\n"
            "start = time.monotonic()\n"
            f"results, failures = run_cells({cells}, sleepy.worker,\n"
            "    str, lambda fingerprint, result: True, jobs=2,\n"
            f"    timeout={timeout})\n"
            "print(repr(dict(run_s=time.monotonic() - start,\n"
            "                pid=os.getpid(), results=results,\n"
            "                failures={key: (failure.error_type,\n"
            "                                failure.message,\n"
            "                                failure.attempts)\n"
            "                          for key, failure in failures.items()})))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.monotonic() - start
        assert done.returncode == 0, (done.returncode, done.stderr)
        run = ast.literal_eval(done.stdout.strip().splitlines()[-1])
        run["elapsed"] = elapsed
        run["starts"] = [ast.literal_eval(line) for line
                         in (tmp_path / "starts").read_text().splitlines()]
        return run

    def test_timed_out_worker_does_not_outlive_the_run(self, tmp_path):
        # The loop kills a timed-out cell's process; left running, it
        # would keep the child alive at exit.
        run = self._sleepy_run_cells(
            tmp_path, "{('slow', 'x', 0): 20, ('fast', 'x', 0): 0}")
        assert sorted(run["results"]) == [('fast', 'x', 0)]
        assert run["failures"][('slow', 'x', 0)][0] == "TimeoutError"
        assert run["elapsed"] < 10

    def test_cells_after_a_timeout_get_every_worker(self, tmp_path):
        # A timeout kills only its own cell's process: the other cell
        # keeps its start and its deadline instead of starting again, so
        # both over-budget cells time out in the same window.
        run = self._sleepy_run_cells(
            tmp_path, "{('slow', 'x', 0): 20, ('slower', 'x', 0): 20}",
            timeout=1.0)
        assert run["results"] == {}
        assert {key: failure[0] for key, failure
                in run["failures"].items()} == \
            {('slow', 'x', 0): "TimeoutError",
             ('slower', 'x', 0): "TimeoutError"}
        assert len(run["starts"]) == 2
        assert run["run_s"] < 1.6

    def test_lone_pending_cell_is_bounded_by_the_timeout(self, tmp_path):
        # One pending cell (a one-cell grid, or the last cell of a resumed
        # sweep) still runs in a process of its own when jobs asks for
        # more than one.
        run = self._sleepy_run_cells(tmp_path, "{('slow', 'x', 0): 3}")
        assert run["results"] == {}
        assert run["failures"][('slow', 'x', 0)][0] == "TimeoutError"
        assert run["run_s"] < 2

    def test_timeout_longer_than_one_wait_is_accepted(self, tmp_path):
        # 3e6 s is past the longest single wait poll() accepts.
        run = self._sleepy_run_cells(
            tmp_path, "{('a', 'x', 0): 0, ('b', 'x', 0): 0}", timeout=3e6)
        assert sorted(run["results"]) == [('a', 'x', 0), ('b', 'x', 0)]
        assert run["failures"] == {}

    def test_each_cell_is_timed_from_its_own_start(self, tmp_path):
        # Both cells start together.  "b" runs past its 1 s budget even
        # though the loop only begins waiting on it when "a" finishes,
        # at 0.8 s: its deadline is its own start plus the timeout.
        run = self._sleepy_run_cells(
            tmp_path, "{('a', 'x', 0): 0.8, ('b', 'x', 0): 1.4}",
            timeout=1.0)
        assert sorted(run["results"]) == [('a', 'x', 0)]
        assert run["failures"][('b', 'x', 0)][0] == "TimeoutError"

    def test_timeout_does_not_restart_the_other_cells(self, tmp_path):
        # "b" starts when "a" finishes, at 0.3 s, and is still running
        # when "slow" times out at 1 s; it must run on, not start again.
        run = self._sleepy_run_cells(
            tmp_path, "{('slow', 'x', 0): 20, ('a', 'x', 0): 0.3,"
            " ('b', 'x', 0): 0.9}", timeout=1.0)
        assert [behaviour for _pid, behaviour in run["starts"]].count(0.9) \
            == 1
        assert run["failures"][('slow', 'x', 0)][0] == "TimeoutError"
        assert set(run["results"]) | set(run["failures"]) == \
            {('slow', 'x', 0), ('a', 'x', 0), ('b', 'x', 0)}

    def test_killed_cell_process_becomes_a_failure(self, tmp_path):
        # SIGKILL (the out-of-memory killer's signal) ends the cell's
        # process without an answer: the cell is retried once in a new
        # process and then recorded, and the other cells finish.
        run = self._sleepy_run_cells(
            tmp_path, "{('doomed', 'x', 0): 'kill', ('a', 'x', 0): 0.2,"
            " ('b', 'x', 0): 0.2}")
        assert sorted(run["results"]) == [('a', 'x', 0), ('b', 'x', 0)]
        error_type, _message, attempts = run["failures"][('doomed', 'x', 0)]
        assert (error_type, attempts) == ("ProcessDied", 2)

    def test_raising_cell_is_retried_in_a_new_process(self, tmp_path):
        run = self._sleepy_run_cells(tmp_path, "{('bad', 'x', 0): 'raise'}")
        pids = [pid for pid, _behaviour in run["starts"]]
        assert len(set(pids)) == 2 and run["pid"] not in pids
        assert run["failures"] == {
            ('bad', 'x', 0): ("ValueError", f"raised in {pids[1]}", 2)}


class TestFailureSerialization:
    def test_round_trip_with_nondefault_config_and_failures(self):
        config = SweepConfig(benchmarks=("jess",), families=("class",),
                             depths=(3,), phases=(0.1, 0.9), scale=0.25,
                             jobs=3, cell_timeout=12.5)
        result = run_single("jess", "cins", 1, scale=0.05)
        failure = CellFailure(key=("jess", "class", 3),
                              error_type="ExecutionError",
                              message="stack overflow", attempts=2)
        results = SweepResults(config=config,
                               cells={("jess", "cins", 1): result},
                               failures={failure.key: failure})
        loaded = SweepResults.from_json(results.to_json())
        assert loaded.config == config
        assert loaded.cells == results.cells
        assert loaded.failures == results.failures
        # Older files name a failed cell by benchmark, family and depth.
        payload = json.loads(results.to_json())
        for raw in payload["failures"]:
            raw.update(zip(("benchmark", "family", "depth"), raw.pop("key")))
        legacy = SweepResults.from_json(json.dumps(payload))
        assert legacy.failures == results.failures

    def test_from_json_accepts_legacy_payload(self, tiny_sweep):
        # Payloads written before per-cell caching carry neither the
        # failures list nor the cell_timeout field; payloads written
        # while the results file was still read back carry a stamp,
        # which is ignored.
        payload = json.loads(tiny_sweep.to_json())
        payload["config"].pop("cell_timeout")
        assert "failures" not in payload
        stamped = dict(payload, stamp={"version": FINGERPRINT_VERSION,
                                       "costs": cost_model_fingerprint()})
        for legacy in (payload, stamped):
            loaded = SweepResults.from_json(json.dumps(legacy))
            assert loaded.config == tiny_sweep.config
            assert loaded.cells == tiny_sweep.cells
            assert loaded.failures == {}


class TestFigures:
    def test_figure4_structure(self, tiny_sweep):
        panels, rendered = figure4(tiny_sweep)
        assert set(panels) == {"fixed", "hybrid1"}
        assert "harMean" in panels["fixed"]
        assert "jess" in rendered and "db" in rendered

    def test_figure5_structure(self, tiny_sweep):
        panels, rendered = figure5(tiny_sweep)
        assert set(panels) == {"fixed", "hybrid1"}
        assert "code space" in rendered

    def test_figure6_structure(self, tiny_sweep):
        series, rendered = figure6(tiny_sweep)
        assert "cins" in series
        assert "fixed-2" in series
        for fractions in series.values():
            for component in FIGURE6_COMPONENTS:
                assert 0.0 <= fractions[component] < 0.5
        assert "AOS component" in rendered

    def test_figure2_shows_context_split(self):
        data, rendered = figure2(iterations=3000)
        edge_split = data["edge"]["global"]
        assert set(edge_split) == {"MyKey.hashCode", "Object.hashCode"}
        per_context = data["trace"]["per_context"]
        assert len(per_context) == 2
        for bucket in per_context.values():
            assert max(bucket.values()) > 0.99  # 100% per context
        assert "Figure 2" in rendered

    def test_table1_matches_spec(self):
        rows, rendered = table1(scale=0.05)
        assert [r["benchmark"] for r in rows] == list(BENCHMARK_ORDER)
        from repro.workloads.spec import TABLE1
        for row in rows:
            classes, methods, _bc = TABLE1[row["benchmark"]]
            assert row["classes"] == classes
            assert row["methods"] == methods
        assert "Table 1" in rendered

    def test_termination_stats(self):
        stats, rendered = termination_stats(scale=0.05)
        assert set(stats) == set(BENCHMARK_ORDER)
        for entry in stats.values():
            assert 0.0 <= entry["immediately_parameterless"] <= 1.0
            assert entry["parameterless_within_5"] >= \
                entry["immediately_parameterless"]
        assert "termination" in rendered

    def test_headline(self, tiny_sweep):
        data, rendered = headline(tiny_sweep)
        assert data["min_speedup_percent"] <= data["max_speedup_percent"]
        assert "Headline" in rendered
