"""Tests for the command-line interface."""

import errno
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import main

#: The package source, for tests that run the CLI in a process of its own.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


class TestRunCommand:
    def test_run_prints_summary(self, capsys):
        code = main(["run", "jess", "--policy", "fixed", "--depth", "2",
                     "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total cycles" in out
        assert "fixed(max=2)" in out
        assert "guard tests" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "quake"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "jess", "--policy", "nonsense"])


class TestTable1Command:
    def test_prints_table(self, capsys):
        assert main(["table1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "SPECjbb2000" in out

    def test_closed_output_pipe_ends_without_a_traceback(self):
        """A reader that goes away before the table prints (``repro
        table1 | head -0``) ends the command nonzero, without a
        traceback."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "table1", "--scale", "0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC), text=True)
        process.stdout.close()
        with process.stderr:
            err = process.stderr.read()
        assert process.wait(timeout=300) == 1
        assert "Traceback" not in err, err


class TestSweepAndFigures:
    def test_sweep_then_figures(self, tmp_path, capsys):
        cache = str(tmp_path / "sweep.json")
        code = main(["sweep", "--out", cache, "--scale", "0.05",
                     "--benchmarks", "jess", "db",
                     "--phases", "0.0"])
        assert code == 0
        assert (tmp_path / "sweep.json").exists()
        capsys.readouterr()

        code = main(["figures", "--cache", cache, "--which", "fig4",
                     "headline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Headline" in out

    def test_figures_without_cache_fails(self, tmp_path, capsys):
        code = main(["figures", "--cache", str(tmp_path / "missing.json")])
        assert code == 1
        assert "no sweep cache" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "causal"])
    @pytest.mark.parametrize("value", ["0", "-1.5", "inf"])
    def test_timeout_must_be_positive(self, command, value, tmp_path,
                                      capsys):
        out = str(tmp_path / "out.json")
        with pytest.raises(SystemExit) as exited:
            main([command, "--benchmarks", "jess", "--scale", "0.05",
                  "--jobs", "2", "--timeout", value, "--out", out])
        assert exited.value.code == 2
        assert "--timeout" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestArgumentRanges:
    """Out-of-range values end at parse time with a usage message and
    exit 2, before any command builds a benchmark."""

    @pytest.mark.parametrize("argv, option", [
        (["run", "jess", "--scale", "0.05", "--phase", "1.5"], "--phase"),
        (["run", "jess", "--phase", "-0.1"], "--phase"),
        (["run", "jess", "--policy", "fixed", "--depth", "0"], "--depth"),
        (["analyze", "--k", "-1"], "--k"),
        (["analyze", "--k", "9"], "--k"),
        (["run", "jess", "--scale", "0"], "--scale"),
        (["run", "jess", "--scale", "-1"], "--scale"),
        (["table1", "--scale", "nan"], "--scale"),
        (["analyze", "--scale", "inf"], "--scale"),
        (["sweep", "--phases", "0.0", "1.0"], "--phases"),
        (["sweep", "--depths", "2", "0"], "--depths"),
        (["causal", "--depth", "0"], "--depth"),
        (["trace", "jess", "--depth", "1.5"], "--depth"),
    ])
    def test_rejected_before_the_command_runs(self, argv, option,
                                              monkeypatch, capsys):
        monkeypatch.setattr(cli, "_COMMANDS", {})
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {option}" in err

    def test_range_ends_are_accepted(self):
        parser = cli._build_parser()
        assert parser.parse_args(["analyze", "--k", "0"]).k == 0
        assert parser.parse_args(["analyze", "--k", "8"]).k == 8
        assert parser.parse_args(["run", "jess", "--phase", "0"]).phase == 0
        assert parser.parse_args(["run", "jess", "--depth", "1"]).depth == 1


class TestUnwritableOutput:
    """An output path that cannot be written ends the command with exit
    1 and one line naming it, before anything is simulated."""

    @pytest.mark.parametrize("argv", [
        ["trace", "jess", "--scale", "0.05", "-o"],
        ["causal", "--benchmarks", "jess", "--scale", "0.05", "-o"],
        ["causal", "--benchmarks", "jess", "--scale", "0.05", "--trace-out"],
        ["analyze", "--scale", "0.05", "-o"],
        ["decisions", "record", "db", "--scale", "0.05", "-o"],
        ["sweep", "--scale", "0.05", "--out"],
    ])
    def test_path_under_a_regular_file(self, argv, tmp_path, monkeypatch,
                                       capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = str(blocker / "out.json")
        monkeypatch.setattr(cli, "_COMMANDS", {})
        assert main(argv + [path]) == 1
        assert capsys.readouterr().err == \
            f"cannot write {path}: {os.strerror(errno.ENOTDIR)}\n"

    def test_missing_directories_are_created(self, tmp_path, capsys):
        path = tmp_path / "new" / "dir" / "analysis.json"
        assert main(["analyze", "--benchmarks", "compress", "--scale",
                     "0.05", "--no-soundness", "-o", str(path)]) == 0
        assert path.exists()
        assert os.listdir(path.parent) == ["analysis.json"]


class TestAblationsCommand:
    def test_threshold(self, capsys):
        assert main(["ablations", "threshold", "--scale", "0.05"]) == 0
        assert "threshold" in capsys.readouterr().out


class TestTerminationCommand:
    def test_termination_stats(self, capsys):
        assert main(["termination", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "termination" in out
        assert "paramless" in out


class TestFigureBars:
    def test_bars_flag_draws_charts(self, tmp_path, capsys):
        cache = str(tmp_path / "sweep.json")
        main(["sweep", "--out", cache, "--scale", "0.05",
              "--benchmarks", "jess", "--phases", "0.0"])
        capsys.readouterr()
        code = main(["figures", "--cache", cache, "--which", "fig4",
                     "--bars"])
        assert code == 0
        out = capsys.readouterr().out
        assert "harMean at max=" in out


class TestTraceCommand:
    def test_trace_writes_chrome_trace_and_reconciles(self, tmp_path,
                                                      capsys):
        import json

        out_path = str(tmp_path / "trace.json")
        code = main(["trace", "jess", "--policy", "hybrid1", "--depth", "3",
                     "--scale", "0.05", "-o", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "Telemetry component summary" in out
        assert "reconciliation" in out
        assert "perfetto" in out

        with open(out_path) as handle:
            trace = json.load(handle)
        events = trace["traceEvents"]
        assert events
        assert all({"ph", "ts", "pid", "tid", "name"} <= set(event)
                   for event in events)
        assert any(event["ph"] == "X" and event["name"] == "opt_compile"
                   for event in events)

    def test_trace_default_output_name(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "db", "--scale", "0.05"]) == 0
        assert (tmp_path / "trace.json").exists()
        capsys.readouterr()


class TestCausalCommand:
    def test_trace_out_joins_telemetry_and_progress(self, tmp_path,
                                                    capsys):
        """``--trace-out`` re-runs the top experiment with telemetry and
        a progress tracker on one run: the trace carries the tracker's
        points as a counter track and names the ranked top component."""
        import json

        trace_path = tmp_path / "trace.json"
        bundle_path = tmp_path / "bundle.json"
        code = main(["causal", "--benchmarks", "jess", "--components",
                     "guard", "--factors", "1.0", "--seeds", "1",
                     "--scale", "0.05", "--jobs", "1",
                     "--trace-out", str(trace_path),
                     "-o", str(bundle_path)])
        assert code == 0
        assert "(top experiment, annotated)" in capsys.readouterr().out
        trace = json.loads(trace_path.read_text())
        bundle = json.loads(bundle_path.read_text())
        progress = [event["args"]["value"] for event in trace["traceEvents"]
                    if event["ph"] == "C" and event["name"] == "progress/main"]
        assert progress == [float(count)
                            for count in range(1, len(progress) + 1)]
        assert progress
        experiment = trace["otherData"]["causal_experiment"]
        assert experiment["component"] == bundle["ranking"][0]["component"]
        assert experiment["factor"] == 1.0


class TestInspectCommand:
    def test_inspect_prints_trees_and_events(self, capsys):
        code = main(["inspect", "jess", "--policy", "fixed", "--depth",
                     "2", "--scale", "0.05", "--top", "2",
                     "--events", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bc inlined" in out
        assert "AOS event summary" in out
        assert "AOS event timeline" in out

    def test_timeline_is_independent_of_hash_seed(self):
        """String hashing is salted per process; no set iteration order
        may reach the printed timeline."""
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            outputs.append(subprocess.run(
                [sys.executable, "-m", "repro", "inspect", "jess",
                 "--scale", "0.05", "--events", "100000"],
                env=env, capture_output=True, text=True,
                check=True).stdout)
        assert "rule_added" in outputs[0]
        assert outputs[0] == outputs[1]


class TestExplainCommand:
    def test_unknown_method_lists_roots_then_explains_one(self, capsys):
        code = main(["explain", "db", "No.Such", "--policy", "fixed",
                     "--depth", "2", "--scale", "0.05"])
        assert code == 1
        err = capsys.readouterr().err
        assert "methods with provenance" in err
        # The error names the methods that do have provenance; explaining
        # one of them must succeed.
        method = err.split(": ", 1)[1].split(",")[0].strip()
        code = main(["explain", "db", method, "--policy", "fixed",
                     "--depth", "2", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"Decision provenance for {method}" in out
        assert "compile v" in out


class TestDecisionsCommand:
    def test_record_then_diff(self, tmp_path, capsys):
        log_a = str(tmp_path / "fixed4.decisions.jsonl")
        log_b = str(tmp_path / "cins.decisions.jsonl")
        assert main(["decisions", "record", "db", "--policy", "fixed",
                     "--depth", "4", "--scale", "0.05", "-o", log_a]) == 0
        assert main(["decisions", "record", "db", "--policy", "cins",
                     "--scale", "0.05", "-o", log_b]) == 0
        out = capsys.readouterr().out
        assert "provenance records" in out

        assert main(["decisions", "diff", log_a, log_b]) == 0
        out = capsys.readouterr().out
        assert "db/fixed/max4@0" in out
        assert "db/cins/max1@0" in out
        assert "flipped" in out
        assert "[verdict]" in out  # acceptance: >=1 verdict flip w/ reasons

    def test_diff_missing_log_fails(self, tmp_path, capsys):
        code = main(["decisions", "diff",
                     str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
        assert code == 1
        assert "cannot diff" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_analyze_clean_benchmarks(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "analysis.json")
        code = main(["analyze", "--benchmarks", "compress", "db",
                     "--scale", "0.05", "-o", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "verifier : OK" in out
        assert "soundness" in out
        assert "analysis: 2 program(s)" in out
        assert ": OK" in out

        with open(out_path) as handle:
            bundle = json.load(handle)
        assert bundle["schema"] == "repro.analysis/v1"
        assert bundle["ok"] is True
        assert len(bundle["reports"]) == 2
        for report in bundle["reports"]:
            assert report["verifier"]["ok"]
            assert report["soundness"]["ok"]
            assert set(report["callgraph"]) == {"cha", "rta"}

    def test_analyze_no_soundness_skips_replay(self, capsys):
        code = main(["analyze", "--benchmarks", "compress",
                     "--scale", "0.05", "--no-soundness"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verifier : OK" in out
        assert "soundness" not in out

    def test_analyze_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--benchmarks", "quake"])

    def test_analyze_precision_selects_tiers(self, capsys):
        code = main(["analyze", "--benchmarks", "compress",
                     "--scale", "0.05", "--no-soundness",
                     "--precision", "rta", "0cfa", "kcfa", "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "  rta" in out and "  0cfa" in out and "  1cfa" in out
        assert "  cha" not in out

    def test_analyze_unknown_precision_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--benchmarks", "compress",
                  "--precision", "5cfa"])

    def test_analyze_lattice_reports_rescued_sites(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "lattice.json")
        code = main(["analyze", "--benchmarks", "jess",
                     "--scale", "0.05", "--lattice", "-o", out_path])
        assert code == 0
        out = capsys.readouterr().out
        # Acceptance: >=1 site RTA calls polymorphic that 1-CFA proves
        # context-monomorphic, visible in the human summary.
        assert "rta-poly->1cfa-ctx-mono" in out
        assert "rta-poly->1cfa-ctx-mono: 0 site(s)" not in out
        assert "containment ok" in out
        assert "observed ⊆ 2cfa ⊆ 1cfa ⊆ 0cfa ⊆ rta ⊆ cha" in out

        with open(out_path) as handle:
            bundle = json.load(handle)
        assert bundle["ok"] is True
        (report,) = bundle["reports"]
        assert report["lattice"]["ok"]
        assert report["lattice"]["rescued_sites"]["1cfa"]
        assert report["soundness"]["violation_codes"] == []
        assert [t["precision"] for t in report["soundness"]["tiers"]] == \
            ["cha", "rta", "0cfa", "1cfa", "2cfa"]


class TestAttributeStatic:
    def test_diff_with_static_attribution(self, tmp_path, capsys):
        log_a = str(tmp_path / "fixed4.decisions.jsonl")
        log_b = str(tmp_path / "cins.decisions.jsonl")
        assert main(["decisions", "record", "db", "--policy", "fixed",
                     "--depth", "4", "--scale", "0.05", "-o", log_a]) == 0
        assert main(["decisions", "record", "db", "--policy", "cins",
                     "--scale", "0.05", "-o", log_b]) == 0
        capsys.readouterr()

        assert main(["decisions", "diff", log_a, log_b,
                     "--attribute-static"]) == 0
        out = capsys.readouterr().out
        assert "static attribution" in out
        assert "flip(s)" in out

    def test_attribution_requires_matching_benchmarks(self, tmp_path,
                                                      capsys):
        log_a = str(tmp_path / "db.decisions.jsonl")
        log_b = str(tmp_path / "jess.decisions.jsonl")
        assert main(["decisions", "record", "db", "--policy", "cins",
                     "--scale", "0.05", "-o", log_a]) == 0
        assert main(["decisions", "record", "jess", "--policy", "cins",
                     "--scale", "0.05", "-o", log_b]) == 0
        capsys.readouterr()

        assert main(["decisions", "diff", log_a, log_b,
                     "--attribute-static"]) == 1
        assert "cannot attribute" in capsys.readouterr().err


class TestSweepDecisionLogs:
    def test_sweep_flag_writes_logs(self, tmp_path, capsys):
        cache = str(tmp_path / "sweep.json")
        code = main(["sweep", "--out", cache, "--scale", "0.05",
                     "--benchmarks", "db", "--phases", "0.0",
                     "--decision-logs"])
        assert code == 0
        capsys.readouterr()
        assert list(tmp_path.glob("sweep.cells/*.decisions.jsonl"))

