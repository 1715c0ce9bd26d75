import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import mpsim.cli
import mpsim.experiment
from mpsim.cli import main
from mpsim.strategy import DEFAULT_EPSILON


def run_cli(args):
    return main(args)


@pytest.fixture
def run_calls(monkeypatch):
    """Counts the calls of engine.run() made by the CLI and the sweeps."""
    calls = []

    def counted(config):
        calls.append(config)
        return run(config)

    run = mpsim.cli.run
    monkeypatch.setattr(mpsim.cli, "run", counted)
    monkeypatch.setattr(mpsim.experiment, "run", counted)
    return calls


class TestRun:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "scores.json"
        code = run_cli(["run", "--strategy", "min_rtt", "--agents", "100",
                        "--seed", "7", "--steps", "50", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["strategy"] == "min_rtt"
        assert doc["agents"] == 100
        assert doc["scores"]["efficiency"] > 0
        assert doc["scores"]["loss_avoidance"] == pytest.approx(
            1.0 / (1.0 + doc["scores"]["loss"]))

    def test_bad_strategy_exits_2_listing_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--strategy", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in ("min_rtt", "min_load", "attribute_aware", "round_robin",
                     "weighted_round_robin", "epsilon_greedy", "blest"):
            assert name in err

    def test_same_seed_identical_outputs(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run_cli(["run", "--strategy", "epsilon_greedy", "--epsilon", "0.1",
                            "--agents", "60", "--steps", "80", "--seed", "5",
                            "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_scores_keys_in_pinned_order(self, tmp_path):
        out = tmp_path / "scores.json"
        assert run_cli(["run", "--strategy", "blest", "--agents", "5", "--steps", "5",
                        "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["scores"]) == [
            "oscillation", "loss", "fairness", "efficiency", "goodput", "stability",
            "loss_avoidance"]

    def test_epsilon_for_another_strategy_exits_2(self, capsys):
        code = run_cli(["run", "--strategy", "min_rtt", "--epsilon", "0.7", "--steps", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --epsilon applies only with --strategy epsilon_greedy\n"

    @pytest.mark.parametrize("flags, epsilon", [([], DEFAULT_EPSILON), (["--epsilon", "0.3"], 0.3)])
    def test_epsilon_greedy_reports_its_epsilon(self, capsys, flags, epsilon):
        assert run_cli(["run", "--strategy", "epsilon_greedy", "--agents", "20",
                        "--steps", "5", *flags]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == epsilon
        assert list(doc) == ["strategy", "agents", "steps", "seed", "topology", "scores",
                             "epsilon"]

    def test_timeseries_export(self, tmp_path):
        out = tmp_path / "scores.json"
        ts = tmp_path / "series.csv"
        code = run_cli(["run", "--strategy", "round_robin", "--agents", "3",
                        "--steps", "6", "--out", str(out), "--timeseries", str(ts)])
        assert code == 0
        lines = ts.read_text().strip().split("\n")
        assert lines[0] == "step,path_id,load_mbps,overflow_mbps,inst_rtt_ms"
        assert len(lines) == 1 + 6 * 3

    def test_custom_topology_file(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({
            "name": "single",
            "paths": [{"id": 1, "capacity_mbps": 10, "base_rtt_ms": 10}],
        }))
        code = run_cli(["run", "--strategy", "min_rtt", "--agents", "2",
                        "--steps", "5", "--topology", str(topo)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["topology"] == "single"

    def test_invalid_topology_exits_2(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        topo.write_text('{"name": "x", "paths": [{"id": 1, "capacity_mbps": 0, '
                        '"base_rtt_ms": 5}]}')
        code = run_cli(["run", "--strategy", "min_rtt", "--topology", str(topo)])
        assert code == 2
        assert "capacity must be positive" in capsys.readouterr().err

    def test_attribute_aware_with_every_path_forbidden_exits_2(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"name": "all-high-cost", "paths": [
            {"id": i + 1, "capacity_mbps": 50, "base_rtt_ms": rtt, "attributes": ["high-cost"]}
            for i, rtt in enumerate((20, 50))]}))
        code = run_cli(["run", "--strategy", "attribute_aware", "--agents", "3",
                        "--steps", "5", "--topology", str(topo)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no admissible path" in captured.err

    # a base RTT of 1e-300 is a valid topology number, but windows that
    # grow by step_ms / 1e-300 per step overflow the scores; the run must
    # fail at the edge instead of printing a traceback or a NaN
    @pytest.mark.parametrize("strategy, base_rtts, quantity", [
        ("round_robin", (1e-300, 1), "oscillation"),
        ("min_rtt", (1e-300,), "fairness"),
    ])
    def test_non_finite_score_exits_2(self, tmp_path, capsys, strategy, base_rtts,
                                      quantity):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"name": "tiny-rtt", "paths": [
            {"id": i + 1, "capacity_mbps": 50, "base_rtt_ms": rtt}
            for i, rtt in enumerate(base_rtts)]}))
        code = run_cli(["run", "--strategy", strategy, "--agents", "3", "--steps", "5",
                        "--topology", str(topo)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {quantity} is not finite")

    @pytest.mark.parametrize("flag", ["--out", "--timeseries"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, flag):
        code = run_cli(["run", "--strategy", "min_rtt", "--agents", "3", "--steps", "5",
                        flag, str(tmp_path / "absent" / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write output file: ")

    def test_unwritable_timeseries_refused_before_the_run(self, tmp_path, monkeypatch, capsys,
                                                          run_calls):
        monkeypatch.chdir(tmp_path)
        absent = str(tmp_path / "absent" / "x.csv")
        code = run_cli(["run", "--strategy", "min_rtt", "--agents", "3", "--steps", "5",
                        "--out", "ok.json", "--timeseries", absent])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write output file: [Errno 2] No such file or directory: {absent!r}\n")
        assert not (tmp_path / "ok.json").exists()
        assert run_calls == []

    def test_existing_output_untouched_when_another_is_refused(self, tmp_path, run_calls):
        kept = tmp_path / "kept.json"
        kept.write_text("earlier\n")
        code = run_cli(["run", "--strategy", "min_rtt", "--agents", "3", "--steps", "5",
                        "--out", str(kept), "--timeseries", str(tmp_path)])
        assert code == 2
        assert kept.read_text() == "earlier\n"
        assert run_calls == []

    @pytest.mark.parametrize("second", ["same.txt", "./same.txt", "sub/../same.txt", "link.txt"])
    def test_one_file_named_twice_refused_before_the_run(self, tmp_path, monkeypatch, capsys,
                                                          run_calls, second):
        # the timeseries CSV would overwrite the score summary
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.txt").symlink_to("same.txt")
        code = run_cli(["run", "--strategy", "min_rtt", "--agents", "3", "--steps", "5",
                        "--out", "same.txt", "--timeseries", second])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write two outputs to one file: {second}\n")
        assert not (tmp_path / "same.txt").exists()
        assert run_calls == []

    def test_both_outputs_to_stdout_run(self, capsys):
        code = run_cli(["run", "--strategy", "min_rtt", "--agents", "3", "--steps", "2",
                        "--out", "-", "--timeseries", "-"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"scores"' in out and "step,path_id," in out

    @pytest.mark.parametrize("flag", ["--out", "--timeseries"])
    def test_empty_output_path_refused_before_the_run(self, capsys, run_calls, flag):
        code = run_cli(["run", "--strategy", "min_rtt", "--agents", "3", "--steps", "5",
                        flag, ""])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cannot write output file: [Errno 2] No such file or directory: ''\n")
        assert run_calls == []

    def test_writable_outputs_run_once(self, tmp_path, run_calls):
        code = run_cli(["run", "--strategy", "min_rtt", "--agents", "3", "--steps", "5",
                        "--out", str(tmp_path / "a.json"),
                        "--timeseries", str(tmp_path / "b.csv")])
        assert code == 0
        assert len(run_calls) == 1


class TestSweep:
    def test_single_cell(self, capsys):
        code = run_cli(["sweep", "--strategies", "min_rtt", "--agents-list", "10",
                        "--steps", "20"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("strategy,agents,")
        assert len(lines) == 2
        assert lines[1].startswith("min_rtt,10,")

    def test_all_strategies_grid_shape(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = run_cli(["sweep", "--all-strategies", "--steps", "5",
                        "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 49

    def test_epsilon_grid(self, capsys):
        code = run_cli(["sweep", "--epsilon-grid", "0,0.1,0.2,0.3,0.4,0.5",
                        "--agents", "20", "--steps", "20"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "epsilon,efficiency,loss"
        assert len(lines) == 7

    def test_empty_grid_exits_2(self, capsys):
        code = run_cli(["sweep", "--agents-list", ",", "--steps", "5"])
        assert code == 2
        assert "empty sweep grid" in capsys.readouterr().err

    def test_unknown_strategy_exits_2(self, capsys):
        code = run_cli(["sweep", "--strategies", "minrtt", "--steps", "5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown strategy 'minrtt'; valid names: min_rtt, min_load, "
            "attribute_aware, round_robin, weighted_round_robin, epsilon_greedy, blest\n")

    @pytest.mark.parametrize("args, flag", [
        (["--epsilon-grid", "0.1", "--strategies", "bogus", "--agents-list", "7",
          "--format", "markdown"], "--strategies"),
        (["--epsilon-grid", "0.1", "--strategies", "min_rtt"], "--strategies"),
        (["--epsilon-grid", "0.1", "--agents-list", "7"], "--agents-list"),
        (["--epsilon-grid", "0.1", "--all-strategies"], "--all-strategies"),
        (["--epsilon-grid", "0.1", "--epsilon", "0"], "--epsilon"),
        (["--epsilon-grid", "0.1", "--format", "csv"], "--format"),
        (["--strategies", "min_rtt", "--agents", "999"], "--agents"),
        (["--all-strategies", "--agents", "0"], "--agents"),
        (["--all-strategies", "--strategies", "min_rtt"], "--all-strategies"),
        (["--all-strategies", "--format", "markdown", "--raw"], "--raw"),
        (["--strategies", "min_rtt", "--agents-list", "10", "--epsilon", "0.7"], "--epsilon"),
    ])
    def test_flag_the_mode_ignores_exits_2(self, capsys, args, flag):
        code = run_cli(["sweep", "--steps", "2", *args])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} ")

    # the default set and --all-strategies sweep epsilon_greedy, which reads --epsilon
    @pytest.mark.parametrize("grid", [[], ["--all-strategies"],
                                      ["--strategies", "min_rtt,epsilon_greedy"]])
    def test_epsilon_applies_when_epsilon_greedy_is_swept(self, capsys, grid):
        rows = {}
        for epsilon in ([], ["--epsilon", "0.7"]):
            code = run_cli(["sweep", "--agents-list", "10", "--steps", "20", *grid, *epsilon])
            assert code == 0
            rows[bool(epsilon)] = dict(line.split(",", 1) for line in
                                       capsys.readouterr().out.strip().split("\n")[1:])
        assert rows[True]["epsilon_greedy"] != rows[False]["epsilon_greedy"]
        assert rows[True]["min_rtt"] == rows[False]["min_rtt"]

    def test_markdown_format(self, capsys):
        code = run_cli(["sweep", "--strategies", "blest", "--agents-list", "10",
                        "--steps", "10", "--format", "markdown"])
        assert code == 0
        assert capsys.readouterr().out.startswith("| strategy | agents |")

    # SHA-256 of the reproduction grid's and the epsilon line's raw CSVs.
    # Any change to these bytes is a change to the model or the metrics,
    # which updates the digest as a named specification change
    @pytest.mark.parametrize("args, digest", [
        (["sweep", "--all-strategies", "--raw"],
         "e047184159b86f81a873fea136bc24f31c9dce6e7e8638b04f904fbc50329a82"),
        (["sweep", "--epsilon-grid", "0,0.1,0.2,0.3,0.4,0.5", "--agents", "500", "--raw"],
         "f3036c5a0146352bdaf8e165ebc1f7d4b1820cb5442f16cc1d20280bb2f80d89"),
    ], ids=["all-strategies", "epsilon-grid"])
    def test_raw_sweep_bytes_are_pinned(self, capsys, args, digest):
        assert run_cli(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("mode", [["--strategies", "min_rtt", "--agents-list", "10"],
                                      ["--epsilon-grid", "0,0.1", "--agents", "10"]])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, mode):
        out = tmp_path / "absent" / "x.csv"
        assert run_cli(["sweep", "--steps", "5", *mode, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output file: ")
        assert str(out) in captured.err

    def test_unwritable_output_refused_before_any_cell(self, tmp_path, capsys, run_calls):
        absent = tmp_path / "absent" / "x.csv"
        assert run_cli(["sweep", "--out", str(absent)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output file: ")
        assert run_calls == []
        assert not absent.parent.exists()


    @pytest.mark.parametrize("mode", [[], ["--epsilon-grid", "0,0.1"]])
    def test_empty_output_path_refused_before_any_cell(self, capsys, run_calls, mode):
        assert run_cli(["sweep", *mode, "--out", ""]) == 2
        assert capsys.readouterr().err == (
            "error: cannot write output file: [Errno 2] No such file or directory: ''\n")
        assert run_calls == []


class TestReport:
    def test_rerenders_markdown(self, tmp_path, capsys):
        raw = tmp_path / "results.csv"
        assert run_cli(["sweep", "--strategies", "min_rtt,blest",
                        "--agents-list", "10,25", "--steps", "10", "--raw",
                        "--out", str(raw)]) == 0
        code = run_cli(["report", "--in", str(raw), "--format", "markdown"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("| strategy |")
        assert len(lines) == 2 + 4

    def test_row_count_preserved_for_full_grid(self, tmp_path, capsys):
        raw = tmp_path / "results.csv"
        assert run_cli(["sweep", "--all-strategies", "--steps", "5", "--raw",
                        "--out", str(raw)]) == 0
        assert run_cli(["report", "--in", str(raw), "--format", "markdown"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2 + 49

    @pytest.mark.parametrize("flags", [["--raw"], ["--raw", "--format", "markdown"]])
    def test_raw_with_markdown_exits_2(self, tmp_path, capsys, flags):
        raw = tmp_path / "results.csv"
        assert run_cli(["sweep", "--strategies", "min_rtt", "--agents-list", "10",
                        "--steps", "10", "--raw", "--out", str(raw)]) == 0
        capsys.readouterr()
        assert run_cli(["report", "--in", str(raw), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --raw ")

    def test_raw_csv_rerenders_full_precision(self, tmp_path, capsys):
        raw = tmp_path / "results.csv"
        assert run_cli(["sweep", "--strategies", "min_rtt", "--agents-list", "10",
                        "--steps", "10", "--raw", "--out", str(raw)]) == 0
        assert run_cli(["report", "--in", str(raw), "--raw", "--format", "csv"]) == 0
        assert capsys.readouterr().out == raw.read_text()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = run_cli(["report", "--in", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "results.csv"
        assert run_cli(["sweep", "--strategies", "min_rtt", "--agents-list", "10",
                        "--steps", "10", "--raw", "--out", str(raw)]) == 0
        code = run_cli(["report", "--in", str(raw), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write output file: ")

    def test_corrupt_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("strategy,agents\nmin_rtt,10\n")
        code = run_cli(["report", "--in", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("line, named", [
        ("min_rtt,10,4.25,nan,0.33,44.79,0.19,0.29", "row 2, column 'loss'"),
        ("min_rtt,10,4.25,2.44,0.33,inf,0.19,0.29", "row 2, column 'efficiency'"),
        ("greedy,10,4.25,2.44,0.33,44.79,0.19,0.29", "row 2, column 'strategy'"),
    ])
    def test_bad_row_exits_2_naming_row_and_column(self, tmp_path, capsys, line, named):
        bad = tmp_path / "bad.csv"
        bad.write_text("strategy,agents,oscillation,loss,fairness,efficiency,"
                       "stability,loss_avoidance\n" + line + "\n")
        assert run_cli(["report", "--in", str(bad)]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""


class TestModuleEntry:
    # `python -m mpsim` and `python -m mpsim.cli` reach main() and exit
    # with its status, in a fresh interpreter that finds this checkout's
    # package first
    SRC = str(pathlib.Path(mpsim.cli.__file__).resolve().parents[1])

    def run_module(self, *args):
        path = os.pathsep.join(filter(None, [self.SRC, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", *args], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path), check=False)

    @pytest.mark.parametrize("module", ["mpsim", "mpsim.cli"])
    def test_unknown_strategy_exits_2(self, module):
        completed = self.run_module(module, "run", "--strategy", "nonexistent")
        assert completed.returncode == 2
        assert completed.stdout == b""
        assert b"invalid choice" in completed.stderr

    def test_sweep_writes_mains_bytes(self, capsys):
        args = ["sweep", "--strategies", "min_rtt", "--agents-list", "10", "--steps", "5",
                "--raw"]
        completed = self.run_module("mpsim", *args)
        assert completed.returncode == 0
        assert run_cli(args) == 0
        assert completed.stdout == capsys.readouterr().out.encode()
