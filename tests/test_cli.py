import subprocess
import sys
from pathlib import Path

import pytest

import foragesim
from foragesim import sim
from foragesim.cli import main
from foragesim.scenario import parse_scenario
from foragesim.scenarios import BUILTIN_NAMES, builtin_scenario_text
from foragesim.sim import SimConfig, run_episode, write_trace_jsonl

BROKEN = """
[machine top entry]
initial -> a
state a -> foo on go
"""

# validates with a warning (the guard could break the cycle), but the battery
# starts full, so the two states hand over to each other forever
GUARDED_AUTO_CYCLE = """
[machine top entry]
initial -> a
state a -> b on auto if batteryFull
state b -> a on auto if batteryFull
"""

AUTO_CYCLE = """
[machine top entry]
initial -> a
state a -> b on auto
state b -> a on auto
"""


class TestValidate:
    def test_valid_fixture_exits_zero_silently(self, dual_source_path, capsys):
        assert main(["validate", str(dual_source_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_unguarded_auto_cycle_warns_at_its_arm(self, scenario_file, capsys):
        path = scenario_file(AUTO_CYCLE, "cycle.scn")
        assert main(["validate", str(path)]) == 0
        err = capsys.readouterr().err
        assert err.endswith("cycle.scn:4:1: warning: unguarded auto cycle a -> b -> a never settles\n")
        assert main(["run", str(path), "--steps", "5"]) == 4

    def test_bad_reference_exits_one_with_diagnostics(self, scenario_file, capsys):
        path = scenario_file(BROKEN, "broken.scn")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unresolved reference 'foo'" in err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.scn")]) == 2


class TestRun:
    def test_happy_path_writes_trace_and_summary(self, dual_source_path, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            "run", str(dual_source_path), "--seed", "7", "--steps", "1200",
            "--memory", "volatile", "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert out == "outcome=survived_to_horizon lifetime=1200\n"

    def test_same_command_twice_is_byte_identical(self, dual_source_path, tmp_path):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["run", str(dual_source_path), "--seed", "7", "--steps", "1200"]
        assert main(argv + ["--trace", str(t1)]) == 0
        assert main(argv + ["--trace", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_nonvolatile_without_weights_is_usage_error(self, dual_source_path, capsys):
        code = main(["run", str(dual_source_path), "--memory", "nonvolatile"])
        assert code == 2
        assert "--weights" in capsys.readouterr().err

    def test_weights_with_volatile_is_usage_error(self, dual_source_path, tmp_path):
        code = main([
            "run", str(dual_source_path), "--weights", str(tmp_path / "w.csv"),
        ])
        assert code == 2

    def test_nonvolatile_writes_weights_file(self, dual_source_path, tmp_path):
        weights = tmp_path / "w.csv"
        code = main([
            "run", str(dual_source_path), "--steps", "1200",
            "--memory", "nonvolatile", "--weights", str(weights),
        ])
        assert code == 0
        assert weights.read_text().startswith("node,option,w_pos")

    def test_unwritable_trace_is_io_error(self, dual_source_path, tmp_path):
        code = main([
            "run", str(dual_source_path), "--steps", "50",
            "--trace", str(tmp_path / "nodir" / "t.jsonl"),
        ])
        assert code == 3

    def test_unknown_flag_is_usage_error(self, dual_source_path):
        assert main(["run", str(dual_source_path), "--warp", "9"]) == 2


class TestStreamedTrace:
    """`run --trace` streams rows to disk; the file must be what the API writes."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_file_equals_run_episode_written_by_write_trace_jsonl(self, name, scenario_file, tmp_path):
        path = scenario_file(builtin_scenario_text(name), f"{name}.scn")
        assert main(["run", str(path), "--seed", "3", "--steps", "15000",
                     "--trace", str(tmp_path / "cli.jsonl")]) == 0
        cfg = SimConfig(scenario=parse_scenario(builtin_scenario_text(name), name=name),
                        seed=3, max_steps=15000)
        _, trace = run_episode(cfg)
        write_trace_jsonl(trace, tmp_path / "api.jsonl")
        assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "api.jsonl").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["api.jsonl", "cli.jsonl", f"{name}.scn"]

    def test_stuck_run_leaves_the_old_trace_and_no_temporary_file(self, scenario_file, tmp_path):
        path = scenario_file(GUARDED_AUTO_CYCLE, "cycle.scn")
        trace = tmp_path / "t.jsonl"
        trace.write_text("old\n")
        assert main(["run", str(path), "--steps", "5", "--trace", str(trace)]) == 4
        assert trace.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cycle.scn", "t.jsonl"]

    def test_trace_onto_a_directory_is_io_error_and_leaves_no_temporary_file(
        self, dual_source_path, tmp_path
    ):
        target = tmp_path / "out"
        target.mkdir()
        assert main(["run", str(dual_source_path), "--steps", "50", "--trace", str(target)]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dual_source.scn", "out"]

    def test_run_without_trace_builds_no_trace_rows(self, dual_source_path, monkeypatch, capsys):
        def refuse(**fields):
            raise AssertionError("run built a trace row")

        monkeypatch.setattr(sim, "TraceEvent", refuse)
        assert main(["run", str(dual_source_path), "--steps", "1200"]) == 0
        assert capsys.readouterr().out == "outcome=survived_to_horizon lifetime=1200\n"


class TestBadWeightsFile:
    @pytest.mark.parametrize("verb", [["run"], ["mc", "--episodes", "2"]])
    @pytest.mark.parametrize("content, message", [
        pytest.param(b"node,option,w\n", "line 1: bad header", id="bad_header"),
        pytest.param(
            b"node,option,w_pos,w_neg,successes,failures\n"
            b"pick,a,0.5,0.5,0,0\n"
            b"pick,\xff,0.5,0.5,0,0\n",
            "line 3: not UTF-8 text",
            id="not_utf8",
        ),
    ])
    def test_exits_three_naming_the_file_and_line(
        self, verb, content, message, scenario_file, tmp_path, capsys
    ):
        path = scenario_file(builtin_scenario_text("learning_lab"), "lab.scn")
        weights = tmp_path / "bad.csv"
        weights.write_bytes(content)
        code = main([
            verb[0], str(path), "--steps", "50", "--memory", "nonvolatile",
            "--weights", str(weights), *verb[1:],
        ])
        assert code == 3
        assert capsys.readouterr().err == f"{weights}: {message}\n"
        assert weights.read_bytes() == content


class TestNotUtf8Scenario:
    @pytest.mark.parametrize("verb", [["validate"], ["run"], ["mc", "--episodes", "2"]])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_exits_one_at_the_line_of_the_first_bad_byte(self, verb, newline, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_bytes(newline.join([b"[machine top entry]", b"initial -> a", b"# \xff", b"state a", b""]))
        assert main([verb[0], str(path), *verb[1:]]) == 1
        assert capsys.readouterr().err == f"{path}:3:1: error: not UTF-8 text\n"


class TestStuckMachine:
    @pytest.mark.parametrize("verb", [["run"], ["mc", "--episodes", "2"]])
    def test_auto_cycle_exits_four_with_step_path_and_event(self, verb, scenario_file, capsys):
        path = scenario_file(GUARDED_AUTO_CYCLE, "cycle.scn")
        assert main(["validate", str(path)]) == 0
        assert "cycle.scn:4:1: warning: auto cycle through a, b" in capsys.readouterr().err
        assert main([verb[0], str(path), "--steps", "5", *verb[1:]]) == 4
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("machine stuck at step 1 in top/a on event 'auto':")
        assert "Traceback" not in err


class TestMonteCarlo:
    def test_row_count_matches_episodes(self, scenario_file, tmp_path, capsys):
        path = scenario_file(builtin_scenario_text("learning_lab"), "lab.scn")
        out_csv = tmp_path / "s.csv"
        code = main([
            "mc", str(path), "--episodes", "12", "--seed", "1",
            "--steps", "300", "--out", str(out_csv),
        ])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 13  # header + 12 rows
        summary = capsys.readouterr().out
        assert summary.startswith("survival=")
        assert "mean_lifetime=" in summary and "entropy=" in summary

    def test_zero_episodes_is_usage_error(self, dual_source_path):
        assert main(["mc", str(dual_source_path), "--episodes", "0"]) == 2

    def test_nonvolatile_beats_volatile_on_learning_scenario(self, scenario_file, tmp_path):
        from foragesim.scenario import parse_scenario
        from foragesim.sim import MEMORY_NONVOLATILE, SimConfig, run_monte_carlo

        scenario = parse_scenario(builtin_scenario_text("learning_lab"), name="lab")
        volatile = run_monte_carlo(
            SimConfig(scenario=scenario, seed=1, max_steps=300), 20
        )
        nonvolatile = run_monte_carlo(
            SimConfig(
                scenario=scenario, seed=1, max_steps=300,
                memory_mode=MEMORY_NONVOLATILE,
                weights_path=tmp_path / "w.csv",
            ),
            20,
        )
        assert nonvolatile.survival_fraction >= volatile.survival_fraction
        assert nonvolatile.survival_fraction > 0.5


class TestEntryPoint:
    def test_module_invocation(self, dual_source_path):
        # run from the directory the package was imported from, so that the
        # child finds the same code without an install
        proc = subprocess.run(
            [sys.executable, "-m", "foragesim", "validate", str(dual_source_path)],
            capture_output=True,
            text=True,
            cwd=Path(foragesim.__file__).parents[1],
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
