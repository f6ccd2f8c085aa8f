import subprocess
import sys
from pathlib import Path

import pytest

import foragesim
from foragesim.cli import main
from foragesim.scenarios import builtin_scenario_text

BROKEN = """
[machine top entry]
initial -> a
state a -> foo on go
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


class TestStuckMachine:
    @pytest.mark.parametrize("verb", [["run"], ["mc", "--episodes", "2"]])
    def test_auto_cycle_exits_four_with_step_path_and_event(self, verb, scenario_file, capsys):
        path = scenario_file(AUTO_CYCLE, "cycle.scn")
        assert main(["validate", str(path)]) == 0
        assert main([verb[0], str(path), "--steps", "5", *verb[1:]]) == 4
        err = capsys.readouterr().err
        assert err.startswith("machine stuck at step 1 in top/a on event 'auto':")
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
