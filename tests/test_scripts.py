"""The experiment scripts run end to end on small arguments, and print the
paper's results exactly at their defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import foragesim

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, header",
    [
        ("learning_lives.py", "episodes            : 2 x 200 ticks, seed 1"),
        ("survival_vs_drain.py", " drain x  survival  mean life  entropy"),
    ],
    ids=["learning_lives", "survival_vs_drain"],
)
def test_script_runs_and_prints_its_header(script, header):
    assert _run(script, "--episodes", "2", "--steps", "200").splitlines()[0] == header


# The paper's two claims at the scripts' defaults: feedback kept across lives
# flips a fatal first choice (learning_lives), and survival depends on how
# fast feeding must make up the drain (survival_vs_drain).
DEFAULT_OUTPUTS = {
    "learning_lives.py": """\
episodes            : 100 x 400 ticks, seed 1
volatile survival   : 0.000 (mean lifetime 3.0)
nonvolatile survival: 0.990 (mean lifetime 396.0)

survival per block of 10 lives
  volatile    : 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0
  nonvolatile : 0.9 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0 1.0

nonvolatile first beacon-first life: episode 2
""",
    "survival_vs_drain.py": """\
 drain x  survival  mean life  entropy
     0.5      1.00     3000.0    1.000
     1.0      1.00     3000.0    1.000
     2.0      1.00     3000.0    1.000
     4.0      1.00     3000.0    1.000
     8.0      1.00     3000.0    1.000
    16.0      0.00       36.0    1.000
""",
}


@pytest.mark.parametrize("script", sorted(DEFAULT_OUTPUTS))
def test_script_prints_its_results_at_the_defaults(script):
    assert _run(script) == DEFAULT_OUTPUTS[script]


def _run(script, *args):
    """The script's stdout; it must exit 0."""
    # the child imports the same package as this test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(foragesim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
