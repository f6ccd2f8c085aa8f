"""The experiment scripts run end to end on small arguments."""

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
    # the child imports the same package as this test, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(foragesim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--episodes", "2", "--steps", "200"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
