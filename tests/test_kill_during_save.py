"""A nonvolatile batch killed at any point of a weights save can be resumed.

Each child runs `foragesim mc --memory nonvolatile` with `weights.replacing`
wrapped so that the child SIGKILLs itself at its k-th kill point: a write to
the temporary file, or the `os.replace` that puts it in place, in each save of
the weights and in the write of the stats CSV at the end. After each kill the
weights CSV must be the one some whole life of the uninterrupted batch left
(or absent, before the first save), and running the rest of the batch from it
must give the uninterrupted batch's remaining stats rows and its final CSV,
byte for byte.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import foragesim
from foragesim.cli import main
from foragesim.scenarios import builtin_scenario_text

SRC = str(Path(foragesim.__file__).parents[1])

EPISODES = 4
STEPS = "1000"

CHILD = """
import contextlib, os, signal, sys, types
from foragesim import cli, weights

kill_at, calls = int(sys.argv[1]), 0


def kill_point():
    global calls
    calls += 1
    if calls == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)


class KillingFile:
    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        kill_point()
        return self._fh.write(text)


real_replacing = weights.replacing


@contextlib.contextmanager
def replacing(path, newline=None):
    with real_replacing(path, newline) as fh:
        yield KillingFile(fh)


def replace(src, dst):
    kill_point()
    os.replace(src, dst)


weights.replacing = replacing
weights.os = types.SimpleNamespace(replace=replace)  # what `real_replacing` calls
code = cli.main(sys.argv[2:])
print(calls)
sys.exit(code)
"""


def _mc(scn, weights, seed, episodes, out):
    return ["mc", str(scn), "--memory", "nonvolatile", "--weights", str(weights),
            "--seed", str(seed), "--episodes", str(episodes), "--steps", STEPS, "--out", str(out)]


def _rows(stats: Path) -> list[str]:
    """The stats rows without their episode numbers."""
    return [line.partition(",")[2] for line in stats.read_text().splitlines()[1:]]


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_every_kill_point_leaves_a_resumable_csv(tmp_path):
    scn = tmp_path / "learning_lab.scn"
    scn.write_text(builtin_scenario_text("learning_lab"))
    # the CSV after each whole life of the uninterrupted batch, and its stats
    after = []
    for lives in range(1, EPISODES + 1):
        run = tmp_path / f"lives{lives}"
        run.mkdir()
        assert main(_mc(scn, run / "w.csv", 0, lives, run / "stats.csv")) == 0
        after.append((run / "w.csv").read_bytes())
    rows = _rows(tmp_path / f"lives{EPISODES}" / "stats.csv")

    def child(kill_at: int, run: Path):
        return subprocess.run(
            [sys.executable, "-c", CHILD, str(kill_at), *_mc(scn, run / "w.csv", 0, EPISODES, run / "s.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )

    (tmp_path / "whole").mkdir()
    whole = child(0, tmp_path / "whole")
    assert whole.returncode == 0, whole.stderr
    assert (tmp_path / "whole" / "w.csv").read_bytes() == after[-1]
    points = int(whole.stdout.split()[-1])
    assert EPISODES * 2 <= points <= 60  # a write and a replace per save at least

    lives_before = []
    for kill_at in range(1, points + 1):
        run = tmp_path / f"kill{kill_at}"
        run.mkdir()
        killed = child(kill_at, run)
        assert killed.returncode == -signal.SIGKILL, (kill_at, killed.stderr)
        csv = run / "w.csv"
        done = after.index(csv.read_bytes()) + 1 if csv.exists() else 0
        lives_before.append(done)
        if done < EPISODES:  # else the kill hit the stats CSV, after the last save
            # resume at the next life's seed, over a stale temporary file if the kill left one
            assert main(_mc(scn, csv, done, EPISODES - done, run / "rest.csv")) == 0, kill_at
            assert _rows(run / "rest.csv") == rows[done:], kill_at
            assert not (run / "w.csv.tmp").exists()
        assert csv.read_bytes() == after[-1], kill_at
    # every save was interrupted somewhere, and a later kill never finds an earlier table
    assert sorted(set(lives_before)) == list(range(EPISODES + 1))
    assert lives_before == sorted(lives_before)
