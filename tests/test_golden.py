"""Golden corpus: sha256 of the raw output bytes of every built-in scenario.

For each built-in x seeds {0, 1, 7} x {volatile, nonvolatile} at 1,500 steps
it hashes the `write_trace_jsonl` file of one `run_episode`, the
`write_stats_csv` file of `run_monte_carlo(cfg, 3)` and, in nonvolatile mode,
the weights CSV that batch leaves behind. The bytes are hashed as written, so
a change of key order in a trace row fails here too.

The corpus in `golden.json` changes only with a deliberate change of
behaviour. Re-record it from the root of a checkout with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from foragesim.scenarios import BUILTIN_NAMES, builtin_scenario
from foragesim.sim import (
    MEMORY_NONVOLATILE,
    MEMORY_VOLATILE,
    SimConfig,
    run_episode,
    run_monte_carlo,
    write_stats_csv,
    write_trace_jsonl,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SEEDS = (0, 1, 7)
MODES = (MEMORY_VOLATILE, MEMORY_NONVOLATILE)
STEPS = 1500
CASES = [f"{name}/{seed}/{mode}" for name in BUILTIN_NAMES for seed in SEEDS for mode in MODES]


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(case: str, tmp: Path) -> dict[str, str]:
    name, seed, mode = case.split("/")

    def config(weights_name: str) -> SimConfig:
        return SimConfig(
            scenario=builtin_scenario(name), seed=int(seed), max_steps=STEPS, memory_mode=mode,
            weights_path=tmp / weights_name if mode == MEMORY_NONVOLATILE else None,
        )

    _, trace = run_episode(config("episode.csv"))
    write_trace_jsonl(trace, tmp / "trace.jsonl")
    write_stats_csv(run_monte_carlo(config("mc.csv"), 3), tmp / "stats.csv")
    out = {"trace": _sha(tmp / "trace.jsonl"), "stats": _sha(tmp / "stats.csv")}
    if mode == MEMORY_NONVOLATILE:
        out["weights"] = _sha(tmp / "mc.csv")
    return out


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_digests(case, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digests(case, tmp_path) == golden[case]


def record() -> None:
    golden = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = digests(case, Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    record()
