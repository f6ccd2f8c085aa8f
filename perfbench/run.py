#!/usr/bin/env python3
"""foragesim benchmark: one workload per call, seeded, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: mc_quiet, trace_run,
learning_lives, scenario_cli (see BENCHMARK.json for why each exists).

The workload runs in a child process of its own (workloads.py), so its peak
RSS is not this script's. With --trace 0 the last line holds the end-to-end
metrics; with --trace 1 a traced run gives the per-layer metrics. Times are in
reference seconds: wall time scaled by the host's speed on a fixed kernel
(hostspeed.py), so that a host that slows down does not read as a
regression. The lines before the last give each metric with its unit, the
output digest and the simulated counts; the last line is one JSON object
with the keys correct, attempted, failed and metrics.

Temporary files go to .perfbench_tmp/ in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170  # a run must end within 180 s


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child(args: list[str], deadline: float, env: dict) -> dict:
    """Run workloads.py with `args`; returns its JSON line or raises RuntimeError."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload child timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}: {' '.join(args)}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "foragesim" / "__init__.py").is_file():
        print(f"foragesim sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, PYTHONPATH=str(SRC))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]
    try:
        report = child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline, env
        )
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    values = dict(report["metrics"])
    values["setup_s"] = report["setup_s"]
    values["peak_rss_mb"] = report["peak_rss_mb"]
    metrics = {}
    for m in wanted:
        if not math.isfinite(values.get(m["name"], math.nan)):
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for key in ("samples", "known_bad_failures", "mismatches", "unexpected_failures"):
        if report.get(key):
            print(f"{key} {json.dumps(report[key])}")
    print(f"digest {report['digest']}")
    print(f"counts {json.dumps(report['counts'])}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
