#!/usr/bin/env python3
"""Record golden.json: each workload's output digest for seeds 0..GOLDEN_SEEDS-1.

    python3 perfbench/golden.py

Run from the root of a checkout. A benchmark run whose seed is recorded here
fails its output check when the digest differs, so re-record only in a change
that means to alter the simulator's behaviour, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gen  # noqa: E402
import workloads  # noqa: E402

GOLDEN_SEEDS = 64


def main() -> int:
    golden = {}
    scratch = BENCH_DIR.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for name in gen.GENERATORS:
            golden[name] = {}
            for seed in range(GOLDEN_SEEDS):
                bench = workloads.Bench(name, seed, tmp)
                bench.setup()
                ops = bench.ops(in_process_cli=True)
                passes = workloads.measure(bench, ops, 0)
                digest = workloads.check_passes(bench, ops, passes)
                if bench.mismatches or bench.unexpected:
                    print(f"{name} seed {seed}: {bench.mismatches + bench.unexpected}", file=sys.stderr)
                    return 1
                golden[name][str(seed)] = digest
            print(f"{name}: {GOLDEN_SEEDS} seeds", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
