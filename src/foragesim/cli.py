"""Command line: validate scenarios, run single episodes, run Monte Carlo batches.

Exit codes: 0 success, 1 validation errors (including a scenario file that is
not UTF-8 text, named with its line), 2 usage errors, 3 runtime I/O
failures (including a malformed or non-UTF-8 weights file, named with its
CSV line), 4 a state machine that cannot make progress (the message names the
step, the active state path and the event). All randomness flows from --seed;
a repeated invocation writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenario import Diagnostic, ScenarioError, parse_scenario_checked
from .sim import (
    MEMORY_NONVOLATILE,
    MEMORY_VOLATILE,
    SimConfig,
    run_episode,
    run_monte_carlo,
    write_stats_csv,
    write_trace_jsonl,
)
from .statemachine import MachineStuckError
from .weights import WeightsFileError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_STUCK = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foragesim",
        description="Deterministic simulator of a recharge-seeking robot.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario", help="path to a .scn file")

    def add_run_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--steps", type=int, default=10_000)
        p.add_argument(
            "--memory", choices=[MEMORY_VOLATILE, MEMORY_NONVOLATILE],
            default=MEMORY_VOLATILE,
        )
        p.add_argument("--weights", default=None, help="weights CSV (nonvolatile mode)")

    p_run = sub.add_parser("run", help="run a single episode")
    p_run.add_argument("scenario")
    add_run_flags(p_run)
    p_run.add_argument("--trace", default=None, help="write the trace as JSON lines")

    p_mc = sub.add_parser("mc", help="run a Monte Carlo batch")
    p_mc.add_argument("scenario")
    add_run_flags(p_mc)
    p_mc.add_argument("--episodes", type=int, default=100)
    p_mc.add_argument("--out", default=None, help="write per-episode stats CSV")

    return parser


def _load_scenario(path_text: str):
    """Returns (scenario, exit_code); scenario is None when exit_code != 0."""
    path = Path(path_text)
    try:
        data = path.read_bytes()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    try:
        scenario, diagnostics = parse_scenario_checked(data.decode("utf-8"), name=path.stem)
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())  # as the parser counts
        scenario, diagnostics = None, [Diagnostic("error", line, 1, "not UTF-8 text")]
    errors = [d for d in diagnostics if d.severity == "error"]
    for diag in diagnostics:
        print(f"{path}:{diag}", file=sys.stderr)
    if errors or scenario is None:
        return None, EXIT_VALIDATION
    return scenario, EXIT_OK


def _make_config(scenario, args) -> SimConfig | None:
    if args.memory == MEMORY_NONVOLATILE and args.weights is None:
        print("--memory nonvolatile requires --weights", file=sys.stderr)
        return None
    if args.memory == MEMORY_VOLATILE and args.weights is not None:
        print("--weights only applies to --memory nonvolatile", file=sys.stderr)
        return None
    try:
        return SimConfig(
            scenario=scenario,
            seed=args.seed,
            memory_mode=args.memory,
            max_steps=args.steps,
            weights_path=args.weights,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None


def _cmd_validate(args) -> int:
    _, code = _load_scenario(args.scenario)
    return code


def _cmd_run(args) -> int:
    scenario, code = _load_scenario(args.scenario)
    if scenario is None:
        return code
    cfg = _make_config(scenario, args)
    if cfg is None:
        return EXIT_USAGE
    try:
        result, trace = run_episode(cfg)
        if args.trace is not None:
            write_trace_jsonl(trace, args.trace)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"outcome={result.outcome} lifetime={result.lifetime}")
    return EXIT_OK


def _cmd_mc(args) -> int:
    scenario, code = _load_scenario(args.scenario)
    if scenario is None:
        return code
    if args.episodes < 1:
        print("--episodes must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    cfg = _make_config(scenario, args)
    if cfg is None:
        return EXIT_USAGE
    try:
        stats = run_monte_carlo(cfg, args.episodes)
        if args.out is not None:
            write_stats_csv(stats, args.out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"survival={stats.survival_fraction:.3f} "
        f"mean_lifetime={stats.mean_lifetime:.1f} "
        f"entropy={stats.behavioral_entropy:.3f}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.verb == "validate":
            return _cmd_validate(args)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "mc":
            return _cmd_mc(args)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except MachineStuckError as exc:
        print(
            f"machine stuck at step {exc.step} in {'/'.join(exc.path)} "
            f"on event '{exc.event}': {exc}",
            file=sys.stderr,
        )
        return EXIT_STUCK
    except WeightsFileError as exc:
        print(f"{args.weights}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
