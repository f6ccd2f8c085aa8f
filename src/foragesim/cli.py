"""Command line: validate scenarios, run single episodes, run Monte Carlo batches.

Exit codes: 0 success, 1 validation errors (including a scenario file that is
not UTF-8 text, named with its line), 2 usage errors, 3 runtime I/O
failures (including a malformed or non-UTF-8 weights file, named with its
CSV line), 4 a state machine that cannot make progress (the message names the
step, the active state path and the event). All randomness flows from --seed;
a repeated invocation writes byte-identical outputs. `run --trace` streams
the trace to disk as the life goes, so its memory does not grow with
--steps; a run that fails leaves the trace file as it was.

At start-up this module loads only the parser (`scenario`, which loads
`energy` and `world`); `run` and `mc` import the simulator when they start,
so `validate` never loads `sim`, `statemachine` or `weights`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenario import ScenarioError, decode_text, parse_scenario_checked

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_STUCK = 4

# sim's functions that callers look up on this module (perfbench/spans.py
# rebinds them here); they resolve from `sim`, loading it on first use
_SIM_NAMES = frozenset({"run_episode", "run_monte_carlo", "write_stats_csv", "write_trace_jsonl"})


def __getattr__(name: str):
    if name in _SIM_NAMES:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        p.add_argument("--memory", choices=["volatile", "nonvolatile"], default="volatile")
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
        scenario, diagnostics = parse_scenario_checked(decode_text(data), name=path.stem)
    except ScenarioError as exc:  # not UTF-8 text
        scenario, diagnostics = None, exc.diagnostics
    errors = [d for d in diagnostics if d.severity == "error"]
    for diag in diagnostics:
        print(f"{path}:{diag}", file=sys.stderr)
    if errors or scenario is None:
        return None, EXIT_VALIDATION
    return scenario, EXIT_OK


def _make_config(sim, scenario, args):
    if args.memory == sim.MEMORY_NONVOLATILE and args.weights is None:
        print("--memory nonvolatile requires --weights", file=sys.stderr)
        return None
    if args.memory == sim.MEMORY_VOLATILE and args.weights is not None:
        print("--weights only applies to --memory nonvolatile", file=sys.stderr)
        return None
    try:
        return sim.SimConfig(
            scenario=scenario,
            seed=args.seed,
            memory_mode=args.memory,
            max_steps=args.steps,
            weights_path=args.weights,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None


def _simulate(args) -> int:
    """`run` and `mc`: the simulator is imported here, not by `validate`."""
    scenario, code = _load_scenario(args.scenario)
    if scenario is None:
        return code
    if args.verb == "mc" and args.episodes < 1:
        print("--episodes must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    from . import sim
    from .statemachine import MachineStuckError
    from .weights import WeightsFileError

    cfg = _make_config(sim, scenario, args)
    if cfg is None:
        return EXIT_USAGE
    try:
        if args.verb == "run":
            result = sim.run_life(cfg, args.trace)
            summary = f"outcome={result.outcome} lifetime={result.lifetime}"
        else:
            stats = sim.run_monte_carlo(cfg, args.episodes)
            if args.out is not None:
                sim.write_stats_csv(stats, args.out)
            summary = (
                f"survival={stats.survival_fraction:.3f} "
                f"mean_lifetime={stats.mean_lifetime:.1f} "
                f"entropy={stats.behavioral_entropy:.3f}"
            )
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
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
    print(summary)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.verb == "validate":
        return _load_scenario(args.scenario)[1]
    return _simulate(args)


if __name__ == "__main__":
    raise SystemExit(main())
