#!/usr/bin/env python3
"""Sweep activity drain rates on dual_source and report survival statistics.

Scales every discharge rate by a multiplier and runs a small Monte Carlo
batch per point. Past some multiplier the robot can no longer make it to a
feeding source on a low battery and lifetimes collapse.

Usage: python3 scripts/survival_vs_drain.py [--episodes N] [--steps N]
"""

import argparse

from foragesim.energy import DischargeProfile
from foragesim.scenarios import builtin_scenario
from foragesim.sim import SimConfig, run_monte_carlo

MULTIPLIERS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def scaled(scenario, k):
    rates = scenario.energy_profile.rates
    new_rates = DischargeProfile(
        idle=rates.idle * k,
        move=rates.move * k,
        sense=rates.sense * k,
        process=rates.process * k,
    )
    profile = scenario.energy_profile._replace(rates=new_rates)
    return scenario._replace(energy_profile=profile)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=20)
    parser.add_argument("--steps", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = builtin_scenario("dual_source")
    print(f"{'drain x':>8} {'survival':>9} {'mean life':>10} {'entropy':>8}")
    for k in MULTIPLIERS:
        cfg = SimConfig(scenario=scaled(base, k), seed=args.seed, max_steps=args.steps)
        stats = run_monte_carlo(cfg, args.episodes)
        print(
            f"{k:>8.1f} {stats.survival_fraction:>9.2f} "
            f"{stats.mean_lifetime:>10.1f} {stats.behavioral_entropy:>8.3f}"
        )


if __name__ == "__main__":
    main()
