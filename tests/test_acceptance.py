"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Stated runtime budgets are asserted inside the tests themselves.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from foragesim.cli import main as cli_main
from foragesim.scenario import parse_scenario, parse_scenario_checked, serialize_scenario
from foragesim.scenarios import BUILTIN_NAMES, builtin_scenario, builtin_scenario_text
from foragesim.sim import (
    MEMORY_NONVOLATILE,
    OUTCOME_DIED,
    OUTCOME_SURVIVED,
    SimConfig,
    run_episode,
    run_monte_carlo,
)
from foragesim.statemachine import AUTO, STATUS_RUNNING, StaticContext, dispatch, start_instance
from foragesim.weights import WeightEntry, WeightTable, record_outcome, select_option
from foragesim.world import BeaconSpec, WorldMap, step_seek_intensity

from genscenarios import random_scenario


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({label}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({label}): PASS")


def test_criterion_1_fig4_reproduction():
    with criterion(1, "signal beats track on every seed"):
        started = time.monotonic()
        table = WeightTable(
            {
                ("decision_flow", "follow_ir_signal"): (0.8, 0.1),
                ("decision_flow", "follow_track_path"): (0.2, 0.7),
            }
        )
        options = ["follow_ir_signal", "follow_track_path"]
        for seed in range(100):
            pick = select_option(table, "decision_flow", options, random.Random(seed))
            assert pick == "follow_ir_signal"
        assert time.monotonic() - started < 1.0


def test_criterion_2_fig6_reproduction():
    with criterion(2, "wireless over station, poll over engage"):
        table = WeightTable(
            {
                ("seek", "find_wireless_power"): (0.8, 0.2),
                ("seek", "find_station"): (0.2, 0.3),
                ("discover", "engage"): (0.8, 0.7),
                ("discover", "poll"): (0.75, 0.4),
            }
        )
        rng = random.Random(0)
        assert (
            select_option(table, "seek", ["find_wireless_power", "find_station"], rng)
            == "find_wireless_power"
        )
        assert select_option(table, "discover", ["engage", "poll"], rng) == "poll"
        # same answers on any seed: both selections are deterministic
        for seed in range(20):
            rng = random.Random(seed)
            assert (
                select_option(table, "seek", ["find_wireless_power", "find_station"], rng)
                == "find_wireless_power"
            )
            assert select_option(table, "discover", ["engage", "poll"], rng) == "poll"


def _oracle_rule(pairs, tolerance=0.1, eps=1e-12):
    """Hand enumeration of the selection rule; returns (winner, tied_set)."""
    best = None
    for w_pos, _ in pairs:
        if best is None or w_pos > best:
            best = w_pos
    cands = []
    for i, (w_pos, _) in enumerate(pairs):
        if best - w_pos <= tolerance + eps:
            cands.append(i)
    if len(cands) == 1:
        return cands[0], None
    min_neg = None
    for i in cands:
        if min_neg is None or pairs[i][1] < min_neg:
            min_neg = pairs[i][1]
    tied = [i for i in cands if pairs[i][1] == min_neg]
    if len(tied) == 1:
        return tied[0], None
    return None, tied


def _check_against_oracle(pairs):
    options = [f"o{i}" for i in range(len(pairs))]
    table = WeightTable()
    for opt, (w_pos, w_neg) in zip(options, pairs):
        table.entries[("n", opt)] = WeightEntry(w_pos=w_pos, w_neg=w_neg)
    winner, tied = _oracle_rule(pairs)
    if winner is not None:
        assert select_option(table, "n", options, random.Random(0)) == options[winner]
    else:
        first = select_option(table, "n", options, random.Random(17))
        assert options.index(first) in tied
        assert select_option(table, "n", options, random.Random(17)) == first


def test_criterion_3_update_arithmetic_and_rule_sweep():
    with criterion(3, "update arithmetic and selection oracle sweep"):
        started = time.monotonic()

        table = WeightTable({("n", "a"): (0.8, 0.0)})
        assert record_outcome(table, "n", "a", success=False).w_pos == 0.4
        assert record_outcome(table, "n", "a", success=False).w_pos == 0.2

        for w0 in (0.0, 0.15, 0.5, 0.8, 1.0):
            for k in (1, 3, 10, 25):
                t = WeightTable({("n", "a"): (w0, 0.0)})
                for _ in range(k):
                    entry = record_outcome(t, "n", "a", success=True)
                assert abs(entry.w_pos - (1 - (1 - w0) / 2**k)) <= 1e-12

        grid = [round(i * 0.05, 2) for i in range(21)]
        # two options: fully exhaustive over the weight grid
        for wp_a in grid:
            for wn_a in grid:
                for wp_b in grid:
                    for wn_b in grid:
                        _check_against_oracle([(wp_a, wn_a), (wp_b, wn_b)])
        # three and four options: seeded draws from the same grid
        rng = random.Random(12345)
        for n_options in (3, 4):
            for _ in range(20_000):
                pairs = [(rng.choice(grid), rng.choice(grid)) for _ in range(n_options)]
                _check_against_oracle(pairs)

        assert time.monotonic() - started < 10.0


IDLE_ONLY = """
[machine top entry]
initial -> waiting
state waiting

[world]
grid = 4 4

[energy]
battery_capacity = {capacity}
battery_initial = {battery}
capacitor_capacity = {capacitor}
rate.idle = {drain}
rate.move = 0
rate.sense = 0
rate.process = 0
"""


def test_criterion_4_death_time_oracle():
    with criterion(4, "death at ceil((B+C)/d) ticks"):
        for battery, capacitor, drain in ((100.0, 10.0, 0.5), (10.0, 0.0, 0.3), (0.0, 10.0, 0.25)):
            text = IDLE_ONLY.format(
                capacity=max(battery, 1.0),
                battery=battery,
                capacitor=capacitor,
                drain=drain,
            )
            scenario = parse_scenario(text, name="idle_only")
            cfg = SimConfig(scenario=scenario, seed=0, max_steps=2000)
            result, _ = run_episode(cfg)
            expected = math.ceil(
                (Fraction(battery) + Fraction(capacitor)) / Fraction(drain)
            )
            assert result.outcome == OUTCOME_DIED
            assert result.death_step == expected, (battery, capacitor, drain)


def test_criterion_5_learning_across_lives(tmp_path):
    with criterion(5, "nonvolatile learning flips the seek choice"):
        started = time.monotonic()
        scenario = builtin_scenario("learning_lab")
        cfg = SimConfig(
            scenario=scenario,
            seed=1,
            memory_mode=MEMORY_NONVOLATILE,
            max_steps=400,
            weights_path=tmp_path / "weights.csv",
        )
        stats = run_monte_carlo(cfg, 100)
        seeded = "find_station"
        flipped_at = next(
            (
                i
                for i, r in enumerate(stats.results, start=1)
                if r.first_choices.get("seek", seeded) != seeded
            ),
            None,
        )
        assert flipped_at is not None and flipped_at <= 10
        first_half = sum(
            r.outcome == OUTCOME_SURVIVED for r in stats.results[:50]
        ) / 50
        second_half = sum(
            r.outcome == OUTCOME_SURVIVED for r in stats.results[50:]
        ) / 50
        assert second_half > first_half
        assert time.monotonic() - started < 30.0


def test_criterion_6_volatile_death_consequence(tmp_path, monkeypatch):
    with criterion(6, "volatile death erases all weights"):
        monkeypatch.chdir(tmp_path)
        scenario = builtin_scenario("learning_lab")
        cfg = SimConfig(scenario=scenario, seed=1, max_steps=400)
        result, _ = run_episode(cfg)
        assert result.outcome == OUTCOME_DIED
        assert all(
            entry.w_pos == 0.0 and entry.w_neg == 0.0
            for entry in result.final_weights.values()
        )
        assert list(tmp_path.iterdir()) == []  # no weights file was written


def test_criterion_7_trace_determinism(tmp_path):
    with criterion(7, "byte-identical traces for identical configs"):
        scn = tmp_path / "dual_source.scn"
        scn.write_text(builtin_scenario_text("dual_source"))
        argv = ["run", str(scn), "--seed", "7", "--steps", "2000", "--memory", "volatile"]
        t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
        assert cli_main(argv + ["--trace", str(t1)]) == 0
        assert cli_main(argv + ["--trace", str(t2)]) == 0
        b1, b2 = t1.read_bytes(), t2.read_bytes()
        assert b1 == b2 and len(b1) > 0


def test_criterion_8_rtc_and_round_trip():
    with criterion(8, "run-to-completion quiescence and parser round-trips"):
        scenario = builtin_scenario("dual_source")
        events = sorted(scenario.event_vocabulary())
        rng = random.Random(2024)
        instance = start_instance(scenario)
        ctx = StaticContext(chooser=lambda node, options: rng.choice(options))
        for _ in range(10_000):
            ctx.guards = {
                "isSignalSufficient": rng.random() < 0.5,
                "batteryFull": rng.random() < 0.5,
                "powerLow": rng.random() < 0.5,
                "powerLower": rng.random() < 0.5,
            }
            dispatch(instance, rng.choice(events), ctx)
            if instance.status != STATUS_RUNNING:
                instance = start_instance(scenario)
                continue
            assert dispatch(instance, AUTO, ctx) == []

        for name in BUILTIN_NAMES:
            s = builtin_scenario(name)
            assert parse_scenario(serialize_scenario(s), name=name) == s
        for seed in range(1000):
            s = random_scenario(seed)
            text = serialize_scenario(s)
            reparsed, diags = parse_scenario_checked(text)
            assert not [d for d in diags if d.severity == "error"]
            assert reparsed == s


def test_criterion_9_seek_intensity_convergence():
    with criterion(9, "field climbing reaches the beacon from every cell"):
        started = time.monotonic()
        world = WorldMap(width=64, height=64, beacon=BeaconSpec(pos=(41, 23), d0=6.0))
        goal = (41, 23)
        for x in range(64):
            for y in range(64):
                pose = (x, y)
                for _ in range(128):
                    if pose == goal:
                        break
                    pose = step_seek_intensity(world, pose)
                assert pose == goal, f"stuck from ({x}, {y}) at {pose}"
        assert time.monotonic() - started < 5.0
