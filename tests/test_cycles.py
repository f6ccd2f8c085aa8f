"""Feeding cycles: an untraced life jumps whole periods of its cycle.

After each quiet stretch an untraced life (`run_life` without a trace, and
every life of `run_monte_carlo`) keys its loop state. When a state comes back
with no tie draw, no failure and one option per choice node in between, the
life jumps the whole periods that end before its last tick (the
`foragesim.sim` docstring says why that is exact). A traced life never jumps,
so `run_episode` is the reference: each untraced life must equal it, final
weights included, or raise the same `MachineStuckError`.
"""

import re
import sys
from pathlib import Path

import pytest

from foragesim import sim
from foragesim.scenario import parse_scenario, serialize_scenario
from foragesim.scenarios import BUILTIN_NAMES, builtin_scenario, builtin_scenario_text
from foragesim.sim import (
    CYCLE_STATES,
    MEMORY_NONVOLATILE,
    OUTCOME_SURVIVED,
    SimConfig,
    run_episode,
    run_life,
    run_monte_carlo,
)
from foragesim.statemachine import MachineStuckError
from foragesim.weights import WeightTable, record_outcome

sys.path.insert(0, str(Path(__file__).parent))
from genscenarios import random_scenario  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))
from survival_vs_drain import scaled  # noqa: E402

LONG = 200_000

# CI's `hash-seed` job builds this variant with sed: both seek weights tied
TIED_DUAL_SOURCE = re.sub(r"(?m)^(seek\.[a-z_]*) = .*$", r"\1 = 0.5 0.5",
                          builtin_scenario_text("dual_source"))

WORLD = """
[world]
grid = 8 8
robot.start = 2 2
station.pos = 2 2
station.charge_rate = 1
beacon.pos = 2 2
beacon.tx_power = 2
beacon.i_min = 0.1

[energy]
battery_capacity = 10
capacitor_capacity = 2
threshold.low = 0.5
threshold.lower = 0.25
"""

# idle to power_low, then charge at the station until the battery is full; the
# feeder's exit is tagged {tag}, and after enough failures `starve` is chosen
FEED = """
[machine top entry]
initial -> rest
state rest -> pick on power_low
choice pick : feed | starve
submachine feed = feeder -> rest on back
state starve

[machine feeder]
initial -> recharge
state recharge -> exit.back on waitTimer_expired
exit back ({tag})

[weights]
pick.feed = 0.9 0.0
pick.starve = 0.0 1.0
""" + WORLD

# no seed weights, so every choice is a tie; the machine finishes and restarts
# without an outcome, so the tie stays and each period draws
TIED = """
[machine top entry]
initial -> rest
state rest -> pick on power_low
choice pick : recharge | charge
state recharge -> final on waitTimer_expired
state charge -> final on waitTimer_expired
final done
""" + WORLD

# each visit to the beacon tops the battery up and spills the rest into a
# capacitor that holds a million units, so its level only grows: the loop
# state never comes back
NEVER_REPEATS = """
[machine top entry]
initial -> charge
state charge -> rest on waitTimer_expired
state rest -> charge on power_low

[world]
grid = 8 8
robot.start = 2 2
beacon.pos = 2 2
beacon.tx_power = 1
beacon.i_min = 0.1

[energy]
battery_capacity = 10
capacitor_capacity = 1000000
capacitor_initial = 0
threshold.low = 0.99
threshold.lower = 0.5
"""


def _outcome(call, *args):
    """`call(*args)`, or the stuck error it raises as a tuple."""
    try:
        return call(*args)
    except MachineStuckError as exc:
        return ("stuck", exc.step, exc.path, exc.event)


def _batch(lives):
    """What a batch of these lives gives: their results, or the first one stuck."""
    return next((r for r in lives if type(r) is tuple), lives)


def _assert_untraced_equal_traced(scenario, seed, steps, tmp_path, lives=2):
    """`run_life`, and a volatile and a nonvolatile `run_monte_carlo` of
    `lives` lives, equal `run_episode` of the same seeds; the nonvolatile
    lives thread one table, and leave the same weights file."""
    cfg = SimConfig(scenario, seed=seed, max_steps=steps)
    traced = [_outcome(lambda c: run_episode(c)[0], cfg._replace(seed=seed + i))
              for i in range(lives)]
    assert _outcome(run_life, cfg) == traced[0]
    stats = _outcome(run_monte_carlo, cfg, lives)
    assert (stats if type(stats) is tuple else stats.results) == _batch(traced)

    def config(name, s=seed):
        return cfg._replace(seed=s, memory_mode=MEMORY_NONVOLATILE, weights_path=tmp_path / name)

    table = WeightTable(scenario.seed_weights)
    traced = _batch([_outcome(lambda c: run_episode(c, table)[0], config("traced.csv", seed + i))
                     for i in range(lives)])
    stats = _outcome(run_monte_carlo, config("mc.csv"), lives)
    if type(stats) is tuple:
        assert stats == traced
    else:
        assert stats.results == traced
        assert (tmp_path / "mc.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()


class _Jumps:
    """Records each jump `_Episode._periods` makes, as (step, period, steps
    jumped), how often it was asked and how often the loop state had been
    seen, and the size of the state table each time."""

    def __init__(self, monkeypatch):
        self.jumps, self.asked, self.returned, self.sizes = [], 0, 0, []
        original = sim._Episode._periods

        def periods(episode, step):
            self.asked += 1
            self.sizes.append(len(episode.seen))
            mark = episode.seen.get(episode._loop_state())
            self.returned += mark is not None
            jumped = original(episode, step)
            if jumped:
                self.jumps.append((step, step - mark[0], jumped))
            return jumped

        monkeypatch.setattr(sim._Episode, "_periods", periods)


def _keyed_at_100():
    """A fresh untraced `dual_source` life of 10,000 steps that has keyed its
    loop state at step 100; the same state at step 200 jumps JUMPED_AT_200."""
    scenario = builtin_scenario("dual_source")
    episode = sim._Episode(SimConfig(scenario, max_steps=10_000),
                           WeightTable(scenario.seed_weights), None)
    assert episode._periods(100) == 0
    return episode


JUMPED_AT_200 = (10_000 - 1 - 200) // 100 * 100


def _set_watcher(episode):
    episode.watcher.update(episode.energy._replace(battery=40.0))


# each changes one part of the loop state of a fresh `dual_source` life
_PARTS = {
    "energy": lambda ep: setattr(ep, "energy", ep.energy._replace(battery=50.0)),
    "pose": lambda ep: setattr(ep, "pose", (0, 0)),
    "pursuits": lambda ep: ep.instance.pursuits[-1].append(("seek", "find_station")),
    "watcher": _set_watcher,
    "charge_ticks": lambda ep: setattr(ep, "charge_ticks", 3),
    "wait_sent": lambda ep: setattr(ep, "wait_sent", True),
    "queue": lambda ep: ep.queue.append("power_low"),
}


class TestDifferential:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_at_200000_steps(self, name, tmp_path):
        _assert_untraced_equal_traced(builtin_scenario(name), 3, LONG, tmp_path)

    @pytest.mark.parametrize("drain", [1, 4, 10.5, 10.875, 10.9, 16])
    def test_dual_source_drain_sweep_at_200000_steps(self, drain, tmp_path):
        scenario = scaled(builtin_scenario("dual_source"), drain)
        _assert_untraced_equal_traced(scenario, 0, LONG, tmp_path)

    def test_tied_dual_source(self, tmp_path, monkeypatch):
        jumps = _Jumps(monkeypatch)
        scenario = parse_scenario(TIED_DUAL_SOURCE, name="dual_source_tied")
        _assert_untraced_equal_traced(scenario, 3, LONG, tmp_path, lives=4)
        assert jumps.jumps  # the tie is drawn once, then the cycle is jumped

    def test_generated_scenarios(self, tmp_path):
        for seed in range(120):
            scenario = parse_scenario(serialize_scenario(random_scenario(seed)))
            (tmp_path / str(seed)).mkdir()
            _assert_untraced_equal_traced(scenario, seed, 3000, tmp_path / str(seed))

    @pytest.mark.parametrize("text, seed", [(builtin_scenario_text("dual_source"), 3),
                                            (FEED.format(tag="success"), 0)],
                             ids=["dual_source", "feed"])
    def test_horizons_at_and_next_to_a_whole_number_of_periods(self, text, seed, tmp_path,
                                                               monkeypatch):
        # s1: the step at which the loop state first comes back
        jumps = _Jumps(monkeypatch)
        scenario = parse_scenario(text)
        run_life(SimConfig(scenario, seed=seed, max_steps=LONG))
        [(s1, period, _)] = jumps.jumps
        for periods in (2, 3):
            for offset in (-1, 0, 1):
                steps = s1 + periods * period + offset
                jumps.jumps.clear()
                run_life(SimConfig(scenario, seed=seed, max_steps=steps))
                # the last tick always runs, so `periods` whole periods are
                # jumped only when a tick is left after them
                assert jumps.jumps == [(s1, period, (steps - 1 - s1) // period * period)]
                (tmp_path / str(steps)).mkdir()
                _assert_untraced_equal_traced(scenario, seed, steps, tmp_path / str(steps))


class TestJump:
    def test_full_ticks_stop_growing_with_the_horizon(self, monkeypatch):
        full = []
        original = sim.tick_discharge
        monkeypatch.setattr(sim, "tick_discharge", lambda *args: full.append(1) or original(*args))
        cfg = SimConfig(builtin_scenario("dual_source"), seed=3, max_steps=LONG)
        untraced = run_life(cfg)
        untraced_ticks, full[:] = len(full), []
        traced = run_episode(cfg)[0]
        assert untraced == traced and untraced.outcome == OUTCOME_SURVIVED
        assert 0 < untraced_ticks * 20 < len(full)

    def test_traced_life_writes_every_tick_row(self, tmp_path, monkeypatch):
        jumps = _Jumps(monkeypatch)
        cfg = SimConfig(builtin_scenario("dual_source"), seed=3, max_steps=LONG)
        path = tmp_path / "trace.jsonl"
        traced = run_life(cfg, path)
        assert not jumps.asked
        with path.open() as fh:
            assert sum('"battery"' in line for line in fh) == LONG
        assert run_life(cfg) == traced
        assert jumps.jumps

    def test_the_state_table_stays_within_its_limit(self, monkeypatch):
        jumps = _Jumps(monkeypatch)
        scenario = parse_scenario(NEVER_REPEATS)
        cfg = SimConfig(scenario, max_steps=20_000)
        result = run_life(cfg)
        assert result == run_episode(cfg)[0] and result.outcome == OUTCOME_SURVIVED
        assert jumps.asked > 3 * CYCLE_STATES
        assert max(jumps.sizes) == CYCLE_STATES
        assert not jumps.jumps

    # dual_source's thresholds are at 50% and 25% of a 100-unit battery
    @pytest.mark.parametrize("batteries", [(60.0, 90.0), (30.0, 45.0), (5.0, 20.0)],
                             ids=["above_low", "between", "below_lower"])
    def test_the_watcher_is_keyed_by_its_flags_alone(self, batteries):
        # its last fraction does not decide its next events, so it is no part of the key
        scenario, keys = builtin_scenario("dual_source"), []
        for battery in batteries:
            episode = sim._Episode(SimConfig(scenario), WeightTable(scenario.seed_weights), None)
            episode.watcher.update(episode.energy._replace(battery=battery))
            keys.append(episode._loop_state())
        assert keys[0] == keys[1]

    def test_a_watcher_update_that_flips_no_flag_is_a_repeat(self):
        episode = _keyed_at_100()
        episode.watcher.update(episode.energy._replace(battery=60.0))
        assert episode._periods(200) == JUMPED_AT_200

    def test_a_successful_feeding_cycle_is_jumped(self, tmp_path, monkeypatch):
        jumps = _Jumps(monkeypatch)
        _assert_untraced_equal_traced(parse_scenario(FEED.format(tag="success")), 0, 20_000,
                                      tmp_path)
        assert jumps.jumps


class TestNoJump:
    """A period that holds a failure, a draw, or two options picked at one
    choice node ends where it began, but the next period may differ: it is
    not jumped."""

    @pytest.mark.parametrize("text", [FEED.format(tag="failure"), TIED],
                             ids=["failure", "draw"])
    def test_period_is_not_jumped(self, text, tmp_path, monkeypatch):
        jumps = _Jumps(monkeypatch)
        _assert_untraced_equal_traced(parse_scenario(text), 1, 20_000, tmp_path)
        assert jumps.returned and not jumps.jumps

    @pytest.mark.parametrize("options", [("find_station",),
                                         ("find_station", "find_wireless_power")])
    def test_a_node_that_picked_two_options_is_not_jumped(self, options):
        # two options of one node can swap as their failure weights halve,
        # until halving among subnormals ties them; none of the scenarios
        # here reaches that, so the period is built by hand
        episode = _keyed_at_100()
        for option in options:
            episode.choices_made[("seek", option)] += 1
            record_outcome(episode.table, "seek", option, True)
        assert episode._periods(200) == (0 if len(options) > 1 else JUMPED_AT_200)

    @pytest.mark.parametrize("part", [None, *_PARTS])
    def test_a_state_that_differs_in_one_part_is_no_repeat(self, part):
        episode = _keyed_at_100()
        if part is not None:
            _PARTS[part](episode)
        assert episode._periods(200) == (0 if part else JUMPED_AT_200)
