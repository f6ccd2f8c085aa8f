"""Quiet ticks: the episode loop's advance to the next event against the
tick-by-tick loop.

After a quiet tick, `_Episode.run` advances through the ticks that only drain
idle power (see the `foragesim.sim` docstring). With
`MachineInstance.quiescent` forced to False no tick is quiet, so every tick
takes the full path: that is the reference. Both must give equal results,
trace rows and weights files, or raise the same `MachineStuckError`.
"""

import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import sim
from foragesim.scenario import parse_scenario, parse_scenario_checked, serialize_scenario
from foragesim.sim import (
    MEMORY_NONVOLATILE,
    MEMORY_VOLATILE,
    OUTCOME_DIED,
    OUTCOME_SURVIVED,
    SimConfig,
    run_episode,
    run_monte_carlo,
)
from foragesim.statemachine import MachineInstance, MachineStuckError

sys.path.insert(0, str(Path(__file__).parent))
from genscenarios import random_scenario  # noqa: E402

WORLD = """
[world]
grid = 8 8
robot.start = 2 2

[energy]
battery_capacity = 10
capacitor_capacity = 2
threshold.low = 0.5
threshold.lower = 0.25
"""

# idles through low, then lower, then drains battery and capacitor to death
HUNGER = """
[machine top entry]
initial -> rest
state rest -> hungry on power_low
state hungry -> starving on power_lower
state starving
""" + WORLD

# no arm reacts to power_low, so only the guard sees the crossing
GUARDED = """
[machine top entry]
initial -> rest
state rest -> eat on auto if powerLow
state eat
""" + WORLD

# with no beacon, engage_resonance says no_signal every tick: the machine
# finishes and restarts onto its choice, which the next tick resolves
RESTART_ON_CHOICE = """
[machine top entry]
initial -> pick
choice pick : engage_resonance | rest
state engage_resonance -> done on no_signal
state rest
final done

[weights]
pick.engage_resonance = 0.9 0.1
pick.rest = 0.1 0.9
""" + WORLD


def _play(scenario, seed, memory, api, steps):
    """The run's outcome (results and trace, or the stuck error) and the weights file."""
    with tempfile.TemporaryDirectory() as tmp:
        weights = Path(tmp) / "w.csv" if memory == MEMORY_NONVOLATILE else None
        cfg = SimConfig(
            scenario, seed=seed, memory_mode=memory, max_steps=steps, weights_path=weights
        )
        try:
            out = run_episode(cfg) if api == "run_episode" else run_monte_carlo(cfg, 3)
        except MachineStuckError as exc:
            out = ("stuck", exc.step, exc.path, exc.event)
        return out, weights.read_bytes() if weights and weights.exists() else None


def _tick_by_tick(*args):
    with mock.patch.object(MachineInstance, "quiescent", lambda self, ctx: False):
        return _play(*args)


def _counted_discharges(monkeypatch):
    calls = []
    original = sim.tick_discharge

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(sim, "tick_discharge", counting)
    return calls


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    scenario_seed=st.integers(0, 10_000),
    sim_seed=st.integers(0, 50),
    memory=st.sampled_from([MEMORY_VOLATILE, MEMORY_NONVOLATILE]),
    api=st.sampled_from(["run_episode", "run_monte_carlo"]),
)
def test_quiet_advance_matches_tick_by_tick(scenario_seed, sim_seed, memory, api):
    args = (random_scenario(scenario_seed), sim_seed, memory, api, 300)
    assert _play(*args) == _tick_by_tick(*args)


def test_stretch_crosses_low_then_lower_then_dies(monkeypatch):
    scenario = parse_scenario(HUNGER)
    calls = _counted_discharges(monkeypatch)
    (result, trace), _ = _play(scenario, 0, MEMORY_VOLATILE, "run_episode", 1000)
    assert result.outcome == OUTCOME_DIED
    assert 0 < len(calls) < result.lifetime
    states = [row.state for row in trace if row.event is not None]
    assert states == ["top/hungry", "top/starving"]
    assert trace[-1].mood == "dead" and trace[-2].battery == 0.0 < trace[-2].capacitor
    assert [row.step for row in trace if row.event is None] == list(range(1, result.lifetime + 1))
    assert _play(scenario, 0, MEMORY_VOLATILE, "run_episode", 1000) == _tick_by_tick(
        scenario, 0, MEMORY_VOLATILE, "run_episode", 1000
    )


def test_stretch_cut_by_the_horizon(monkeypatch):
    scenario = parse_scenario(HUNGER)
    calls = _counted_discharges(monkeypatch)
    (result, trace), _ = _play(scenario, 0, MEMORY_VOLATILE, "run_episode", 30)
    assert result.outcome == OUTCOME_SURVIVED and result.lifetime == 30
    assert len(calls) < 30 and trace[-1].step == 30
    for api in ("run_episode", "run_monte_carlo"):
        args = (scenario, 0, MEMORY_VOLATILE, api, 30)
        assert _play(*args) == _tick_by_tick(*args)


def test_guard_turning_on_mid_stretch_fires_the_auto_arm(monkeypatch):
    scenario = parse_scenario(GUARDED)
    calls = _counted_discharges(monkeypatch)
    (result, trace), _ = _play(scenario, 0, MEMORY_VOLATILE, "run_episode", 200)
    assert len(calls) < result.lifetime
    fired = [row for row in trace if row.event == "auto"]
    assert len(fired) == 1 and fired[0].state == "top/eat"
    # the arm fires on the tick after the one whose drain crossed low
    crossing = next(row for row in trace if row.battery is not None and row.battery < 5)
    assert fired[0].step == crossing.step + 1
    args = (scenario, 0, MEMORY_VOLATILE, "run_episode", 200)
    assert _play(*args) == _tick_by_tick(*args)


def test_machine_restarted_onto_a_choice_is_not_quiet():
    scenario = parse_scenario(RESTART_ON_CHOICE)
    args = (scenario, 0, MEMORY_VOLATILE, "run_episode", 50)
    (result, _), _ = _play(*args)
    assert result.choices_made[("pick", "engage_resonance")] > 25
    assert _play(*args) == _tick_by_tick(*args)


def test_validate_clean_generated_scenarios_run_clean():
    """Without errors or an `auto`-cycle warning, a scenario runs without an exception."""
    ran = 0
    for seed in range(150):
        scenario, diags = parse_scenario_checked(serialize_scenario(random_scenario(seed)))
        assert not [d for d in diags if d.severity == "error"]
        if any("auto cycle" in d.message for d in diags):
            continue
        for memory in (MEMORY_VOLATILE, MEMORY_NONVOLATILE):
            out, _ = _play(scenario, seed, memory, "run_episode", 300)
            assert out[0] != "stuck", out
        ran += 1
    assert ran > 75
