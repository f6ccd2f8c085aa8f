"""Quiet ticks: the episode loop's advance to the next event against the
tick-by-tick loop.

After a quiet tick, `_Episode.run` advances through the ticks that only drain
idle power, or drain it and charge at a constant power (see the
`foragesim.sim` docstring). With `MachineInstance.quiescent` forced to False
no tick is quiet, so every tick takes the full path: that is the reference.
Both must give equal results, trace rows and weights files, or raise the
same `MachineStuckError`. An untraced idle stretch is taken in closed form by
`energy.idle_jump`; its own reference is the stretch loop run one tick at a
time.
"""

import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import energy, sim
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


def _counting(name):
    """A wrapper of `sim.<name>` that counts its calls, and the list it counts in."""
    calls = []
    original = getattr(sim, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    return counting, calls


def _counted(monkeypatch, name):
    counting, calls = _counting(name)
    monkeypatch.setattr(sim, name, counting)
    return calls


def _charges(play, args):
    """`play(*args)` and the number of apply_charge calls it made."""
    counting, calls = _counting("apply_charge")
    with mock.patch.object(sim, "apply_charge", counting):
        return play(*args), len(calls)


def test_quiet_advance_matches_tick_by_tick():
    advanced_charging = []

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        scenario_seed=st.integers(0, 10_000),
        sim_seed=st.integers(0, 50),
        memory=st.sampled_from([MEMORY_VOLATILE, MEMORY_NONVOLATILE]),
        api=st.sampled_from(["run_episode", "run_monte_carlo"]),
    )
    def check(scenario_seed, sim_seed, memory, api):
        args = (random_scenario(scenario_seed), sim_seed, memory, api, 300)
        out, charges = _charges(_play, args)
        reference, charging_ticks = _charges(_tick_by_tick, args)
        assert out == reference
        # the reference charges on every charging tick
        if charges < charging_ticks:
            advanced_charging.append(scenario_seed)

    check()
    assert advanced_charging, "no example advanced through a charging stretch"


def test_stretch_crosses_low_then_lower_then_dies(monkeypatch):
    scenario = parse_scenario(HUNGER)
    calls = _counted(monkeypatch, "tick_discharge")
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
    calls = _counted(monkeypatch, "tick_discharge")
    (result, trace), _ = _play(scenario, 0, MEMORY_VOLATILE, "run_episode", 30)
    assert result.outcome == OUTCOME_SURVIVED and result.lifetime == 30
    assert len(calls) < 30 and trace[-1].step == 30
    for api in ("run_episode", "run_monte_carlo"):
        args = (scenario, 0, MEMORY_VOLATILE, api, 30)
        assert _play(*args) == _tick_by_tick(*args)


def test_guard_turning_on_mid_stretch_fires_the_auto_arm(monkeypatch):
    scenario = parse_scenario(GUARDED)
    calls = _counted(monkeypatch, "tick_discharge")
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


STATION_WORLD = """
[world]
grid = 8 8
robot.start = 2 2
station.pos = 2 2
station.charge_rate = {rate}

[energy]
battery_capacity = 10
capacitor_capacity = 2
battery_initial = {battery}
threshold.low = 0.5
threshold.lower = 0.25
max_charge_ticks = {max_ticks}
"""

# hungry at low, charges to full, back to rest on the charge timer
CHARGE_CYCLE = """
[machine top entry]
initial -> rest
state rest -> recharge on power_low
state recharge -> rest on waitTimer_expired
"""

# starts below lower and charges up through lower and low, re-arming both
CHARGE_FROM_EMPTY = """
[machine top entry]
initial -> recharge
state recharge -> rest on waitTimer_expired
state rest -> recharge on power_low
"""

# the station gives less than idle drains, so the battery falls through low
CHARGE_LOSING = """
[machine top entry]
initial -> recharge
state recharge -> hungry on power_low
state hungry
"""

# no arm reacts to waitTimer_expired, so the full battery idles in recharge
CHARGE_FOREVER = """
[machine top entry]
initial -> recharge
state recharge
"""

# full, the coupling's surplus spills into the capacitor every tick
WIRELESS_SPILL = """
[machine top entry]
initial -> charge
state charge

[world]
grid = 8 8
robot.start = 2 2
beacon.pos = 2 2
beacon.tx_power = 0.5

[energy]
battery_capacity = 10
capacitor_capacity = 2
battery_initial = 6
capacitor_initial = 0
"""


def _charging_advance_matches(monkeypatch, text, steps):
    """The life and its trace; checks it against tick-by-tick for both APIs,
    and that apply_charge ran on fewer ticks than the life charged."""
    scenario = parse_scenario(text)
    calls = _counted(monkeypatch, "apply_charge")
    (result, trace), _ = _play(scenario, 0, MEMORY_VOLATILE, "run_episode", steps)
    charging = sum(1 for row in trace if row.event is None and row.mood == "charging")
    assert 0 < len(calls) < charging
    for api in ("run_episode", "run_monte_carlo"):
        args = (scenario, 0, MEMORY_VOLATILE, api, steps)
        assert _play(*args) == _tick_by_tick(*args)
    return result, trace


def _ticks(trace):
    return [row for row in trace if row.event is None]


def test_station_charges_up_to_battery_full(monkeypatch):
    text = CHARGE_CYCLE + STATION_WORLD.format(rate=0.3, battery=10, max_ticks=0)
    result, trace = _charging_advance_matches(monkeypatch, text, 400)
    assert result.recharges["station"] >= 2
    full = [row for row in _ticks(trace) if row.mood == "charging" and row.battery == 10.0]
    assert len(full) == result.recharges["station"]


def test_wireless_charge_spills_into_the_capacitor(monkeypatch):
    result, trace = _charging_advance_matches(monkeypatch, WIRELESS_SPILL, 60)
    rows = _ticks(trace)
    spilled = [row.capacitor for row in rows if row.battery == 10.0]
    assert spilled[0] < spilled[2] < spilled[-1] == 2.0
    assert result.recharges == {"station": 0, "wireless": 0}


def test_max_charge_ticks_cuts_the_charge(monkeypatch):
    text = CHARGE_CYCLE + STATION_WORLD.format(rate=0.3, battery=10, max_ticks=7)
    result, trace = _charging_advance_matches(monkeypatch, text, 400)
    assert result.recharges["station"] >= 2
    runs, length = [], 0
    for row in _ticks(trace):
        if row.mood == "charging":
            length += 1
        elif length:
            runs.append(length)
            length = 0
    assert runs and set(runs) == {7}
    assert max(row.battery for row in _ticks(trace)[60:]) < 10.0


def test_drain_above_the_charge_power_crosses_low(monkeypatch):
    text = CHARGE_LOSING + STATION_WORLD.format(rate=0.05, battery=10, max_ticks=0)
    result, trace = _charging_advance_matches(monkeypatch, text, 300)
    hungry = next(row for row in trace if row.state == "top/hungry")
    crossing = next(row for row in _ticks(trace) if row.battery < 5)
    assert crossing.mood == "charging" and hungry.step == crossing.step + 1


def test_charge_re_arms_the_watcher_through_low(monkeypatch):
    text = CHARGE_FROM_EMPTY + STATION_WORLD.format(rate=0.3, battery=2, max_ticks=0)
    result, trace = _charging_advance_matches(monkeypatch, text, 300)
    # power_low fires again only because the charge re-armed it
    entered = [row.step for row in trace if row.event == "power_low"]
    assert len(entered) >= 2 and result.recharges["station"] >= 2


def test_full_battery_idles_in_recharge_without_a_charge_timer(monkeypatch):
    text = CHARGE_FOREVER + STATION_WORLD.format(rate=0.3, battery=5, max_ticks=0)
    result, trace = _charging_advance_matches(monkeypatch, text, 200)
    rows = _ticks(trace)
    assert result.recharges == {"station": 0, "wireless": 0}
    assert rows[-1].battery == 10.0 and rows[-1].mood == "charging"


# -- the idle jump against the stretch loop run one tick at a time ----------


def _per_tick(battery, capacitor, drain, capacity, low_frac, lower_frac, budget):
    """Idle ticks one at a time, up to `budget`, stopping before the tick that
    flips a hunger predicate or empties both stores: (ticks, battery, capacitor)."""
    low, lower = battery / capacity < low_frac, battery / capacity < lower_frac
    n = 0
    while n < budget:
        taken = min(battery, drain)
        b = battery - taken
        c = max(0.0, capacitor - (drain - taken))
        if (
            (b / capacity < low_frac) != low
            or (b / capacity < lower_frac) != lower
            or (b <= 0.0 and c <= 0.0)
        ):
            break
        n += 1
        battery, capacitor = b, c
    return n, battery, capacitor


def _jumping(battery, capacitor, drain, capacity, low_frac, lower_frac, budget):
    """The same stretch as an untraced life runs it: jump, else one tick."""
    n = 0
    while n < budget:
        k, battery = energy.idle_jump(battery, drain, capacity, low_frac, lower_frac, budget - n)
        if not k:
            k, battery, capacitor = _per_tick(
                battery, capacitor, drain, capacity, low_frac, lower_frac, 1
            )
            if not k:
                break
        n += k
    return n, battery, capacitor


def _bits(result):
    n, battery, capacitor = result
    return n, battery.hex(), capacitor.hex()


def _assert_jump_exact(battery, capacitor, drain, capacity, low_frac, lower_frac, budget):
    args = (battery, capacitor, drain, capacity, low_frac, lower_frac, budget)
    assert _bits(_jumping(*args)) == _bits(_per_tick(*args))
    # one jump takes only ticks the loop takes, and lands where it lands
    k, after = energy.idle_jump(battery, drain, capacity, low_frac, lower_frac, budget)
    assert _bits(_per_tick(battery, capacitor, drain, capacity, low_frac, lower_frac, k)) == (
        _bits((k, after, capacitor))
    )


_U100 = math.ulp(100.0)  # the ulp of [64, 128)
_TIE = _U100 * (round(0.1 / _U100) + 0.5)  # about 0.1, exactly half an ulp past a multiple


@pytest.mark.parametrize(
    "battery, capacitor, drain, capacity, low_frac, lower_frac, budget",
    [
        pytest.param(100.0, 1.0, _TIE, 200.0, 0.3, 0.15, 900, id="half_ulp_tie"),
        pytest.param(100.0, 1.0, _U100 / 4, 200.0, 0.3, 0.15, 5000, id="sub_half_ulp"),
        pytest.param(100.0, 1.0, _U100 / 2, 200.0, 0.3, 0.15, 500, id="half_ulp"),
        pytest.param(64.0, 1.0, 0.1, 200.0, 0.3, 0.15, 300, id="power_of_two"),
        # the second tick lands 0.3 ulp below 64 and rounds to the finer grid there
        pytest.param(
            64.0 + 10 * _U100, 1.0, 5.3 * _U100, 200.0, 0.3, 0.15, 20, id="edge_from_above"
        ),
        pytest.param(64.0, 1.0, 0.3 * _U100, 200.0, 0.3, 0.15, 50, id="power_of_two_sub_ulp"),
        pytest.param(1000.0, 1.0, 0.37, 1000.0, 0.01, 0.001, 5000, id="several_binades"),
        pytest.param(1000.0, 1.0, 0.37, 1000.0, 0.3, 0.15, 5000, id="binades_to_low"),
        pytest.param(0.05, 0.5, 0.1, 10.0, 0.5, 0.25, 100, id="battery_below_drain"),
        pytest.param(0.1, 0.3, 0.1, 10.0, 0.5, 0.25, 100, id="battery_equals_drain"),
        pytest.param(6.0, 0.0, 0.25, 10.0, 0.5, 0.25, 100, id="threshold_hit_exactly"),
        pytest.param(100.0, 1.0, 0.1, 100.0, 0.3, 0.15, 0, id="budget_0"),
        pytest.param(100.0, 1.0, 0.1, 100.0, 0.3, 0.15, 1, id="budget_1"),
        pytest.param(100.0, 1.0, 0.1, 100.0, 0.3, 0.15, 37, id="budget_cuts"),
        pytest.param(100.0, 1.0, 0.0, 100.0, 0.3, 0.15, 80, id="no_drain"),
    ],
)
def test_idle_jump_matches_the_tick_loop(
    battery, capacitor, drain, capacity, low_frac, lower_frac, budget
):
    _assert_jump_exact(battery, capacitor, drain, capacity, low_frac, lower_frac, budget)


def test_idle_jump_edges():
    jump = energy.idle_jump
    assert jump(100.0, _TIE, 200.0, 0.3, 0.15, 900) == (0, 100.0)  # a tie steps
    assert jump(100.0, _U100 / 4, 200.0, 0.3, 0.15, 5000) == (5000, 100.0)  # delta 0
    assert jump(64.0, 0.3 * _U100, 200.0, 0.3, 0.15, 50) == (0, 64.0)  # rounds below
    assert jump(0.1, 0.1, 10.0, 0.5, 0.25, 100)[0] == 0  # battery == drain
    # lands on b / capacity == low_frac, which is not below it; the next tick is
    assert jump(6.0, 0.25, 10.0, 0.5, 0.25, 100) == (4, 5.0)
    # the whole binade [512, 1024) at once, then the edge is stepped
    n, battery = jump(1000.0, 0.37, 1000.0, 0.01, 0.001, 5000)
    assert 512.0 <= battery < 512.37 and n == _per_tick(1000.0, 0.0, 0.37, 1000.0, 0.01, 0.001, n)[0]


@st.composite
def _stretches(draw):
    power = draw(st.integers(-10, 13).map(lambda e: 2.0 ** e))
    battery = draw(st.one_of(
        st.floats(1e-3, 1e4),
        st.just(power),
        st.integers(1, 10**4).map(lambda j: power + j * math.ulp(power)),  # near an edge
    ))
    ulp = math.ulp(battery)
    drain = draw(st.one_of(
        st.floats(0.0, 1.5 * battery),
        st.integers(0, 10**6).map(lambda k: ulp * (k + 0.5)),  # a tie
        st.floats(0.0, 0.5, exclude_max=True).map(lambda f: ulp * f),  # delta 0
        st.tuples(st.integers(0, 10**3), st.floats(0.0, 1.0)).map(lambda t: ulp * (t[0] + t[1])),
    ))
    capacity = battery / draw(st.floats(0.05, 1.0))
    lower_frac = draw(st.floats(0.01, 0.8))
    low_frac = draw(st.floats(lower_frac, 0.99))
    capacitor = draw(st.floats(0.0, 5.0))
    budget = draw(st.integers(0, 1500))
    return battery, capacitor, drain, capacity, low_frac, lower_frac, budget


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_stretches())
def test_idle_jump_matches_the_tick_loop_generated(stretch):
    _assert_jump_exact(*stretch)


# -- a charging stretch against full ticks' tick_discharge and apply_charge --


def _full_ticks(state, profile, source, power, budget, seen):
    """Full ticks' levels, one `tick_discharge(s, set(), rates)` then
    `apply_charge` each, up to `budget`, stopping before the tick that flips
    `powerLow` or `powerLower`, fills the battery or empties both stores:
    (batteries, capacitors, the state after them). Adds to `seen` the kinds
    of tick the stretch holds."""
    th, idle = profile.thresholds, profile.rates.idle

    def flags(s):
        return s.battery_frac < th.low_frac, s.battery_frac < th.lower_frac

    batteries, capacitors = [], []
    while len(batteries) < budget:
        drained = energy.tick_discharge(state, set(), profile.rates)
        after = energy.apply_charge(drained, source, power)
        if (flags(after) != flags(state) or after.battery >= after.battery_capacity > state.battery
                or after.depleted):
            break
        seen.update(kind for kind, here in (
            ("below_drain", state.battery < idle),
            ("capacitor_floor", state.capacitor < idle - state.battery),
            ("clamp", drained.battery + power > after.battery == after.battery_capacity),
            ("spill", after.capacitor > drained.capacitor),
        ) if here)
        state = after
        batteries.append(state.battery)
        capacitors.append(state.capacitor)
    return batteries, capacitors, state


@st.composite
def _charging_stretches(draw):
    source = draw(st.sampled_from([energy.SOURCE_STATION, energy.SOURCE_WIRELESS]))
    capacity = draw(st.floats(0.5, 200.0))
    capacitor_capacity = draw(st.floats(0.0, 10.0))
    idle = draw(st.floats(0.0, 2.0))
    power = draw(st.one_of(st.floats(0.0, 3.0), st.just(idle), st.just(0.0)))
    battery = draw(st.one_of(
        st.floats(0.0, capacity),
        st.just(capacity),  # full: each charge clamps at capacity, or spills
        st.floats(0.0, 1.0, exclude_max=True).map(lambda f: min(capacity, f * idle)),  # below the drain
    ))
    capacitor = draw(st.one_of(st.floats(0.0, capacitor_capacity), st.just(0.0),
                               st.just(capacitor_capacity)))
    lower = draw(st.floats(0.01, 0.8))
    thresholds = energy.Thresholds(draw(st.floats(lower, 0.99).filter(lambda v: v > lower)), lower)
    profile = energy.EnergyProfile(capacity, capacitor_capacity, thresholds=thresholds,
                                   rates=energy.DischargeProfile(idle=idle))
    state = energy.EnergyState(battery, capacity, capacitor, capacitor_capacity)
    return state, profile, source, power, draw(st.integers(0, 400))


def test_charging_stretch_matches_full_ticks():
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_charging_stretches())
    def check(stretch):
        state, profile, source, power, budget = stretch
        batteries, capacitors = [], []
        n, end = energy.advance_quiet(state, profile, source, power, budget, batteries, capacitors)
        ref_batteries, ref_capacitors, ref_end = _full_ticks(*stretch, seen)
        assert n == len(ref_batteries)
        assert [b.hex() for b in batteries] == [b.hex() for b in ref_batteries]
        assert [c.hex() for c in capacitors] == [c.hex() for c in ref_capacitors]
        assert (end.battery.hex(), end.capacitor.hex()) == (ref_end.battery.hex(),
                                                            ref_end.capacitor.hex())
        # untraced, the stretch takes the same ticks to the same levels
        assert energy.advance_quiet(state, profile, source, power, budget) == (n, end)

    check()
    assert seen == {"below_drain", "capacitor_floor", "clamp", "spill"}
