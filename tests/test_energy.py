import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim.energy import (
    EVENT_POWER_LOW,
    EVENT_POWER_LOWER,
    MOOD_CHARGING,
    MOOD_DEAD,
    MOOD_DISTRESSED,
    MOOD_NORMAL,
    MOOD_SEEKING,
    SOURCE_NONE,
    SOURCE_STATION,
    SOURCE_WIRELESS,
    DischargeProfile,
    EnergyProfile,
    EnergyState,
    Thresholds,
    ThresholdWatcher,
    apply_charge,
    mood_of,
    sensor_gain,
    tick_discharge,
)

RATES = DischargeProfile()  # idle .1, move .5, sense .2, process .2


def state(battery=100.0, capacitor=10.0, b_cap=100.0, c_cap=10.0, source="none"):
    return EnergyState(
        battery=battery,
        battery_capacity=b_cap,
        capacitor=capacitor,
        capacitor_capacity=c_cap,
        charging_source=source,
    )


class TestDischarge:
    def test_idle_tick_from_full(self):
        out = tick_discharge(state(), {"idle"}, RATES)
        assert out.battery == pytest.approx(99.9)
        assert out.capacitor == 10.0

    def test_battery_exhaustion_spills_to_capacitor(self):
        out = tick_discharge(state(battery=0.05), {"idle"}, RATES)
        assert out.battery == 0.0
        assert out.capacitor == pytest.approx(9.95)

    def test_dead_state_stays_at_zero(self):
        out = tick_discharge(state(battery=0.0, capacitor=0.0), {"idle", "move"}, RATES)
        assert out.battery == 0.0 and out.capacitor == 0.0

    def test_idle_is_always_implied(self):
        out = tick_discharge(state(), {"move"}, RATES)
        assert out.battery == pytest.approx(99.4)  # idle + move

    def test_unknown_activity_rejected(self):
        with pytest.raises(ValueError, match=r"unknown activities: \['warp'\]"):
            tick_discharge(state(), {"warp"}, RATES)

    @pytest.mark.parametrize("source", [SOURCE_STATION, SOURCE_WIRELESS])
    def test_discharge_clears_the_charging_source(self, source):
        out = tick_discharge(state(battery=50.0, source=source), {"idle"}, RATES)
        assert out.charging_source == SOURCE_NONE
        assert out.battery == pytest.approx(49.9)

    @settings(max_examples=200, deadline=None)
    @given(
        battery=st.floats(min_value=0, max_value=100),
        capacitor=st.floats(min_value=0, max_value=10),
        steps=st.lists(
            st.sets(st.sampled_from(["idle", "move", "sense", "process"])),
            max_size=40,
        ),
    )
    def test_total_energy_never_increases_without_charge(self, battery, capacitor, steps):
        s = state(battery=battery, capacitor=capacitor)
        previous = s.total
        for active in steps:
            s = tick_discharge(s, active, RATES)
            assert s.total <= previous + 1e-12
            previous = s.total

    @settings(max_examples=200, deadline=None)
    @given(
        battery=st.floats(min_value=0, max_value=100),
        active=st.sets(st.sampled_from(["idle", "move", "sense", "process"])),
    )
    def test_bookkeeping_identity_per_tick(self, battery, active):
        s = state(battery=battery, capacitor=4.0)
        drain = RATES.drain_for(active)
        out = tick_discharge(s, active, RATES)
        applied = min(drain, s.total)
        assert out.total == pytest.approx(s.total - applied)


class TestCharge:
    def test_station_charges_battery_only(self):
        out = apply_charge(state(battery=50.0, capacitor=5.0), SOURCE_STATION, 10.0)
        assert out.battery == 60.0
        assert out.capacitor == 5.0
        assert out.charging_source == SOURCE_STATION

    def test_wireless_tops_up_capacitor_once_battery_full(self):
        out = apply_charge(state(battery=100.0, capacitor=5.0), SOURCE_WIRELESS, 2.0)
        assert out.battery == 100.0
        assert out.capacitor == 7.0

    def test_wireless_spill_within_one_tick(self):
        out = apply_charge(state(battery=99.0, capacitor=0.0), SOURCE_WIRELESS, 2.0)
        assert out.battery == 100.0
        assert out.capacitor == 1.0

    def test_station_clamps_at_capacity(self):
        out = apply_charge(state(battery=99.0, capacitor=5.0), SOURCE_STATION, 5.0)
        assert out.battery == 100.0
        assert out.capacitor == 5.0

    def test_charge_returns_a_new_state(self):
        before = state(battery=50.0, capacitor=5.0)
        out = apply_charge(before, SOURCE_WIRELESS, 60.0)
        assert out is not before
        assert (out.battery, out.capacitor, out.charging_source) == (100.0, 10.0, SOURCE_WIRELESS)
        assert before == state(battery=50.0, capacitor=5.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            apply_charge(state(), SOURCE_STATION, -1.0)


class TestReadingsAndMoods:
    def test_mood_normal_above_thresholds(self):
        assert mood_of(state(battery=80.0), Thresholds()) == MOOD_NORMAL

    def test_mood_seeking_below_low(self):
        assert mood_of(state(battery=20.0), Thresholds()) == MOOD_SEEKING

    def test_mood_distressed_below_lower(self):
        assert mood_of(state(battery=10.0), Thresholds()) == MOOD_DISTRESSED

    def test_mood_distressed_on_empty_battery_with_reserve(self):
        assert mood_of(state(battery=0.0, capacitor=5.0), Thresholds()) == MOOD_DISTRESSED

    def test_charging_beats_seeking(self):
        s = state(battery=20.0, source=SOURCE_STATION)
        assert mood_of(s, Thresholds()) == MOOD_CHARGING

    def test_dead_beats_everything(self):
        s = state(battery=0.0, capacitor=0.0, source=SOURCE_WIRELESS)
        assert mood_of(s, Thresholds()) == MOOD_DEAD

    def test_gain_is_linear_with_floor(self):
        assert sensor_gain(state(battery=100.0), gain_min=0.2) == 1.0
        assert sensor_gain(state(battery=50.0), gain_min=0.2) == 0.5
        assert sensor_gain(state(battery=5.0), gain_min=0.2) == 0.2


class TestThresholdWatcher:
    def test_fires_once_per_downward_crossing(self):
        w = ThresholdWatcher(Thresholds())
        assert w.update(state(battery=50.0)) == []
        assert w.update(state(battery=29.0)) == [EVENT_POWER_LOW]
        assert w.update(state(battery=28.0)) == []
        assert w.update(state(battery=14.0)) == [EVENT_POWER_LOWER]
        assert w.update(state(battery=5.0)) == []

    def test_rearms_after_rising_above(self):
        w = ThresholdWatcher(Thresholds())
        w.update(state(battery=29.0))
        w.update(state(battery=80.0))  # recharged: re-arm
        assert w.update(state(battery=29.0)) == [EVENT_POWER_LOW]

    def test_fires_immediately_when_starting_low(self):
        w = ThresholdWatcher(Thresholds())
        assert w.update(state(battery=10.0)) == [EVENT_POWER_LOW, EVENT_POWER_LOWER]


class _TwoFlagWatcher:
    """The watcher as it was first written: one armed flag per threshold."""

    def __init__(self, thresholds):
        self.th = thresholds
        self.armed = {EVENT_POWER_LOW: True, EVENT_POWER_LOWER: True}

    def update(self, state):
        frac, fired = state.battery_frac, []
        for event, level in ((EVENT_POWER_LOW, self.th.low_frac), (EVENT_POWER_LOWER, self.th.lower_frac)):
            if self.armed[event]:
                if frac < level:
                    fired.append(event)
                    self.armed[event] = False
            elif frac >= level:
                self.armed[event] = True
        return fired


class TestWatcherAgainstTwoFlags:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_events(self, data):
        lower = data.draw(st.floats(0.01, 0.49))
        th = Thresholds(low_frac=data.draw(st.floats(lower, 0.99).filter(lambda v: v > lower)),
                        lower_frac=lower)
        # levels at, just below and just above each threshold, and anywhere
        near = [f(level) for level in (th.low_frac, th.lower_frac)
                for f in (lambda v: v, lambda v: math.nextafter(v, 0), lambda v: math.nextafter(v, 1))]
        fracs = data.draw(st.lists(st.one_of(st.sampled_from(near), st.floats(0.0, 1.0)), max_size=40))
        watcher, reference = ThresholdWatcher(th), _TwoFlagWatcher(th)
        for frac in fracs:  # a capacity of 1 makes the battery its own fraction
            s = state(battery=frac, b_cap=1.0)
            assert watcher.update(s) == reference.update(s), frac


def _mood_with_empty_clause(s, th):
    """`mood_of` as it was written with an `s.battery <= 0.0` distress clause
    of its own, beside the fraction below the lower threshold."""
    if s.depleted:
        return MOOD_DEAD
    if s.charging_source != SOURCE_NONE:
        return MOOD_CHARGING
    if s.battery <= 0.0 or s.battery_frac < th.lower_frac:
        return MOOD_DISTRESSED
    if s.battery_frac < th.low_frac:
        return MOOD_SEEKING
    return MOOD_NORMAL


class TestMoodAgainstEmptyClause:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_same_mood(self, data):
        # an empty battery's fraction is 0.0 (or -0.0), below any valid lower threshold
        lower = data.draw(st.floats(0.0, 0.98, exclude_min=True))
        th = Thresholds(data.draw(st.floats(lower, 0.99).filter(lambda v: v > lower)), lower)
        b_cap = data.draw(st.floats(1e-300, 1e300))
        edges = [0.0, -0.0, b_cap] + [f(level * b_cap) for level in th for f in (
            lambda v: v, lambda v: math.nextafter(v, 0), lambda v: math.nextafter(v, math.inf))]
        battery = data.draw(st.one_of(st.sampled_from(edges), st.floats(0.0, b_cap)))
        c_cap = data.draw(st.floats(0.0, 1e6, exclude_min=True))
        capacitor = data.draw(st.one_of(st.just(0.0), st.floats(0.0, c_cap)))
        source = data.draw(st.sampled_from([SOURCE_NONE, SOURCE_STATION, SOURCE_WIRELESS]))
        s = state(battery=battery, capacitor=capacitor, b_cap=b_cap, c_cap=c_cap, source=source)
        assert mood_of(s, th) == _mood_with_empty_clause(s, th)


class TestProfile:
    def test_initial_levels_default_to_capacity(self):
        p = EnergyProfile(battery_capacity=42.0, capacitor_capacity=7.0)
        s = p.initial_state()
        assert (s.battery, s.capacitor) == (42.0, 7.0)

    def test_explicit_initial_levels(self):
        p = EnergyProfile(battery_initial=1.5, capacitor_initial=0.0)
        s = p.initial_state()
        assert (s.battery, s.capacitor) == (1.5, 0.0)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            Thresholds(low_frac=0.1, lower_frac=0.5)

    def test_death_time_closed_form_matches_repeated_discharge(self):
        # oracle: ceil((battery + capacitor) / drain)
        for battery, capacitor, drain in ((100.0, 10.0, 0.5), (10.0, 0.0, 0.3), (0.0, 10.0, 0.25)):
            rates = DischargeProfile(idle=drain, move=0, sense=0, process=0)
            s = state(battery=battery, capacitor=capacitor)
            expected = math.ceil((battery + capacitor) / drain)
            ticks = 0
            while not s.depleted:
                s = tick_discharge(s, {"idle"}, rates)
                ticks += 1
                assert ticks <= expected + 1
            assert ticks == expected
