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
        with pytest.raises(ValueError):
            tick_discharge(state(), {"warp"}, RATES)

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
        out = apply_charge(state(battery=50.0, capacitor=5.0), SOURCE_STATION, 5.0, dt=2)
        assert out.battery == 60.0
        assert out.capacitor == 5.0
        assert out.charging_source == SOURCE_STATION

    def test_wireless_tops_up_capacitor_once_battery_full(self):
        out = apply_charge(state(battery=100.0, capacitor=5.0), SOURCE_WIRELESS, 2.0, dt=1)
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
        assert sensor_gain(state(battery=100.0)) == 1.0
        assert sensor_gain(state(battery=50.0)) == 0.5
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
