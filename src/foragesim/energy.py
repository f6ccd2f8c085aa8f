"""Battery and countdown-capacitor energy model.

The robot runs off a battery that drains with activity and, once the battery
is flat, off a short-term capacitor reserve that only wireless charging can
fill. Battery level also sets the sensor gain, so a hungry robot senses less
far. Moods summarise the energy situation for the control layer, and the
threshold watcher turns downward battery crossings into edge-triggered
events with re-arm hysteresis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

SOURCE_NONE = "none"
SOURCE_STATION = "station"
SOURCE_WIRELESS = "wireless"

ACTIVITY_NAMES = frozenset({"idle", "move", "sense", "process"})

EVENT_POWER_LOW = "power_low"
EVENT_POWER_LOWER = "power_lower"

MOOD_NORMAL = "normal"
MOOD_SEEKING = "seeking"
MOOD_CHARGING = "charging"
MOOD_DISTRESSED = "distressed"
MOOD_DEAD = "dead"


@dataclass(frozen=True)
class DischargeProfile:
    """Drain rates in energy units per tick, one per activity kind."""

    idle: float = 0.1
    move: float = 0.5
    sense: float = 0.2
    process: float = 0.2

    def drain_for(self, active: frozenset[str] | set[str]) -> float:
        """Total drain for one tick; `idle` is always counted."""
        unknown = set(active) - ACTIVITY_NAMES
        if unknown:
            raise ValueError(f"unknown activities: {sorted(unknown)}")
        total = self.idle
        for name in ("move", "sense", "process"):
            if name in active:
                total += getattr(self, name)
        return total


@dataclass(frozen=True)
class Thresholds:
    """Battery fractions for the two hunger events (0 < lower < low < 1)."""

    low_frac: float = 0.3
    lower_frac: float = 0.15

    def __post_init__(self) -> None:
        if not (0.0 < self.lower_frac < self.low_frac < 1.0):
            raise ValueError(
                f"thresholds must satisfy 0 < lower < low < 1, "
                f"got low={self.low_frac} lower={self.lower_frac}"
            )


@dataclass(frozen=True)
class EnergyState:
    battery: float
    battery_capacity: float
    capacitor: float
    capacitor_capacity: float
    charging_source: str = SOURCE_NONE

    @property
    def battery_frac(self) -> float:
        return self.battery / self.battery_capacity

    @property
    def total(self) -> float:
        return self.battery + self.capacitor

    @property
    def depleted(self) -> bool:
        return self.battery <= 0.0 and self.capacitor <= 0.0


@dataclass(frozen=True)
class EnergyProfile:
    """Capacities, initial levels, drain rates and thresholds for one scenario.

    Initial levels default to the corresponding capacity. `max_charge_ticks`
    of 0 means charging runs until the battery is full.
    """

    battery_capacity: float = 100.0
    capacitor_capacity: float = 10.0
    battery_initial: float | None = None
    capacitor_initial: float | None = None
    rates: DischargeProfile = field(default_factory=DischargeProfile)
    thresholds: Thresholds = field(default_factory=Thresholds)
    gain_min: float = 0.2
    max_charge_ticks: int = 0

    def __post_init__(self) -> None:
        if self.battery_capacity <= 0:
            raise ValueError("battery_capacity must be positive")
        if self.capacitor_capacity < 0:
            raise ValueError("capacitor_capacity must be non-negative")
        if self.battery_initial is None:
            object.__setattr__(self, "battery_initial", self.battery_capacity)
        if self.capacitor_initial is None:
            object.__setattr__(self, "capacitor_initial", self.capacitor_capacity)
        if not (0.0 <= self.battery_initial <= self.battery_capacity):
            raise ValueError("battery_initial outside [0, battery_capacity]")
        if not (0.0 <= self.capacitor_initial <= self.capacitor_capacity):
            raise ValueError("capacitor_initial outside [0, capacitor_capacity]")
        if not (0.0 < self.gain_min <= 1.0):
            raise ValueError("gain_min must be in (0, 1]")
        if self.max_charge_ticks < 0:
            raise ValueError("max_charge_ticks must be >= 0")

    def initial_state(self) -> EnergyState:
        return EnergyState(
            battery=self.battery_initial,
            battery_capacity=self.battery_capacity,
            capacitor=self.capacitor_initial,
            capacitor_capacity=self.capacitor_capacity,
        )


def tick_discharge(state: EnergyState, active: set[str], profile: DischargeProfile) -> EnergyState:
    """Drain one tick of activity: battery first, then the capacitor, floored at 0."""
    drain = profile.drain_for(active)
    from_battery = min(state.battery, drain)
    remainder = drain - from_battery
    new_battery = state.battery - from_battery
    new_capacitor = max(0.0, state.capacitor - remainder)
    return replace(state, battery=new_battery, capacitor=new_capacitor)


def apply_charge(state: EnergyState, source: str, power: float, dt: float = 1.0) -> EnergyState:
    """Add `power * dt` units from `source`.

    A station charges the battery only. Wireless power charges the battery
    and, once the battery is full, tops up the capacitor. Both levels clamp
    at capacity and `charging_source` is set on the returned state.
    """
    if power < 0:
        raise ValueError("charge power must be non-negative")
    if source not in (SOURCE_STATION, SOURCE_WIRELESS):
        raise ValueError(f"unknown charging source {source!r}")
    amount = power * dt
    headroom = state.battery_capacity - state.battery
    to_battery = min(headroom, amount)
    new_battery = state.battery + to_battery
    new_capacitor = state.capacitor
    if source == SOURCE_WIRELESS:
        spill = amount - to_battery
        new_capacitor = min(state.capacitor_capacity, state.capacitor + spill)
    return replace(
        state,
        battery=new_battery,
        capacitor=new_capacitor,
        charging_source=source,
    )


def mood_of(state: EnergyState, thresholds: Thresholds) -> str:
    """Derive the operating mood.

    Precedence: dead > charging > distressed > seeking > normal. Distress is
    an empty battery or a battery fraction below the lower threshold.
    """
    if state.depleted:
        return MOOD_DEAD
    if state.charging_source != SOURCE_NONE:
        return MOOD_CHARGING
    frac = state.battery_frac
    if state.battery <= 0.0 or frac < thresholds.lower_frac:
        return MOOD_DISTRESSED
    if frac < thresholds.low_frac:
        return MOOD_SEEKING
    return MOOD_NORMAL


def sensor_gain(state: EnergyState, gain_min: float = 0.2) -> float:
    """Battery-proportional sensing gain, floored at `gain_min`.

    Multiplies every detection radius in the world, so sensing degrades as
    the battery empties but never vanishes entirely.
    """
    return max(gain_min, state.battery_frac)


class ThresholdWatcher:
    """Edge-triggered battery threshold events.

    Each threshold fires exactly once per downward crossing and re-arms only
    after the battery fraction rises back to or above it.
    """

    def __init__(self, thresholds: Thresholds):
        self._thresholds = thresholds
        self._armed_low = True
        self._armed_lower = True

    def update(self, state: EnergyState) -> list[str]:
        frac = state.battery_frac
        fired: list[str] = []
        th = self._thresholds
        if self._armed_low:
            if frac < th.low_frac:
                fired.append(EVENT_POWER_LOW)
                self._armed_low = False
        elif frac >= th.low_frac:
            self._armed_low = True
        if self._armed_lower:
            if frac < th.lower_frac:
                fired.append(EVENT_POWER_LOWER)
                self._armed_lower = False
        elif frac >= th.lower_frac:
            self._armed_lower = True
        return fired
