"""Battery and countdown-capacitor energy model.

The robot runs off a battery that drains with activity and, once the battery
is flat, off a short-term capacitor reserve that only wireless charging can
fill. Battery level also sets the sensor gain, so a hungry robot senses less
far. Moods summarise the energy situation for the control layer, and the
threshold watcher turns each downward battery crossing into one
edge-triggered event.

Full ticks, quiet stretches, moods and the watcher share one drain step, one
charge step, one hunger test (`hunger`: the powerLow and powerLower flags),
one `batteryFull` test (`battery_full`) and one test for both stores empty
(`stores_empty`).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from typing import NamedTuple

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


class DischargeProfile(NamedTuple):
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


class _ThresholdFields(NamedTuple):
    low_frac: float = 0.3
    lower_frac: float = 0.15


class Thresholds(_ThresholdFields):
    """Battery fractions for the two hunger events (0 < lower < low < 1)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` checks too

    def __new__(cls, *args, **kwargs):
        th = super().__new__(cls, *args, **kwargs)
        if not (0.0 < th.lower_frac < th.low_frac < 1.0):
            raise ValueError(
                f"thresholds must satisfy 0 < lower < low < 1, "
                f"got low={th.low_frac} lower={th.lower_frac}"
            )
        return th


class EnergyState(NamedTuple):
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
        return stores_empty(self.battery, self.capacitor)


class _EnergyFields(NamedTuple):
    battery_capacity: float = 100.0
    capacitor_capacity: float = 10.0
    battery_initial: float | None = None
    capacitor_initial: float | None = None
    rates: DischargeProfile = DischargeProfile()
    thresholds: Thresholds = Thresholds()
    gain_min: float = 0.2
    max_charge_ticks: int = 0


class EnergyProfile(_EnergyFields):
    """Capacities, initial levels, drain rates and thresholds for one scenario.

    Initial levels default to the corresponding capacity. `max_charge_ticks`
    of 0 means charging runs until the battery is full.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` checks too

    def __new__(cls, *args, **kwargs):
        p = super().__new__(cls, *args, **kwargs)
        if p.battery_capacity <= 0:
            raise ValueError("battery_capacity must be positive")
        if p.capacitor_capacity < 0:
            raise ValueError("capacitor_capacity must be non-negative")
        if p.battery_initial is None:
            p = super().__new__(cls, *p[:2], p.battery_capacity, *p[3:])
        if p.capacitor_initial is None:
            p = super().__new__(cls, *p[:3], p.capacitor_capacity, *p[4:])
        if not (0.0 <= p.battery_initial <= p.battery_capacity):
            raise ValueError("battery_initial outside [0, battery_capacity]")
        if not (0.0 <= p.capacitor_initial <= p.capacitor_capacity):
            raise ValueError("capacitor_initial outside [0, capacitor_capacity]")
        if not (0.0 < p.gain_min <= 1.0):
            raise ValueError("gain_min must be in (0, 1]")
        if p.max_charge_ticks < 0:
            raise ValueError("max_charge_ticks must be >= 0")
        return p

    def initial_state(self) -> EnergyState:
        return EnergyState(
            battery=self.battery_initial,
            battery_capacity=self.battery_capacity,
            capacitor=self.capacitor_initial,
            capacitor_capacity=self.capacitor_capacity,
        )


def _drain(battery: float, capacitor: float, drain: float) -> tuple[float, float]:
    """The one drain step: the battery first, the rest from the capacitor, floored at 0."""
    taken = min(battery, drain)
    return battery - taken, max(0.0, capacitor - (drain - taken))


def _charge(battery: float, capacitor: float, capacity: float, capacitor_capacity: float,
            source: str, power: float) -> tuple[float, float]:
    """The one charge step: the battery up to its capacity and, from a wireless
    source, the rest of `power` into the capacitor up to its capacity."""
    to_battery = min(capacity - battery, power)
    if source == SOURCE_WIRELESS:
        capacitor = min(capacitor_capacity, capacitor + (power - to_battery))
    return battery + to_battery, capacitor


def hunger(frac: float, low_frac: float, lower_frac: float) -> tuple[bool, bool]:
    """`(powerLow, powerLower)` at battery fraction `frac`: below each threshold."""
    return frac < low_frac, frac < lower_frac


def battery_full(battery: float, capacity: float) -> bool:
    """`batteryFull`: the battery at its capacity."""
    return battery >= capacity


def stores_empty(battery: float, capacitor: float) -> bool:
    """Battery and capacitor both empty: the life is over."""
    return battery <= 0.0 and capacitor <= 0.0


def tick_discharge(state: EnergyState, active: set[str], profile: DischargeProfile) -> EnergyState:
    """Drain one tick of activity: battery first, then the capacitor, floored at 0.

    The returned state is not charging; `apply_charge` sets a source for the
    ticks that charge.
    """
    battery, capacitor = _drain(state.battery, state.capacitor, profile.drain_for(active))
    return EnergyState(battery, state.battery_capacity, capacitor, state.capacitor_capacity)


def apply_charge(state: EnergyState, source: str, power: float) -> EnergyState:
    """Add one tick of `power` units from `source`.

    A station charges the battery only. Wireless power charges the battery
    and, once the battery is full, tops up the capacitor. Both levels clamp
    at capacity and `charging_source` is set on the returned state.
    """
    if power < 0:
        raise ValueError("charge power must be non-negative")
    if source not in (SOURCE_STATION, SOURCE_WIRELESS):
        raise ValueError(f"unknown charging source {source!r}")
    battery, capacitor = _charge(state.battery, state.capacitor, state.battery_capacity,
                                 state.capacitor_capacity, source, power)
    return EnergyState(battery, state.battery_capacity, capacitor, state.capacitor_capacity, source)


def idle_jump(
    battery: float, drain: float, capacity: float, low_frac: float, lower_frac: float,
    budget: int,
) -> tuple[int, float]:
    """Take up to `budget` idle ticks at once: (ticks taken, battery after them).

    The battery is in [2**e, 2**(e+1)), whose ulp is u, and delta is `drain`
    rounded to a multiple of u. Under IEEE 754 round-to-nearest, tick k
    leaves exactly `battery - k*delta` when the exact
    `battery - (k-1)*delta - drain` is at least 2**e; of those ticks, the
    ones before the first that would flip a `hunger` flag are taken
    (found by bisection), and the capacitor is left as it is. Returns 0
    ticks, for the caller to step one, where tick 1 is not such a tick: at a
    binade edge, a drain of exactly half an odd number of ulps (whose
    rounding follows the battery's last bit), `battery < drain`, or a
    subnormal battery.
    """
    if budget <= 0 or not (sys.float_info.min <= battery < math.inf and 0.0 <= drain <= battery):
        return 0, battery
    mant, exp = math.frexp(battery)  # battery = mant * 2**exp, 0.5 <= mant < 1
    m = int(math.ldexp(mant, 53)) - (1 << 52)  # battery - 2**e, in ulps
    # drain in ulps; where this underflows the drain is far below half an ulp
    # even of the binade below, so it leaves the battery as it is either way
    d = math.ldexp(drain, 53 - exp)
    q = math.floor(d)
    rest = d - q
    if rest == 0.5:
        return 0, battery
    if rest > 0.5:
        q += 1
    # tick k stays in the binade iff k*q + (d - q) <= m, with |d - q| < 1/2
    if q == 0:  # delta == 0: the battery never moves, so nothing flips
        return (budget, battery) if m > 0 or d == 0 else (0, battery)
    n = min(budget, (m - (d > q)) // q)
    if n <= 0:
        return 0, battery
    delta = math.ldexp(q, exp - 53)
    hungry = hunger(battery / capacity, low_frac, lower_frac)

    def flips(k: int) -> bool:
        return hunger((battery - k * delta) / capacity, low_frac, lower_frac) != hungry

    if flips(n):
        n = bisect_left(range(1, n), True, key=flips)  # the ticks before the first flip
    return n, battery - n * delta


def advance_quiet(
    state: EnergyState, profile: EnergyProfile, source: str, power: float, budget: int,
    batteries: list[float] | None = None, capacitors: list[float] | None = None,
) -> tuple[int, EnergyState]:
    """Advance up to `budget` quiet ticks: (ticks taken, the state after them).

    Each tick drains idle power and then, unless `source` is `SOURCE_NONE`,
    charges `power` from `source`, by the steps `tick_discharge` and
    `apply_charge` take (an idle run in closed form, by `idle_jump`). It
    stops before the first tick that would flip a `hunger` flag, fill the
    battery, or empty both stores; the `sim` module says why that is exact.
    With `batteries` and `capacitors`, each tick's levels are appended to them.
    """
    capacity, capacitor_capacity = state.battery_capacity, state.capacitor_capacity
    battery, capacitor = state.battery, state.capacitor
    low_frac, lower_frac = profile.thresholds
    hungry = hunger(battery / capacity, low_frac, lower_frac)
    drain = profile.rates.idle
    n = 0
    while n < budget:
        if source == SOURCE_NONE:
            k, after = idle_jump(battery, drain, capacity, low_frac, lower_frac, budget - n)
            if k:
                if batteries is not None:
                    delta = (battery - after) / k  # exact, as battery - after is k*delta
                    batteries += [battery - i * delta for i in range(1, k + 1)]
                    capacitors += [capacitor] * k
                n += k
                battery = after
                continue
        b, c = _drain(battery, capacitor, drain)
        if source != SOURCE_NONE:
            b, c = _charge(b, c, capacity, capacitor_capacity, source, power)
            if battery_full(b, capacity) and not battery_full(battery, capacity):
                break
        if hunger(b / capacity, low_frac, lower_frac) != hungry or stores_empty(b, c):
            break
        n += 1
        battery, capacitor = b, c
        if batteries is not None:
            batteries.append(b)
            capacitors.append(c)
    return n, EnergyState(battery, capacity, capacitor, capacitor_capacity, source)


def mood_of(state: EnergyState, thresholds: Thresholds) -> str:
    """Derive the operating mood.

    Precedence: dead > charging > distressed > seeking > normal. Distress is
    a battery fraction below the lower threshold, which an empty battery
    always is, as that threshold is positive.
    """
    if state.depleted:
        return MOOD_DEAD
    if state.charging_source != SOURCE_NONE:
        return MOOD_CHARGING
    low, lower = hunger(state.battery_frac, *thresholds)
    return MOOD_DISTRESSED if lower else MOOD_SEEKING if low else MOOD_NORMAL


def sensor_gain(state: EnergyState, gain_min: float) -> float:
    """Battery-proportional sensing gain, floored at `gain_min`.

    Multiplies every detection radius in the world, so sensing degrades as
    the battery empties but never vanishes entirely.
    """
    return max(gain_min, state.battery_frac)


class ThresholdWatcher:
    """Edge-triggered battery threshold events.

    Each threshold fires once per downward crossing: when its `hunger` flag
    is on and was off at the previous update (the first update counts as a
    fall from above). The watcher keeps only those flags.
    """

    def __init__(self, thresholds: Thresholds):
        self._thresholds = thresholds
        self._last = (False, False)

    @property
    def last(self) -> tuple[bool, bool]:
        """The previous update's `hunger` flags (neither, before the first): all
        that decides which events the next update fires."""
        return self._last

    def update(self, state: EnergyState) -> list[str]:
        was_low, was_lower = self._last
        low, lower = self._last = hunger(state.battery_frac, *self._thresholds)
        fired: list[str] = []
        if low and not was_low:
            fired.append(EVENT_POWER_LOW)
        if lower and not was_lower:
            fired.append(EVENT_POWER_LOWER)
        return fired
