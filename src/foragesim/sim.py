"""Episode simulation: ticks the world, machines, weights and energy together.

Each tick dispatches pending events into the entry machine (run to
completion), lets the active leaf state sense and move the robot, drains
energy by the tick's activity set, applies charging, and fires threshold and
charge-timer events for the next tick. The loop stops at the step horizon or
when battery and capacitor are both flat. Everything downstream of the seed
is deterministic, so identical configurations always produce byte-identical
traces.

Most of a life is spent waiting for hunger in a leaf with no behaviour, or
charging in one, so the loop advances to the next event. A tick is quiet
when, at its end, no event is queued, the leaf has no behaviour, and the
machine is quiescent (`MachineInstance.quiescent`: not resting on a choice
node, and no `auto` arm enabled under the current guards). Each following
tick then only drains idle power and, in a `recharge`/`charge` leaf, charges
at the same power (the station's rate, or the coupling at the pose, which
does not move). `energy.advance_quiet` takes those ticks by the drain and
charge steps of `tick_discharge` and `apply_charge`, so its levels are a full
tick's. It stops before the first tick that would flip a hunger flag
(`energy.hunger`: `powerLow`, `powerLower`), turn `batteryFull` on or empty
both stores, and the loop stops it before the tick that brings the charge
count to `max_charge_ticks` or is the last; that tick runs in full, so
threshold and charge-timer events, death and the horizon each keep one code
path. This is exact because guards are positive only, so only a guard turning
on can enable an arm, and none turns on inside the stretch:
`isSignalSufficient` depends on the pose alone, and `batteryFull` turns on and
the hunger flags flip only where the stretch stops (a battery falling from
full turns `batteryFull` off, which enables nothing). The watcher keeps the
flags of its last update and fires a threshold only when its flag turns on,
so it fires nothing in the stretch and ends it with the flags each tick would
leave. Path, pose (a cell) and mood stay constant over the stretch.

A robot that has learned to feed settles into a feeding cycle, so a life
jumps whole periods of it, traced or not. After each quiet stretch it keys
its loop state: the energy, the pose, the machine's states (by identity),
open pursuits and status, the watcher's flags, the charge count, the
charge-timer flag and the queue; all that the loop reads but the weights,
the rng and the step. When a key comes back `p` steps later, and
the period between drew no tie, had only successful outcomes and picked one
option per choice node, every later period takes the same path. Guards,
behaviours and energy follow from the loop state alone, and no draw means
the rng is not reached. The weights change only in the picked entries,
whose success weight only rises and failure weight only falls. So at each
choice the best success weight cannot fall, the candidates within tolerance
of it can only drop out, and the picked option stays among them with the
unique least failure weight: the choice is the same, again without a draw.
(A node that picked two options could swap them as both failure weights
halve, until halving among subnormals ties them and the life draws.) Levels
compare by value, so 0.0 and -0.0 share a key, and no comparison in the
loop tells them apart. The life then replays `k` periods, as many as end
before its last tick, and adds their recharges. While it looks for its
cycle it logs the period in progress: each dispatch's choice and outcome
calls in the order they were made and, in a traced life, the dispatch's
transitions and each tick's record. A replay makes each period's calls again
in that order: a choice is counted and reads its entry as it is then, and
an outcome goes through `record_outcome` (not in closed form, because
repeated halving rounds differently among subnormals). A traced life also
appends each period as one item (`_Period`: the logged period, the steps it
is moved by, and the calls its dispatches made), whose records and rows have
the bytes of a life that simulated every period. Order matters there: a
choice row carries the weights its choice read, and a dispatch's outcome rows
follow all its transitions, so a choice made after an outcome of its own
dispatch shows a weight that outcome moved, though the outcome's row comes
later. The log starts over with the key table, and the table with a log of
CYCLE_STATES items, so a streamed life's memory does not grow with its
horizon; both start over after a jump. The ticks after the replayed periods,
fewer than a period and the last one included, run as before, and looking
goes on in them but jumps no more.

The seed reaches a life only through the rng that breaks an exact tie in
`select_option`, built at its first draw, so a life that never draws seeds
none. `run_monte_carlo` says which lives of a batch it copies, and why.

A traced life hands each row to a sink (`append`): a transition, choice or
outcome row as a `TraceEvent` (`_rows` builds the rows of a dispatch), each
tick as a record (`_Stretch`: first step, path, mood, pose, and each tick's
levels) that also holds the quiet stretch after a full tick, and each
replayed period as one item. `run_episode` keeps them in a `Trace`, which
builds the rows of a record or a period only when they are read, a slice or
`reversed` only those of the items it reaches; `run_monte_carlo` builds
none. One writer, `_JsonlWriter`, writes them as
text: `run_life` hands it each item as it comes, so its memory does not grow
with the horizon, and `write_trace_jsonl` a trace's items. `_line` writes an
event row's line field by field, and `_Stretch.text` a record's lines, as
`json.dumps(row.to_dict())` does, which writes a row with a value not exactly
a `str`, an `int` or a finite `float`. A feeding cycle replays the same
levels, so a record takes each level's text from a bounded cache (`_level`);
a level list that holds a zero is written uncached, because 0.0 and -0.0
would share one entry. Every period of a jump shares its logged period, so at
a jump's first period the writer makes the period's template (`_template`):
each row's text after its step, from `_Stretch.tails` for a record and from
`_line` for an event row. A choice or outcome row's text stops before its
weights: a replay makes the logged calls again, so its other fields are the
same in every period. The writer keeps that one template until the next
jump, and writes each period as one join of its steps, those tails, and the
`repr` of each weight its calls read or left; a period that holds a weight
`json` does not write as its `repr` (`_as_repr`) is written row by row, as a
record off the template is. No period after a jump's first goes through
`_line`. The template holds one period's rows, at most CYCLE_STATES
items of at most STRETCH_ROWS rows each, so a streamed trace's memory still
does not grow with the horizon, and a life that never jumps keeps no text.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from collections import Counter, deque
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import count
from operator import eq, index
from pathlib import Path
from typing import NamedTuple

from . import weights as weights_mod
from .energy import (
    SOURCE_NONE,
    SOURCE_STATION,
    SOURCE_WIRELESS,
    EnergyState,
    ThresholdWatcher,
    advance_quiet,
    apply_charge,
    battery_full,
    hunger,
    mood_of,
    sensor_gain,
    tick_discharge,
)
from .scenario import ScenarioDef
from .statemachine import (
    AUTO,
    STATUS_RUNNING,
    TRIGGER_CHOICE,
    MachineInstance,
    dispatch,
    start_instance,
)
from .weights import WeightTable, record_outcome, replacing, save_weights, select_option
from .world import (
    CUE_IR,
    CUE_TRACK,
    FOLLOW_ARRIVED,
    FOLLOW_LOST,
    coupling_efficiency,
    detect_station_cues,
    intensity_at,
    poll_beacon,
    step_follow,
    step_seek_intensity,
)

MEMORY_VOLATILE = "volatile"
MEMORY_NONVOLATILE = "nonvolatile"

OUTCOME_SURVIVED = "survived_to_horizon"
OUTCOME_DIED = "died"

EVENT_WAIT_TIMER = "waitTimer_expired"
EVENT_LOCATED = "located"
EVENT_LOST = "lost"
EVENT_FOUND = "found"
EVENT_NO_SIGNAL = "no_signal"

# the most rows one trace record holds (a full tick and the quiet stretch after
# it), so that a streamed trace's memory does not grow with a long stretch
STRETCH_ROWS = 1024

# the most loop states a life keys, and the most items its period log holds,
# while it looks for its feeding cycle; either one full starts both over, so a
# cycle whose period has fewer quiet stretches and items than this is found
CYCLE_STATES = 512

# state name -> charging source while the robot sits in it
CHARGING_STATES = {"recharge": SOURCE_STATION, "charge": SOURCE_WIRELESS}

STATS_CSV_HEADER = ("episode", "outcome", "lifetime", "recharges_station", "recharges_wireless")

class _ConfigFields(NamedTuple):
    scenario: ScenarioDef
    seed: int = 0
    memory_mode: str = MEMORY_VOLATILE
    max_steps: int = 10_000
    weights_path: str | Path | None = None


class SimConfig(_ConfigFields):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` checks too

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        seed, max_steps = _integer("seed", cfg.seed), _integer("max_steps", cfg.max_steps)
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if cfg.memory_mode not in (MEMORY_VOLATILE, MEMORY_NONVOLATILE):
            raise ValueError(f"unknown memory mode {cfg.memory_mode!r}")
        if cfg.memory_mode == MEMORY_NONVOLATILE and cfg.weights_path is None:
            raise ValueError("nonvolatile memory requires weights_path")
        if cfg.memory_mode == MEMORY_VOLATILE and cfg.weights_path is not None:
            raise ValueError("volatile memory must not set weights_path")
        return super().__new__(cls, cfg.scenario, seed, cfg.memory_mode, max_steps, cfg.weights_path)


def _integer(name: str, value) -> int:
    """`operator.index(value)`, or a ValueError naming it: counts and seeds reach `range`."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def replace(record, /, **changes):
    """`record._replace(**changes)`: the copy of a config for each life."""
    return record._replace(**changes)


class TraceEvent(NamedTuple):
    step: int
    state: str
    event: str | None = None
    node: str | None = None
    option: str | None = None
    w_pos_before: float | None = None
    w_pos_after: float | None = None
    w_neg_before: float | None = None
    w_neg_after: float | None = None
    battery: float | None = None
    capacitor: float | None = None
    mood: str | None = None
    x: int | None = None
    y: int | None = None

    def to_dict(self) -> dict:
        """The set fields, in declaration order (the documented key order)."""
        return {k: v for k, v in zip(TRACE_KEYS, self) if v is not None}


TRACE_KEYS = TraceEvent._fields


class EpisodeResult(NamedTuple):
    outcome: str
    lifetime: int
    death_step: int | None
    choices_made: dict[tuple[str, str], int]
    first_choices: dict[str, str]
    final_weights: dict[tuple[str, str], weights_mod.WeightEntry]
    recharges: dict[str, int]


class SurvivalStats(NamedTuple):
    episodes: int
    survival_fraction: float
    mean_lifetime: float
    behavioral_entropy: float
    results: list[EpisodeResult]


# A behaviour returns the tick's (pose, activities, events); the activity set is
# the loop's to extend, with `move` when the pose moved.
_FOLLOW_EVENTS = {FOLLOW_ARRIVED: (EVENT_LOCATED,), FOLLOW_LOST: (EVENT_LOST,)}


def _behave_follow(cue: str):
    def run(ep: "_Episode"):
        gain = sensor_gain(ep.energy, ep.profile.gain_min)
        acts = {"sense", "process"}
        cues = detect_station_cues(ep.world, ep.pose, gain)
        if not (cues.ir_detected if cue == CUE_IR else cues.track_detected):
            return ep.pose, acts, (EVENT_LOST,)
        new_pose, status = step_follow(ep.world, ep.pose, cue, gain)
        return new_pose, acts, _FOLLOW_EVENTS.get(status, ())

    return run


def _behave_poll(ep: "_Episode"):
    gain = sensor_gain(ep.energy, ep.profile.gain_min)
    acts = {"sense", "process"}
    if poll_beacon(ep.world, ep.pose, gain) is None:
        return ep.pose, acts, (EVENT_NO_SIGNAL,)
    beacon = ep.world.beacon
    if math.dist(ep.pose, beacon.pos) <= beacon.resonance_radius:
        return ep.pose, acts, (EVENT_FOUND,)
    return step_seek_intensity(ep.world, ep.pose), acts, ()


def _behave_engage(ep: "_Episode"):
    if coupling_efficiency(ep.world, ep.pose) > 0.0:
        return ep.pose, {"process"}, (EVENT_LOCATED,)
    return ep.pose, {"process"}, (EVENT_NO_SIGNAL,)


def _behave_navigate(ep: "_Episode"):
    pose = ep.pose if ep.signal_sufficient() else step_seek_intensity(ep.world, ep.pose)
    return pose, {"sense", "process"}, ()


def _behave_idle(ep: "_Episode"):
    return ep.pose, set(), ()


# behaviour is bound by state name; anything unnamed here just idles
BEHAVIORS = {
    "follow_ir_signal": _behave_follow(CUE_IR),
    "follow_track_path": _behave_follow(CUE_TRACK),
    "poll_power_beacon": _behave_poll,
    "engage_resonance": _behave_engage,
    "navigate_proximity": _behave_navigate,
    "seek_intensity": _behave_navigate,
}


class _Episode:
    """One life, and the dispatch context its machine runs in.

    `dispatch` reads `step` and calls back `guard`, `choose` and `outcome`.
    While the life is traced or looks for its feeding cycle (`seen` is not
    empty), the last two make their call through `_call`, which notes it in
    `calls`, and `_dispatch` turns the notes into trace rows once the run to
    completion is over; otherwise they only count the choice or apply
    `record_outcome`, and an untraced dispatch builds no transition record
    (`dispatch(..., records=False)`). `choose` hands itself to
    `select_option` as the rng: its `randrange` seeds `rng` at the first
    draw, which stays None in a life that never draws, and notes each draw
    in `draws` as `(stop, value)`. Rows are built only when the life has a
    `trace` sink (a `Trace` or a `_JsonlWriter`, whose `append` takes a row
    or a tick's record) to hand them to.
    """

    def __init__(self, cfg: SimConfig, table: WeightTable, trace):
        self.cfg = cfg
        self.scenario = cfg.scenario
        self.world = cfg.scenario.world
        self.profile = cfg.scenario.energy_profile
        self.table = table
        self.rng: random.Random | None = None
        self.draws: list[tuple[int, int]] = []
        self.energy: EnergyState = self.profile.initial_state()
        self.pose = self.world.robot_start
        self.instance: MachineInstance = start_instance(self.scenario)
        self.watcher = ThresholdWatcher(self.profile.thresholds)
        self.queue: deque[str] = deque()
        self.trace = trace
        self.choices_made: Counter = Counter()
        self.first_choices: dict[str, str] = {}
        self.recharges = {SOURCE_STATION: 0, SOURCE_WIRELESS: 0}
        self.choice_fired = False
        self.charge_ticks = 0
        self.wait_sent = False
        self.step = 0
        # loop state after a quiet stretch -> its mark, and the log of the
        # period in progress (see `_periods`); both start over after a jump
        self.seen: dict = {}
        self.log: list = []
        # the dispatch's calls, each (node, option, outcome, weights before,
        # weights after): a choice's outcome and after are None, an outcome's
        # outcome is (state path, success)
        self.calls: list[tuple] = []

    # -- dispatch context ----------------------------------------------------

    def signal_sufficient(self) -> bool:
        beacon = self.world.beacon
        return beacon is not None and intensity_at(self.world, self.pose) >= beacon.i_min

    def guard(self, name: str) -> bool:
        if name == "isSignalSufficient":
            return self.signal_sufficient()
        if name == "batteryFull":
            return battery_full(self.energy.battery, self.energy.battery_capacity)
        if name in ("powerLow", "powerLower"):
            low, lower = hunger(self.energy.battery_frac, *self.profile.thresholds)
            return low if name == "powerLow" else lower
        raise ValueError(f"unknown guard '{name}'")

    def randrange(self, stop: int) -> int:
        """The life's tie draw: `random.Random(cfg.seed)`, built at the first one."""
        if self.rng is None:
            self.rng = random.Random(self.cfg.seed)
        value = self.rng.randrange(stop)
        self.draws.append((stop, value))
        return value

    def choose(self, node: str, options: tuple[str, ...]) -> str:
        chosen = select_option(self.table, node, options, self)
        self.choice_fired = True
        self.first_choices.setdefault(node, chosen)
        if self.trace is None and not self.seen:
            self.choices_made[(node, chosen)] += 1
        else:
            self._call(node, chosen)
        return chosen

    def outcome(self, node: str, option: str, success: bool) -> None:
        if self.trace is None and not self.seen:
            record_outcome(self.table, node, option, success)
        else:
            self._call(node, option, (self.instance.path, success))

    def _call(self, node: str, option: str, outcome: tuple | None = None) -> None:
        """Count a choice of `option`, or record the outcome `(path, success)`
        of one, and note the call with the weights it read and left; a live
        dispatch and a replayed period make their calls here alike."""
        before = self.table.get(node, option)
        if outcome is None:
            self.choices_made[(node, option)] += 1
            after = None
        else:
            after = record_outcome(self.table, node, option, outcome[1])
        self.calls.append((node, option, outcome, before, after))

    # -- plumbing ------------------------------------------------------------

    def _enqueue(self, events) -> None:
        for event in events:
            if event in self.instance.events:
                self.queue.append(event)

    def _dispatch(self, event: str) -> None:
        self.calls = []
        records = dispatch(self.instance, event, self, records=self.trace is not None)
        if self.trace is not None:
            for row in _rows(self.step, records, self.calls):
                self.trace.append(row)
        # a replay needs a dispatch's calls, and its transitions if traced
        if self.seen and (self.calls if self.trace is None else records):
            self._note((self.step, records, self.calls))
        if self.instance.status != STATUS_RUNNING:
            self.instance = start_instance(self.scenario)

    def _charging(self) -> tuple[str, float]:
        """The leaf's charging source and the power it gives this tick."""
        source = CHARGING_STATES.get(self.instance.leaf_state_name() or "", SOURCE_NONE)
        if source == SOURCE_STATION and self.world.station is not None:
            return source, self.world.station.charge_rate
        if source == SOURCE_WIRELESS and self.world.beacon is not None:
            return source, coupling_efficiency(self.world, self.pose) * self.world.beacon.tx_power
        return SOURCE_NONE, 0.0

    # -- feeding cycle -------------------------------------------------------

    def _loop_state(self) -> tuple:
        """What the loop reads at its top, but the weights, the rng and the step."""
        inst = self.instance
        return (
            self.energy, self.pose, tuple(inst.frames), tuple(map(tuple, inst.pursuits)),
            inst.status, self.watcher.last, self.charge_ticks, self.wait_sent, tuple(self.queue),
        )

    def _note(self, item) -> None:
        """Log a tick's record or a dispatch in the period in progress; a full
        log starts the search over, so it never holds more than CYCLE_STATES."""
        if len(self.log) < CYCLE_STATES:
            self.log.append(item)
        else:
            self.seen.clear()
            self.log.clear()

    def _periods(self, step: int) -> int:
        """The steps to jump from `step`, the top of the loop after a quiet
        stretch: whole periods of the life's feeding cycle, or 0.

        The loop state is kept in `seen` with its mark: the step, the draw
        count, the log's length and the recharge counts. The log holds what
        came since: each dispatch that made a call or, in a traced life,
        fired a transition, as `(step, records, calls)`, and each tick's
        record. When the state comes back with no draw, no failure and one
        option per choice node in between, the periods that end before the
        last tick are jumped (the module docstring says why that is exact),
        and looking starts over. Each period's calls are made again through
        `_call`, in the order they were made, so a choice reads its entry as
        it is then; a traced life also appends each period as one item
        (`_Period`), whose rows are built only when they are read.
        """
        key = self._loop_state()
        mark = self.seen.get(key)
        if mark is not None:
            then, draws, start, recharges = mark
            period = self.log[start:]
            calls = [call for item in period if type(item) is tuple for call in item[2]]
            picked = {(node, option) for node, option, outcome, _, _ in calls if outcome is None}
            k = (self.cfg.max_steps - 1 - step) // (step - then)
            if (
                k >= 1
                and len(self.draws) == draws
                and all(outcome is None or outcome[1] for _, _, outcome, _, _ in calls)
                and len({node for node, _ in picked}) == len(picked)
            ):
                self._replay(period, step - then, k)
                for source, n in recharges.items():
                    self.recharges[source] += k * (self.recharges[source] - n)
                self.seen.clear()
                self.log.clear()
                return k * (step - then)
        elif len(self.seen) >= CYCLE_STATES:
            self.seen.clear()
            self.log.clear()
        self.seen[key] = (step, len(self.draws), len(self.log), dict(self.recharges))
        return 0

    def _replay(self, period: list, p: int, k: int) -> None:
        """Replay the `p` steps of a logged period `k` times, in order: make
        its dispatches' calls again and, in a traced life, append each period
        as one item, the logged period moved by whole periods."""
        if self.trace is not None:
            rows = sum(len(item.batteries) if type(item) is _Stretch else len(_rows(*item))
                       for item in period)
        for shift in range(p, (k + 1) * p, p):
            made = []
            for item in period:
                if type(item) is tuple:
                    self.calls = []
                    for node, option, outcome, _, _ in item[2]:
                        self._call(node, option, outcome)
                    made.append(self.calls)
            if self.trace is not None:
                self.trace.append(_Period(period, shift, made, rows))

    # -- main loop -----------------------------------------------------------

    def run(self) -> EpisodeResult:
        self._enqueue(self.watcher.update(self.energy))
        max_steps = self.cfg.max_steps
        step = 0

        while step < max_steps:
            step += 1
            self.step = step
            self.choice_fired = False

            while self.queue:
                self._dispatch(self.queue.popleft())
            self._dispatch(AUTO)

            behavior = BEHAVIORS.get(self.instance.leaf_state_name() or "", _behave_idle)
            pose, activities, events = behavior(self)
            if pose != self.pose:
                activities.add("move")
            self.pose = pose
            self._enqueue(events)
            while self.queue:
                self._dispatch(self.queue.popleft())

            if self.choice_fired:
                activities.add("process")

            self.energy = tick_discharge(self.energy, activities, self.profile.rates)
            source, power = self._charging()
            if source != SOURCE_NONE:
                self.energy = apply_charge(self.energy, source, power)

            self._enqueue(self.watcher.update(self.energy))
            if source != SOURCE_NONE:
                self.charge_ticks += 1
                full = battery_full(self.energy.battery, self.energy.battery_capacity)
                timed_out = (
                    0 < self.profile.max_charge_ticks <= self.charge_ticks
                )
                if (full or timed_out) and not self.wait_sent:
                    if EVENT_WAIT_TIMER in self.instance.events:
                        self.queue.append(EVENT_WAIT_TIMER)
                        self.wait_sent = True
                        self.recharges[source] += 1
            else:
                self.charge_ticks = 0
                self.wait_sent = False

            if self.trace is not None:
                # the tick's record; path, pose and mood (charging, or a
                # function of the two predicates) hold for the stretch after it
                record = _Stretch(step, "/".join(self.instance.path),
                                  mood_of(self.energy, self.profile.thresholds), *self.pose,
                                  [self.energy.battery], [self.energy.capacitor])
            dead = self.energy.depleted
            quiet = not (
                dead
                or self.queue
                or self.instance.leaf_state_name() in BEHAVIORS
                or not self.instance.quiescent(self)
            )
            if quiet:
                # A quiet tick: advance to the next event, leaving the tick that
                # sends the charge timer or is the last one to the loop above.
                budget = max_steps - 1 - step
                limit = self.profile.max_charge_ticks
                if source != SOURCE_NONE and 0 < limit and self.charge_ticks < limit:
                    budget = min(budget, limit - 1 - self.charge_ticks)
                if self.trace is None:
                    levels = (None, None)
                else:
                    levels, budget = record[5:], min(budget, STRETCH_ROWS - 1)
                n, self.energy = advance_quiet(self.energy, self.profile, source, power, budget,
                                               *levels)
                step += n
                if source != SOURCE_NONE:
                    self.charge_ticks += n
            if self.trace is not None:
                self.trace.append(record)
                if self.seen:
                    self._note(record)
            if quiet:
                step += self._periods(step)
            if dead:
                break

        # a life ends at its horizon or at a full tick that empties both stores
        death_step = step if self.energy.depleted else None
        return EpisodeResult(
            outcome=OUTCOME_SURVIVED if death_step is None else OUTCOME_DIED,
            lifetime=step,
            death_step=death_step,
            choices_made=dict(self.choices_made),
            first_choices=dict(self.first_choices),
            final_weights=self.table.snapshot(),
            recharges=dict(self.recharges),
        )


def _initial_table(cfg: SimConfig) -> WeightTable:
    if cfg.memory_mode == MEMORY_NONVOLATILE and Path(cfg.weights_path).exists():
        return weights_mod.load_weights(cfg.weights_path)
    return WeightTable(cfg.scenario.seed_weights)


def _live(cfg: SimConfig, table: WeightTable | None, trace) -> tuple[EpisodeResult, list]:
    """Run one life, appending its rows to the `trace` sink unless that is None;
    also return its draws, each as `(stop, value)`."""
    episode = _Episode(cfg, _initial_table(cfg) if table is None else table, trace)
    result = episode.run()
    if cfg.memory_mode == MEMORY_NONVOLATILE:
        save_weights(episode.table, cfg.weights_path)
    elif result.outcome == OUTCOME_DIED:
        result = result._replace(final_weights={})
    return result, episode.draws


def _copy(r: EpisodeResult, final_weights: dict) -> EpisodeResult:
    """`r` with `final_weights`, sharing no dict with `r` or the argument."""
    return EpisodeResult(r.outcome, r.lifetime, r.death_step, dict(r.choices_made),
                         dict(r.first_choices), dict(final_weights), dict(r.recharges))


def _gains(result: EpisodeResult, draws: list, before: dict, table: WeightTable) -> Counter | None:
    """Each entry's successes gained in a life that fixes its batch, or None."""
    picked, gains = result.choices_made, Counter()
    if draws or len({node for node, _ in picked}) != len(picked):
        return None
    for key, entry in table.entries.items():
        then = before.get(key, weights_mod.WeightEntry())
        gains[key] = entry.successes - then.successes
        if entry.failures != then.failures or gains[key] and key not in picked:
            return None
    return gains


def run_episode(cfg: SimConfig, table: WeightTable | None = None) -> tuple[EpisodeResult, Trace]:
    """Run one life and return its result plus the full trace.

    When `table` is omitted, volatile mode starts from the scenario's seed
    weights and nonvolatile mode loads the weights file (falling back to the
    seeds on a cold start). Nonvolatile memory saves the table after every
    life, death or not; a volatile death erases it, so the result reports no
    final weights.
    """
    trace = Trace()
    return _live(cfg, table, trace)[0], trace


def run_life(cfg: SimConfig, trace_path: str | Path | None = None) -> EpisodeResult:
    """Run one life as `run_episode` does, keeping its trace only on disk.

    Without `trace_path` the life builds no trace rows. With it, each row is
    written as a JSON line when it is made, so memory does not grow with
    `max_steps`. The lines go to a temporary file beside `trace_path` that
    replaces it when the life is over; a life that fails part way (a stuck
    machine, an I/O error) leaves `trace_path` as it was and no temporary
    file. It writes through the one trace writer, so the file holds what
    `write_trace_jsonl` writes for `run_episode`'s trace, byte for byte.
    """
    if trace_path is None:
        return _live(cfg, None, None)[0]
    with replacing(trace_path) as fh:
        return _live(cfg, None, _JsonlWriter(fh))[0]


def run_monte_carlo(cfg: SimConfig, episodes: int) -> SurvivalStats:
    """Run `episodes` lives with seeds cfg.seed, cfg.seed+1, ...

    In nonvolatile mode the weight table threads through the whole batch
    (learning across lives); volatile lives each start from the scenario
    seeds again. No trace is kept: a life builds no rows.

    Volatile lives start from the same seed weights, energy, pose and
    machine, and differ only in the seed of the rng that breaks exact ties
    in `select_option`, whose only call is `randrange(stop)`. So a life is
    a function of the values its draws return. The batch keeps the draw
    sequences of the lives it ran in a trie and, before each life, replays
    `random.Random(seed).randrange(stop)` down it. A life that reaches the
    end of a sequence is a copy of that life's result (its own object,
    sharing no dict), equal to what running it would give; any other life
    is run, and its sequence added. A batch runs one life per distinct
    sequence, and one whose first life drew nothing builds no `Random`.

    A nonvolatile life fixes the rest of its batch when it drew no tie,
    moved no `failures` counter, moved `successes` only on entries it
    picked, and picked one option per node. Each later life is then a copy
    of it with the table's snapshot as `final_weights`; the table takes each
    entry's gained successes through `record_outcome` (entries update apart,
    so order does not matter) and is saved once per life. A later life
    starts from the same energy, pose and machine, and at each choice its
    table differs only by more successes on the option picked there. If
    `select_option` returns A without a draw, it still does after more
    successes on A: the best `w_pos` only rises, so no other option joins
    the candidates, A stays within tolerance, and A's `w_neg` stays the
    strict least.
    """
    episodes = _integer("episodes", episodes)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if cfg.memory_mode == MEMORY_NONVOLATILE:
        table = _initial_table(cfg)
        results, gains = [], None
        for i in range(episodes):
            if gains is None:
                before = table.snapshot()
                result, draws = _live(replace(cfg, seed=cfg.seed + i), table, None)
                gains = _gains(result, draws, before, table)
            else:
                for node, option in gains.elements():
                    record_outcome(table, node, option, True)
                save_weights(table, cfg.weights_path)
                result = _copy(results[-1], table.snapshot())
            results.append(result)
    else:
        results = _volatile_lives(cfg, episodes)
    survived = sum(1 for r in results if r.outcome == OUTCOME_SURVIVED)
    pooled: Counter = Counter()
    for r in results:
        pooled.update(r.choices_made)
    return SurvivalStats(
        episodes=episodes,
        survival_fraction=survived / episodes,
        mean_lifetime=sum(r.lifetime for r in results) / episodes,
        behavioral_entropy=_shannon_bits(pooled),
        results=results,
    )


def _volatile_lives(cfg: SimConfig, episodes: int) -> list[EpisodeResult]:
    """The results of a volatile batch, each distinct life run once.

    A trie node is the result of the life that ended there, or, where a life
    drew, `(stop, {value: node})`: lives with the same draws up to a node
    make the same next draw or end together, so one `stop` serves them all.
    A result is a NamedTuple, so only `type(node) is tuple` tells them apart.
    """
    results: list[EpisodeResult] = []
    root = None
    for seed in range(cfg.seed, cfg.seed + episodes):
        node, rng, depth = root, None, 0
        while type(node) is tuple:  # replay this seed's draws down the trie
            if rng is None:
                rng = random.Random(seed)
            stop, children = node
            value = rng.randrange(stop)
            node = children.get(value)
            depth += 1
        if node is not None:
            results.append(_copy(node, node.final_weights))
            continue
        result, draws = _live(replace(cfg, seed=seed), None, None)
        results.append(result)
        # its draws left the trie at draw `depth - 1`: hang the rest there
        tail = result
        for s, v in reversed(draws[depth:]):
            tail = (s, {v: tail})
        if depth:
            children[value] = tail
        else:
            root = tail
    return results


def _shannon_bits(histogram: Counter) -> float:
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in histogram.values():
        if count:
            p = count / total
            entropy -= p * math.log2(p)
    return entropy


# a string's JSON text as `json.dumps` writes it: a trace repeats a scenario's
# few names, and the bound keeps arbitrary rows from growing the cache for the
# life of the process
_quoted = lru_cache(maxsize=4096)(json.dumps)

# a finite level's JSON text, its `repr`; never asked for a zero, since 0.0 ==
# -0.0 and they hash alike, so the cache would give one the other's sign
_level = lru_cache(maxsize=4096)(float.__repr__)


def _rows(step: int, records, calls) -> list[TraceEvent]:
    """The rows of one dispatch at `step` that fired `records` and made
    `calls`: its transitions in firing order (a choice row carries the
    weights its choice read), then its outcomes."""
    consulted = (before for _, _, outcome, before, _ in calls if outcome is None)
    rows = []
    for rec in records:
        if rec.note is not None:
            continue
        if rec.trigger == TRIGGER_CHOICE:
            # the choice left its node, the innermost state of from_path
            entry = next(consulted)
            rows.append(TraceEvent(
                step=step, state="/".join(rec.from_path), event=TRIGGER_CHOICE,
                node=rec.from_path[-1], option=rec.chosen_option,
                w_pos_before=entry.w_pos, w_neg_before=entry.w_neg,
            ))
        else:
            rows.append(TraceEvent(step=step, state="/".join(rec.to_path), event=rec.trigger))
    for node, option, outcome, before, after in calls:
        if outcome is not None:
            path, success = outcome
            rows.append(TraceEvent(
                step=step, state="/".join(path),
                event="outcome_success" if success else "outcome_failure",
                node=node, option=option,
                w_pos_before=before.w_pos, w_pos_after=after.w_pos,
                w_neg_before=before.w_neg, w_neg_after=after.w_neg,
            ))
    return rows


def _as_repr(value) -> bool:
    """Whether `json` writes `value` as its `repr`: an exact `int` or finite exact `float`."""
    return type(value) is int or type(value) is float and value - value == 0.0


def _line(e: TraceEvent) -> str:
    """`json.dumps(e.to_dict())`, field by field: each set field in
    `TRACE_KEYS` order as `"key": text`, the text `json.dumps` of an exact
    `str` (memoised) or the `repr` of a value `_as_repr` takes, which is
    what `json` writes for them. A row with any other value goes through
    `json.dumps` itself."""
    fields = []
    for key, value in zip(TRACE_KEYS, e):
        if value is None:
            continue
        if type(value) is str:
            fields.append(f'"{key}": {_quoted(value)}')
        elif _as_repr(value):
            fields.append(f'"{key}": {value!r}')
        else:
            return json.dumps(e.to_dict())
    return "{" + ", ".join(fields) + "}"


class _Stretch(NamedTuple):
    """A tick's record: its first step, the path, mood and pose its rows
    share, and one battery and one capacitor level per tick (a full tick's,
    then those of the quiet stretch after it)."""

    first: int
    state: str
    mood: str
    x: int
    y: int
    batteries: list[float]
    capacitors: list[float]

    def row(self, k: int) -> TraceEvent:
        return TraceEvent(
            self.first + k, self.state, battery=self.batteries[k], capacitor=self.capacitors[k],
            mood=self.mood, x=self.x, y=self.y,
        )

    def tails(self) -> list[str] | None:
        """The text after `"step": N` in each row's JSON line, newline
        included, or None when a value but the step is off the template."""
        _, state, mood, x, y, batteries, capacitors = self
        # each level a finite exact float; most records are a full tick alone,
        # whose two levels are checked without building a set of types
        if len(batteries) == 1:
            b, c = batteries[0], capacitors[0]
            finite = type(b) is float is type(c) and b - b == 0.0 == c - c
        else:
            finite = ({*map(type, batteries), *map(type, capacitors)} <= {float}
                      and math.isfinite(sum(batteries) + sum(capacitors)))
        if not (type(state) is str and type(mood) is str and type(x) is int and type(y) is int
                and finite):
            return None
        mid = f', "state": {_quoted(state)}, "battery": '
        end = f', "mood": {_quoted(mood)}, "x": {x}, "y": {y}}}\n'
        return [
            f'{mid}{b}, "capacitor": {c}{end}'
            for b, c in zip(map(repr if 0.0 in batteries else _level, batteries),
                            map(repr if 0.0 in capacitors else _level, capacitors))
        ]

    def text(self) -> str:
        """The JSON line and newline of each row: the one template for a tick
        row, `"step": N` and the row's tail; a record with a value off the
        template is written by `json.dumps`."""
        tails = self.tails()
        if tails is None or type(self.first) is not int:
            return "".join([json.dumps(self.row(k).to_dict()) + "\n" for k in range(len(self.batteries))])
        return "".join([f'{{"step": {s}{tail}' for s, tail in zip(count(self.first), tails)])


class _Period(NamedTuple):
    """A replayed period of a feeding cycle: the logged period (each tick's
    record and each dispatch as `(step, records, calls)`, one list shared by
    every period of a jump), the steps it is moved by, the calls its
    dispatches made in this period (a list per dispatch, in order), and
    how many rows it holds."""

    period: list
    shift: int
    calls: list[list[tuple]]
    rows: int


def _unpack(item):
    """An item's records and rows, in order: a period's, each moved to its
    steps and its dispatches' rows built from its calls; any other item is
    itself."""
    if type(item) is not _Period:
        yield item
        return
    calls = iter(item.calls)
    for logged in item.period:
        if type(logged) is _Stretch:
            yield logged._replace(first=logged.first + item.shift)
        else:
            yield from _rows(logged[0] + item.shift, logged[1], next(calls))


def _size(item) -> int:
    """How many rows an item holds."""
    kind = type(item)
    return len(item.batteries) if kind is _Stretch else item.rows if kind is _Period else 1


def _built(part, offsets: range | list[int]) -> Iterable[TraceEvent]:
    """A record's rows at `offsets`, or a row once if `offsets` holds its offset, 0."""
    return map(part.row, offsets) if type(part) is _Stretch else [part] * len(offsets)


class Trace(Sequence):
    """A life's trace: a read-only sequence of `TraceEvent` rows, in order.

    It is the sink `run_episode` gives a life. An appended row is kept as it
    is, and a tick's record and a replayed period as they are too, their
    rows built each time they are read; `write_trace_jsonl` writes them
    without building their tick rows. A slice gives a list of its rows, and
    builds no tick row outside it.
    """

    def __init__(self) -> None:
        self._items: list[TraceEvent | _Stretch | _Period] = []
        self._ends: list[int] = []  # the rows up to each item's end

    def append(self, item: TraceEvent | _Stretch | _Period) -> None:
        self._items.append(item)
        self._ends.append(len(self) + _size(item))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        for item in self._items:
            for part in _unpack(item):
                yield from _built(part, range(_size(part)))

    def __reversed__(self):
        for item in reversed(self._items):
            for part in reversed([*_unpack(item)]):
                yield from _built(part, range(_size(part))[::-1])

    def __getitem__(self, index):
        wanted = range(len(self))[index]  # IndexError past either end
        if type(wanted) is int:
            return self[wanted:wanted + 1][0]
        # unpack only the items that hold a wanted row, found by their ends
        up, rows, ends = (wanted if wanted.step > 0 else wanted[::-1]), [], self._ends
        for k in range(bisect_right(ends, up[0]), bisect_right(ends, up[-1]) + 1) if up else ():
            start = ends[k] - _size(self._items[k])
            for part in _unpack(self._items[k]):
                offsets = [i - start for i in range(start, start + _size(part)) if i in up]
                rows += _built(part, offsets)
                start += _size(part)
        return rows if wanted.step > 0 else rows[::-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes, bytearray)):
            return NotImplemented  # rows are never equal to text, as a list's are not
        return len(self) == len(other) and all(map(eq, self, other))


def _template(item: _Period) -> tuple | None:
    """What each period of `item`'s jump writes alike, or None when a record
    or step is off the template: each row's step in the logged period and
    tail (the text after `"step": N`, from `_Stretch.tails` or `_line`), and
    each row that shows weights as (its place, its dispatch's index in
    `calls`, its call's index there), whose tail ends at `"w_pos_before": `."""
    steps, tails, weighted = [], [], []
    calls = enumerate(item.calls)
    for logged in item.period:
        if type(logged) is _Stretch:
            record = logged.tails()
            if record is None or type(logged.first) is not int:
                return None
            steps += range(logged.first, logged.first + len(record))
            tails += record
            continue
        at, records, _ = logged
        j, made = next(calls)
        if type(at) is not int:
            return None
        # the call whose weights each row shows, in `_rows` order
        picks = (i for i, call in enumerate(made) if call[2] is None)
        shown = [next(picks) if rec.trigger == TRIGGER_CHOICE else None
                 for rec in records if rec.note is None]
        shown += [i for i, call in enumerate(made) if call[2] is not None]
        for row, i in zip(_rows(at, records, made), shown):
            text = _line(row._replace(**_NO_WEIGHTS))[len(f'{{"step": {at}'):]
            if i is not None:
                weighted.append((len(tails), j, i))
            tails.append(text + "\n" if i is None else text[:-1] + ', "w_pos_before": ')
            steps.append(at)
    return steps, tails, weighted


# a choice or outcome row's line after `"w_pos_before": `, from its two or four
# weights, all that differs between periods: `_replay` makes the logged calls again
_NO_WEIGHTS = dict.fromkeys(TRACE_KEYS[5:9])
_WEIGHTS = {2: '{!r}, "w_neg_before": {!r}}}\n'.format,
            4: '{!r}, "w_pos_after": {!r}, "w_neg_before": {!r}, "w_neg_after": {!r}}}\n'.format}


class _JsonlWriter:
    """The one trace writer: each row, record and replayed period as JSON
    lines of `fh`, in order. It keeps the `_template` of the last jump's
    period, and writes each period as one join of its steps and tails and its
    weights, or row by row when it holds a weight `_as_repr` does not take."""

    def __init__(self, fh):
        self._write = fh.write
        # the logged period of the last jump, and its template
        self._period = self._template = None

    def append(self, item: TraceEvent | _Stretch | _Period) -> None:
        kind = type(item)
        if kind is _Stretch:
            self._write(item.text())
        elif kind is not _Period:
            self._write(_line(item) + "\n")
        else:
            if item.period is not self._period:
                self._period, self._template = item.period, _template(item)
            if self._template is not None:
                steps, tails, weighted = self._template
                shift, calls = item.shift, item.calls
                lines = [f'{{"step": {s + shift}{tail}' for s, tail in zip(steps, tails)]
                for slot, j, i in weighted:
                    _, _, _, b, a = calls[j][i]  # weights before, and after an outcome
                    w = (b.w_pos, b.w_neg) if a is None else (b.w_pos, a.w_pos, b.w_neg, a.w_neg)
                    if not all(map(_as_repr, w)):
                        break
                    lines[slot] += _WEIGHTS[len(w)](*w)
                else:
                    self._write("".join(lines))
                    return
            for part in _unpack(item):
                self.append(part)


def write_trace_jsonl(trace, path: str | Path) -> None:
    """Write the trace's rows to `path`, in order, each as the text of
    `json.dumps(row.to_dict())` and a newline, through one `_JsonlWriter`, as
    `run_life` streams them. `trace` is a `Trace`, whose records and
    replayed periods are written by their templates without building their
    tick rows, or any iterable of rows.
    An empty trace gives an empty file. The write goes through `replacing`,
    so one that fails part way leaves `path` as it was."""
    with replacing(path) as fh:
        append = _JsonlWriter(fh).append
        for item in trace._items if isinstance(trace, Trace) else trace:
            append(item)


def write_stats_csv(stats: SurvivalStats, path: str | Path) -> None:
    lines = [",".join(STATS_CSV_HEADER)]
    for i, r in enumerate(stats.results, start=1):
        lines.append(
            f"{i},{r.outcome},{r.lifetime},"
            f"{r.recharges.get(SOURCE_STATION, 0)},{r.recharges.get(SOURCE_WIRELESS, 0)}"
        )
    with replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")
