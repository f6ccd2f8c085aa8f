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
machine is quiescent (`MachineInstance.quiescent`: no pending choice and no
`auto` arm enabled under the current guards). Each following tick then only
drains idle power and, in a `recharge`/`charge` leaf, charges at the same
power (the station's rate, or the coupling at the pose, which does not
move). The loop runs those ticks with the same float operations as
`tick_discharge` and `apply_charge`, so every level is bitwise equal. It
stops before the first tick that would flip `powerLow` or `powerLower`
(falling, or rising: a watcher re-arm), turn `batteryFull` on, bring the
charge count to `max_charge_ticks`, empty both stores, or be the last; that
tick runs in full, so threshold and charge-timer events, death and the
horizon each keep one code path. This is exact because guards are positive
only, so only a guard turning on can enable an arm, and none turns on inside
the stretch: `isSignalSufficient` depends on the pose alone, and
`batteryFull` turns on and the hunger guards flip only at the ticks where
the stretch stops (a battery falling from full turns `batteryFull` off,
which enables nothing). After each update the watcher is armed exactly when
the battery is at or above its threshold, so without a crossing it neither
fires nor re-arms. Path, pose and mood stay constant, so a traced life
still gets one summary row per tick.

An untraced life takes an idle stretch in closed form (`_idle_jump`). Under
IEEE 754 round-to-nearest, while the battery stays in one binade
[2**e, 2**(e+1)) and pays the whole drain, every `battery - drain` rounds
to `battery - delta` with the same delta, `drain` rounded to the binade's
ulp, so n ticks leave exactly `battery - n*delta` and the capacitor as it
was; a bisection on the same `b / capacity < frac` expressions finds the
first tick that flips a hunger guard. Binade edges, drains of exactly half
an odd number of ulps (whose rounding follows the battery's last bit), a
battery below the drain (the capacitor path) and subnormal levels are
stepped one tick at a time; a drain below half an ulp leaves the battery
as it is and takes the whole stretch at once.

A traced life appends each row to a sink: `run_episode` keeps the rows in a
list, and `run_life` writes each one to its file as a JSON line as soon as
it is made, so its memory does not grow with the horizon; `run_monte_carlo`
builds none. One formatter, `_line`, writes every trace line: an f-string
per row kind, byte-identical to `json.dumps(row.to_dict())`, which it falls
back to for any row whose values it cannot prove it writes the same way.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from collections import Counter, deque
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

from . import weights as weights_mod
from .energy import (
    SOURCE_NONE,
    SOURCE_STATION,
    SOURCE_WIRELESS,
    EnergyState,
    ThresholdWatcher,
    apply_charge,
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
from .weights import WeightTable, record_outcome, save_weights, select_option
from .world import (
    CUE_IR,
    CUE_TRACK,
    FOLLOW_ARRIVED,
    FOLLOW_LOST,
    RobotPose,
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

# state name -> charging source while the robot sits in it
CHARGING_STATES = {"recharge": SOURCE_STATION, "charge": SOURCE_WIRELESS}

STATS_CSV_HEADER = ("episode", "outcome", "lifetime", "recharges_station", "recharges_wireless")

@dataclass(frozen=True)
class SimConfig:
    scenario: ScenarioDef
    seed: int = 0
    memory_mode: str = MEMORY_VOLATILE
    max_steps: int = 10_000
    weights_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.memory_mode not in (MEMORY_VOLATILE, MEMORY_NONVOLATILE):
            raise ValueError(f"unknown memory mode {self.memory_mode!r}")
        if self.memory_mode == MEMORY_NONVOLATILE and self.weights_path is None:
            raise ValueError("nonvolatile memory requires weights_path")
        if self.memory_mode == MEMORY_VOLATILE and self.weights_path is not None:
            raise ValueError("volatile memory must not set weights_path")


@dataclass(slots=True)
class TraceEvent:
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
        return {k: v for k, v in zip(TRACE_KEYS, _trace_fields(self)) if v is not None}


TRACE_KEYS = tuple(f.name for f in fields(TraceEvent))
_trace_fields = attrgetter(*TRACE_KEYS)


@dataclass
class EpisodeResult:
    outcome: str
    lifetime: int
    death_step: int | None
    choices_made: dict[tuple[str, str], int]
    first_choices: dict[str, str]
    final_weights: dict[tuple[str, str], weights_mod.WeightEntry]
    recharges: dict[str, int]


@dataclass
class SurvivalStats:
    episodes: int
    survival_fraction: float
    mean_lifetime: float
    behavioral_entropy: float
    results: list[EpisodeResult]


# A behaviour returns the tick's (pose, activities, events); the activity set is
# the loop's to extend.
_FOLLOW_EVENTS = {FOLLOW_ARRIVED: (EVENT_LOCATED,), FOLLOW_LOST: (EVENT_LOST,)}


def _behave_follow(cue: str):
    def run(ep: "_Episode"):
        gain = sensor_gain(ep.energy, ep.profile.gain_min)
        acts = {"sense", "process"}
        cues = detect_station_cues(ep.world, ep.pose, gain)
        if not (cues.ir_detected if cue == CUE_IR else cues.track_detected):
            return ep.pose, acts, (EVENT_LOST,)
        new_pose, status = step_follow(ep.world, ep.pose, cue, gain)
        if new_pose.pos != ep.pose.pos:
            acts.add("move")
        return new_pose, acts, _FOLLOW_EVENTS.get(status, ())

    return run


def _behave_poll(ep: "_Episode"):
    gain = sensor_gain(ep.energy, ep.profile.gain_min)
    acts = {"sense", "process"}
    if poll_beacon(ep.world, ep.pose, gain) is None:
        return ep.pose, acts, (EVENT_NO_SIGNAL,)
    beacon = ep.world.beacon
    if math.dist(ep.pose.pos, beacon.pos) <= beacon.resonance_radius:
        return ep.pose, acts, (EVENT_FOUND,)
    new_pose = step_seek_intensity(ep.world, ep.pose)
    if new_pose.pos != ep.pose.pos:
        acts.add("move")
    return new_pose, acts, ()


def _behave_engage(ep: "_Episode"):
    if coupling_efficiency(ep.world, ep.pose.pos) > 0.0:
        return ep.pose, {"process"}, (EVENT_LOCATED,)
    return ep.pose, {"process"}, (EVENT_NO_SIGNAL,)


def _behave_navigate(ep: "_Episode"):
    acts = {"sense", "process"}
    if ep.signal_sufficient():
        return ep.pose, acts, ()
    new_pose = step_seek_intensity(ep.world, ep.pose)
    if new_pose.pos != ep.pose.pos:
        acts.add("move")
    return new_pose, acts, ()


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


def _idle_jump(
    battery: float, drain: float, capacity: float, low_frac: float, lower_frac: float,
    budget: int,
) -> tuple[int, float]:
    """Take up to `budget` idle ticks at once: (ticks taken, battery after them).

    The battery is in [2**e, 2**(e+1)), whose ulp is u, and delta is `drain`
    rounded to a multiple of u. Tick k leaves exactly `battery - k*delta`
    when the exact `battery - (k-1)*delta - drain` is at least 2**e; of
    those ticks, the ones before the first that would flip a hunger
    predicate are taken (found by bisection), and the capacitor is left as
    it is. Returns 0 ticks, for the caller to step one, where tick 1 is not
    such a tick: at a binade edge, a drain of exactly half an odd number of
    ulps, `battery < drain`, or a subnormal battery.
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
    low, lower = battery / capacity < low_frac, battery / capacity < lower_frac

    def flips(k: int) -> bool:
        b = battery - k * delta
        return (b / capacity < low_frac) != low or (b / capacity < lower_frac) != lower

    if flips(n):
        ok, bad = 0, n
        while bad - ok > 1:
            mid = (ok + bad) // 2
            if flips(mid):
                bad = mid
            else:
                ok = mid
        n = ok
    return n, battery - n * delta


class _Episode:
    """One life, and the dispatch context its machine runs in.

    `dispatch` reads `step` and calls back `guard`, `choose` and `outcome`;
    the last two note what they did, and `_dispatch` turns the notes into
    trace rows once the run to completion is over. Rows are built only when
    the life has a `trace` sink (anything with `append`: a list, or a
    `_JsonlWriter`) to append them to.
    """

    def __init__(self, cfg: SimConfig, table: WeightTable, trace):
        self.cfg = cfg
        self.scenario = cfg.scenario
        self.world = cfg.scenario.world
        self.profile = cfg.scenario.energy_profile
        self.table = table
        self.rng = random.Random(cfg.seed)
        self.energy: EnergyState = self.profile.initial_state()
        self.pose = RobotPose(pos=self.world.robot_start)
        self.instance: MachineInstance = start_instance(self.scenario)
        self.vocabulary = self.scenario.event_vocabulary()
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
        # per dispatch: the weights each choice consulted, and each outcome's
        # (state path, node, option, success, weights before, weights after)
        self.consulted: list[weights_mod.WeightEntry] = []
        self.outcomes: list[tuple] = []

    # -- dispatch context ----------------------------------------------------

    def signal_sufficient(self) -> bool:
        beacon = self.world.beacon
        return beacon is not None and intensity_at(self.world, self.pose.pos) >= beacon.i_min

    def guard(self, name: str) -> bool:
        if name == "isSignalSufficient":
            return self.signal_sufficient()
        if name == "batteryFull":
            return self.energy.battery >= self.energy.battery_capacity
        if name == "powerLow":
            return self.energy.battery_frac < self.profile.thresholds.low_frac
        if name == "powerLower":
            return self.energy.battery_frac < self.profile.thresholds.lower_frac
        raise ValueError(f"unknown guard '{name}'")

    def choose(self, node: str, options: list[str]) -> str:
        chosen = select_option(self.table, node, options, self.rng)
        self.choice_fired = True
        self.choices_made[(node, chosen)] += 1
        self.first_choices.setdefault(node, chosen)
        self.consulted.append(self.table.get(node, chosen))
        return chosen

    def outcome(self, node: str, option: str, success: bool) -> None:
        before = self.table.get(node, option)
        after = record_outcome(self.table, node, option, success)
        self.outcomes.append((self.instance.active_path(), node, option, success, before, after))

    # -- plumbing ------------------------------------------------------------

    def _enqueue(self, events) -> None:
        for event in events:
            if event in self.vocabulary:
                self.queue.append(event)

    def _dispatch(self, event: str) -> None:
        self.consulted.clear()
        self.outcomes.clear()
        records = dispatch(self.instance, event, self)
        if self.trace is not None:
            self._trace_dispatch(records)
        if self.instance.status != STATUS_RUNNING:
            self.instance = start_instance(self.scenario)

    def _trace_dispatch(self, records) -> None:
        """Append one dispatch's rows: transitions in firing order (a choice
        row carries the weights it consulted), then the outcomes."""
        consulted = iter(self.consulted)
        for rec in records:
            if rec.note is not None:
                continue
            if rec.trigger == TRIGGER_CHOICE:
                # the choice left its node, the innermost state of from_path
                entry = next(consulted)
                self.trace.append(TraceEvent(
                    step=self.step, state="/".join(rec.from_path), event=TRIGGER_CHOICE,
                    node=rec.from_path[-1], option=rec.chosen_option,
                    w_pos_before=entry.w_pos, w_neg_before=entry.w_neg,
                ))
            else:
                self.trace.append(TraceEvent(
                    step=self.step, state="/".join(rec.to_path), event=rec.trigger,
                ))
        for path, node, option, success, before, after in self.outcomes:
            self.trace.append(TraceEvent(
                step=self.step, state="/".join(path),
                event="outcome_success" if success else "outcome_failure",
                node=node, option=option,
                w_pos_before=before.w_pos, w_pos_after=after.w_pos,
                w_neg_before=before.w_neg, w_neg_after=after.w_neg,
            ))

    def _charging(self) -> tuple[str, float]:
        """The leaf's charging source and the power it gives this tick."""
        source = CHARGING_STATES.get(self.instance.leaf_state_name() or "", SOURCE_NONE)
        if source == SOURCE_STATION and self.world.station is not None:
            return source, self.world.station.charge_rate
        if source == SOURCE_WIRELESS and self.world.beacon is not None:
            return source, coupling_efficiency(self.world, self.pose.pos) * self.world.beacon.tx_power
        return SOURCE_NONE, 0.0

    # -- main loop -----------------------------------------------------------

    def run(self) -> EpisodeResult:
        self._enqueue(self.watcher.update(self.energy))
        max_steps = self.cfg.max_steps
        death_step: int | None = None
        step = 0

        while step < max_steps:
            step += 1
            self.step = step
            self.choice_fired = False

            while self.queue:
                self._dispatch(self.queue.popleft())
            self._dispatch(AUTO)

            behavior = BEHAVIORS.get(self.instance.leaf_state_name() or "", _behave_idle)
            self.pose, activities, events = behavior(self)
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
                full = self.energy.battery >= self.energy.battery_capacity
                timed_out = (
                    0 < self.profile.max_charge_ticks <= self.charge_ticks
                )
                if (full or timed_out) and not self.wait_sent:
                    if EVENT_WAIT_TIMER in self.vocabulary:
                        self.queue.append(EVENT_WAIT_TIMER)
                        self.wait_sent = True
                        self.recharges[source] += 1
            else:
                self.charge_ticks = 0
                self.wait_sent = False

            if self.trace is not None:
                self.trace.append(
                    TraceEvent(
                        step=step,
                        state="/".join(self.instance.active_path()),
                        battery=self.energy.battery,
                        capacitor=self.energy.capacitor,
                        mood=mood_of(self.energy, self.profile.thresholds),
                        x=self.pose.pos[0],
                        y=self.pose.pos[1],
                    )
                )
            if self.energy.depleted:
                death_step = step
                break
            if (
                self.queue
                or self.instance.leaf_state_name() in BEHAVIORS
                or not self.instance.quiescent(self)
            ):
                continue

            # A quiet tick. Until the next event each tick drains idle power
            # and, in a charging leaf, then charges at the same power: advance
            # through those ticks with tick_discharge's and apply_charge's
            # float operations, and leave the tick that flips a guard or the
            # watcher, sends the charge timer, empties both stores or is the
            # last one to the loop above.
            energy, trace = self.energy, self.trace
            capacity, battery, capacitor = energy.battery_capacity, energy.battery, energy.capacitor
            capacitor_capacity = energy.capacitor_capacity
            low_frac, lower_frac = self.profile.thresholds.low_frac, self.profile.thresholds.lower_frac
            low, lower = battery / capacity < low_frac, battery / capacity < lower_frac
            drain = self.profile.rates.drain_for(set())
            first, end = step, max_steps
            limit = self.profile.max_charge_ticks
            if source != SOURCE_NONE and 0 < limit and self.charge_ticks < limit:
                # the tick whose count reaches max_charge_ticks runs in full
                end = min(end, step + limit - self.charge_ticks)
            if trace is not None:
                # path, pose and mood (charging, or a function of the two
                # predicates) hold for the whole stretch
                state = "/".join(self.instance.active_path())
                mood = mood_of(energy, self.profile.thresholds)
                x, y = self.pose.pos
            while step + 1 < end:
                if source == SOURCE_NONE and trace is None:
                    n, battery = _idle_jump(
                        battery, drain, capacity, low_frac, lower_frac, end - 1 - step
                    )
                    if n:
                        step += n
                        continue
                taken = min(battery, drain)
                b = battery - taken
                c = max(0.0, capacitor - (drain - taken))
                if source != SOURCE_NONE:
                    to_battery = min(capacity - b, power)
                    if source == SOURCE_WIRELESS:
                        c = min(capacitor_capacity, c + (power - to_battery))
                    b = b + to_battery
                    if b >= capacity > battery:
                        break
                if (
                    (b / capacity < low_frac) != low
                    or (b / capacity < lower_frac) != lower
                    or (b <= 0.0 and c <= 0.0)
                ):
                    break
                step += 1
                battery, capacitor = b, c
                if trace is not None:
                    trace.append(TraceEvent(
                        step=step, state=state, battery=b, capacitor=c, mood=mood, x=x, y=y,
                    ))
            if source != SOURCE_NONE:
                self.charge_ticks += step - first
            self.energy = EnergyState(battery, capacity, capacitor, capacitor_capacity, source)

        if death_step is not None:
            outcome = OUTCOME_DIED
            lifetime = death_step
        else:
            outcome = OUTCOME_SURVIVED
            lifetime = self.cfg.max_steps

        return EpisodeResult(
            outcome=outcome,
            lifetime=lifetime,
            death_step=death_step,
            choices_made=dict(self.choices_made),
            first_choices=dict(self.first_choices),
            final_weights=self.table.snapshot(),
            recharges=dict(self.recharges),
        )


def _initial_table(cfg: SimConfig) -> WeightTable:
    if cfg.memory_mode == MEMORY_NONVOLATILE:
        path = Path(cfg.weights_path)
        if path.exists():
            return weights_mod.load_weights(path)
    return WeightTable(cfg.scenario.seed_weights)


def _live(cfg: SimConfig, table: WeightTable | None, trace) -> EpisodeResult:
    """Run one life, appending its rows to the `trace` sink unless that is None."""
    episode = _Episode(cfg, _initial_table(cfg) if table is None else table, trace)
    result = episode.run()
    if cfg.memory_mode == MEMORY_NONVOLATILE:
        save_weights(episode.table, cfg.weights_path)
    elif result.outcome == OUTCOME_DIED:
        result.final_weights = {}
    return result


def run_episode(
    cfg: SimConfig, table: WeightTable | None = None
) -> tuple[EpisodeResult, list[TraceEvent]]:
    """Run one life and return its result plus the full trace.

    When `table` is omitted, volatile mode starts from the scenario's seed
    weights and nonvolatile mode loads the weights file (falling back to the
    seeds on a cold start). Nonvolatile memory saves the table after every
    life, death or not; a volatile death erases it, so the result reports no
    final weights.
    """
    trace: list[TraceEvent] = []
    return _live(cfg, table, trace), trace


def run_life(cfg: SimConfig, trace_path: str | Path | None = None) -> EpisodeResult:
    """Run one life as `run_episode` does, keeping its trace only on disk.

    Without `trace_path` the life builds no trace rows. With it, each row is
    written as a JSON line when it is made, so memory does not grow with
    `max_steps`. The lines go to a temporary file beside `trace_path` that
    replaces it when the life is over; a life that fails part way (a stuck
    machine, an I/O error) leaves `trace_path` as it was and no temporary
    file. The file holds what `write_trace_jsonl` writes for `run_episode`'s
    trace, byte for byte.
    """
    if trace_path is None:
        return _live(cfg, None, None)
    path = Path(trace_path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            result = _live(cfg, None, _JsonlWriter(fh))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def run_monte_carlo(cfg: SimConfig, episodes: int) -> SurvivalStats:
    """Run `episodes` lives with seeds cfg.seed, cfg.seed+1, ...

    In nonvolatile mode the weight table threads through the whole batch
    (learning across lives); volatile lives each start from the scenario
    seeds again. No trace is kept: a life builds no rows.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    results: list[EpisodeResult] = []
    table: WeightTable | None = None
    if cfg.memory_mode == MEMORY_NONVOLATILE:
        table = _initial_table(cfg)
    for i in range(episodes):
        results.append(_live(replace(cfg, seed=cfg.seed + i), table, None))
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


class _Quoted(dict):
    """String -> its JSON text as `json.dumps` writes it, for recent strings.

    A trace repeats a scenario's few names; the bound keeps arbitrary rows
    from growing the cache for the life of the process.
    """

    def __missing__(self, text: str) -> str:
        if len(self) >= 4096:
            self.clear()
        quoted = self[text] = json.dumps(text)
        return quoted


_QUOTED = _Quoted()


def _finite(value) -> bool:
    """A float whose JSON text is its `repr` (not inf or nan, not a subclass)."""
    return type(value) is float and value - value == 0.0


def _line(e: TraceEvent) -> str:
    """`json.dumps(e.to_dict())`, by one f-string per row kind.

    The kinds are the rows the simulator builds: tick (levels, mood and
    pose), transition (an event alone), choice (the weights consulted) and
    outcome (weights before and after). A kind's f-string is used only when
    exactly its fields are set and each holds the type it was written for,
    whose text is then the one `json` writes: `repr` of an `int` and of a
    finite `float`, and `json.dumps` of a `str` (memoised). Any other row
    goes through `json.dumps` itself.
    """
    q = _QUOTED
    step, state, event = e.step, e.state, e.event
    if type(step) is not int or type(state) is not str:
        return json.dumps(e.to_dict())
    if event is None:
        b, c, mood, x, y = e.battery, e.capacitor, e.mood, e.x, e.y
        if (
            e.node is e.option is e.w_pos_before is e.w_pos_after is None
            and e.w_neg_before is e.w_neg_after is None
            and _finite(b) and _finite(c) and type(mood) is str
            and type(x) is int and type(y) is int
        ):
            return (
                f'{{"step": {step}, "state": {q[state]}, "battery": {b!r}, '
                f'"capacitor": {c!r}, "mood": {q[mood]}, "x": {x}, "y": {y}}}'
            )
    elif type(event) is str and e.battery is e.capacitor is e.mood is e.x is e.y is None:
        node, option = e.node, e.option
        pos, neg, pos_after, neg_after = e.w_pos_before, e.w_neg_before, e.w_pos_after, e.w_neg_after
        head = f'{{"step": {step}, "state": {q[state]}, "event": {q[event]}'
        if node is option is pos is neg is pos_after is neg_after is None:
            return head + "}"
        if type(node) is str and type(option) is str and _finite(pos) and _finite(neg):
            head += f', "node": {q[node]}, "option": {q[option]}, "w_pos_before": {pos!r}'
            if pos_after is neg_after is None:
                return f'{head}, "w_neg_before": {neg!r}}}'
            if _finite(pos_after) and _finite(neg_after):
                return (
                    f'{head}, "w_pos_after": {pos_after!r}, "w_neg_before": {neg!r}, '
                    f'"w_neg_after": {neg_after!r}}}'
                )
    return json.dumps(e.to_dict())


def trace_lines(trace) -> list[str]:
    """The trace's rows as JSON text, one string per row."""
    return [_line(event) for event in trace]


class _JsonlWriter:
    """A trace sink that writes each row appended to it as one line of `fh`."""

    def __init__(self, fh):
        self._write = fh.write

    def append(self, event: TraceEvent) -> None:
        self._write(_line(event) + "\n")


def write_trace_jsonl(trace, path: str | Path) -> None:
    """Write the trace's rows to `path` as JSON lines, in order.

    Each row is one `_line` (the text of `json.dumps(row.to_dict())`) and a
    newline, written through the file's buffer as it is formatted; an empty
    trace gives an empty file.
    """
    with open(path, "w") as fh:
        sink = _JsonlWriter(fh)
        for event in trace:
            sink.append(event)


def write_stats_csv(stats: SurvivalStats, path: str | Path) -> None:
    lines = [",".join(STATS_CSV_HEADER)]
    for i, r in enumerate(stats.results, start=1):
        lines.append(
            f"{i},{r.outcome},{r.lifetime},"
            f"{r.recharges.get(SOURCE_STATION, 0)},{r.recharges.get(SOURCE_WIRELESS, 0)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
