"""Feeding cycles: a life jumps whole periods of its cycle.

After each quiet stretch a life keys its loop state. When a state comes back
with no tie draw, no failure and one option per choice node in between, the
life jumps the whole periods that end before its last tick (the
`foragesim.sim` docstring says why that is exact), replaying each period's
choices and outcomes in the order they were made, and, in a traced life, its
rows. The reference is the same life with the jump patched to 0 steps, which
simulates every period in full: each life must equal it (result, final
weights and weights file, `Trace`, `write_trace_jsonl` bytes and the streamed
`run_life` file), or raise the same `MachineStuckError`.
"""

import filecmp
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from foragesim import sim
from foragesim.scenario import parse_scenario, serialize_scenario
from foragesim.scenarios import BUILTIN_NAMES, builtin_scenario, builtin_scenario_text
from foragesim.sim import (
    CYCLE_STATES,
    MEMORY_NONVOLATILE,
    MEMORY_VOLATILE,
    OUTCOME_DIED,
    OUTCOME_SURVIVED,
    SimConfig,
    run_episode,
    run_life,
    run_monte_carlo,
    write_trace_jsonl,
)
from foragesim.statemachine import MachineStuckError
from foragesim.weights import WeightTable

sys.path.insert(0, str(Path(__file__).parent))
from genscenarios import random_scenario  # noqa: E402
from test_quiet_ticks import _play, _tick_by_tick  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))
from survival_vs_drain import scaled  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import gen  # noqa: E402

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


# a success exit leads back into the choice within one dispatch: the choice row
# carries the weights the outcome has already moved, and the outcome's row
# follows it
SAME_DISPATCH = """
[machine top entry]
initial -> pick
choice pick : feed | starve
submachine feed = feeder -> pick on back
state starve

[machine feeder]
initial -> wait
state wait -> recharge on power_low
state recharge -> exit.back on waitTimer_expired
exit back (success)

[weights]
pick.feed = 0.9 0.0
pick.starve = 0.0 1.0
""" + WORLD

# a leaf with a behaviour every tick, and a battery that lasts the horizon:
# no tick is quiet, so the life never keys its loop state
ALWAYS_BEHAVES = """
[machine top entry]
initial -> seek_intensity
state seek_intensity

[world]
grid = 8 8
robot.start = 2 2
beacon.pos = 2 2
beacon.tx_power = 2
beacon.i_min = 0.1

[energy]
battery_capacity = 1000000
"""

# one quiet stretch, whose loop state is keyed, then a behaviour every tick
# until the life ends
ONE_KEY = """
[machine top entry]
initial -> rest
state rest -> seek_intensity on power_low
state seek_intensity

[world]
grid = 8 8
robot.start = 2 2
beacon.pos = 2 2
beacon.tx_power = 2
beacon.i_min = 0.1

[energy]
battery_capacity = 1000
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


def _no_jump(call, *args):
    """`call(*args)` with the jump patched to 0 steps, so that every period is
    simulated in full: the reference a life must equal."""
    with mock.patch.object(sim._Episode, "_periods", lambda episode, step: 0):
        return call(*args)


def _traced(cfg, path, table=None):
    """The result of `run_episode(cfg, table)` (or its stuck error as a tuple)
    and its trace's items (None if stuck); the trace is written to `path`.

    Equal items are equal rows, in equal records (a tick's rows with the
    quiet stretch after it), and they compare without building the rows."""
    try:
        result, trace = run_episode(cfg, table)
    except MachineStuckError as exc:
        return ("stuck", exc.step, exc.path, exc.event), None
    write_trace_jsonl(trace, path)
    return result, trace._items


def _weights_file(cfg):
    path = cfg.weights_path
    return path.read_bytes() if path is not None and path.exists() else None


def _reference(cfg, path, table=None):
    """`_traced(cfg, path, table)` with every period simulated (`_no_jump`),
    and the number of tie draws that life made."""
    draws, original = [], sim._Episode.randrange
    with mock.patch.object(sim._Episode, "randrange",
                           lambda episode, stop: draws.append(stop) or original(episode, stop)):
        result, trace = _no_jump(_traced, cfg, path, table)
    return result, trace, len(draws)


def _assert_traced_equal(cfg, tmp_path, table=None, ref_table=None, reference=None):
    """A traced life of `cfg` from `table` equals its no-jump reference from
    `ref_table`: its result, its weights file, its `Trace` and the bytes
    `write_trace_jsonl` writes of it and, when it starts from a fresh table,
    the file `run_life` streams. Returns the reference, as `_reference`
    gives it; a `reference` passed in, whose trace is already written at
    tmp_path / "reference.jsonl", is used instead of simulating one."""
    path, jumping = tmp_path / "reference.jsonl", tmp_path / "jumping.jsonl"
    if reference is None:
        reference = _reference(cfg, path, ref_table)
    result, trace, _ = reference
    weights = _weights_file(cfg)
    assert _traced(cfg, jumping, table) == (result, trace)
    assert _weights_file(cfg) == weights
    if trace is not None:
        assert filecmp.cmp(jumping, path, shallow=False)
    if table is None and cfg.memory_mode == MEMORY_VOLATILE:
        streamed = tmp_path / "streamed.jsonl"
        assert _outcome(run_life, cfg, streamed) == result
        if trace is not None:
            assert filecmp.cmp(streamed, path, shallow=False)
    return reference


def _assert_equal_the_reference(scenario, seed, steps, tmp_path, lives=2):
    """Each traced life of `lives` seeds equals its no-jump reference (see
    `_assert_traced_equal`); `run_life` untraced, and a volatile and a
    nonvolatile `run_monte_carlo` of those lives, equal the references' results;
    the nonvolatile lives thread one table and leave the same weights file.

    A volatile life reads its seed only at a tie draw, so when the first
    seed's reference draws nothing it is every seed's reference
    (`test_sim.py::TestReusedLives` pins that a batch of such lives is one
    life repeated)."""
    cfg = SimConfig(scenario, seed=seed, max_steps=steps)
    first = _assert_traced_equal(cfg, tmp_path)
    shared = first if first[2] == 0 else None
    references = [first[0]] + [
        _assert_traced_equal(cfg._replace(seed=seed + i), tmp_path, reference=shared)[0]
        for i in range(1, lives)]
    assert _outcome(run_life, cfg) == references[0]
    stats = _outcome(run_monte_carlo, cfg, lives)
    assert (stats if type(stats) is tuple else stats.results) == _batch(references)

    def config(name, s=seed):
        return cfg._replace(seed=s, memory_mode=MEMORY_NONVOLATILE, weights_path=tmp_path / name)

    table, ref_table, references = (WeightTable(scenario.seed_weights),
                                    WeightTable(scenario.seed_weights), [])
    for i in range(lives):
        result = _assert_traced_equal(config("traced.csv", seed + i), tmp_path, table, ref_table)[0]
        references.append(result)
        if type(result) is tuple:
            break
    stats = _outcome(run_monte_carlo, config("mc.csv"), lives)
    if type(stats) is tuple:
        assert stats == _batch(references)
    else:
        assert stats.results == references
        assert (tmp_path / "mc.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()


class _Jumps:
    """Records each jump `_Episode._periods` makes, as (step, period, steps
    jumped), how often it was asked and how often the loop state had been
    seen, the size of the state table each time, and each answer as (step,
    steps jumped)."""

    def __init__(self, monkeypatch):
        self.jumps, self.asked, self.returned, self.sizes, self.answers = [], 0, 0, [], []
        original = sim._Episode._periods

        def periods(episode, step):
            self.asked += 1
            self.sizes.append(len(episode.seen))
            mark = episode.seen.get(episode._loop_state())
            self.returned += mark is not None
            jumped = original(episode, step)
            self.answers.append((step, jumped))
            if jumped:
                self.jumps.append((step, step - mark[0], jumped))
            return jumped

        monkeypatch.setattr(sim._Episode, "_periods", periods)


class _Writers(list):
    """Every `_JsonlWriter` made while it is installed, in order."""

    def __init__(self, monkeypatch):
        super().__init__()
        original = sim._JsonlWriter.__init__

        def init(writer, fh):
            original(writer, fh)
            self.append(writer)

        monkeypatch.setattr(sim._JsonlWriter, "__init__", init)


def _held(writer):
    """How many records a writer's memo holds, and how many of them with tails."""
    kept = writer._records.values()
    return len(kept), sum(tails is not None for _, tails in kept)


class _LogSizes:
    """The length of each life's period log after each item it notes."""

    def __init__(self, monkeypatch):
        self.sizes = []
        original = sim._Episode._note

        def note(episode, item):
            original(episode, item)
            self.sizes.append(len(episode.log))

        monkeypatch.setattr(sim._Episode, "_note", note)


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
        _assert_equal_the_reference(builtin_scenario(name), 3, LONG, tmp_path)

    @pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "dual_source"])
    @pytest.mark.parametrize("drain", [4, 10.875])
    def test_scaled_builtins_at_200000_steps(self, name, drain, tmp_path):
        # dual_source is scaled in the sweep below
        _assert_equal_the_reference(scaled(builtin_scenario(name), drain), 3, LONG, tmp_path)

    @pytest.mark.parametrize("drain", [1, 4, 10.5, 10.875, 10.9, 16])
    def test_dual_source_drain_sweep_at_200000_steps(self, drain, tmp_path):
        scenario = scaled(builtin_scenario("dual_source"), drain)
        _assert_equal_the_reference(scenario, 0, LONG, tmp_path)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_trace_run_lives(self, seed, tmp_path):
        for item in gen.trace_run(seed):
            _assert_traced_equal(SimConfig(parse_scenario(item.text), seed=item.seed,
                                           max_steps=item.steps), tmp_path)

    def test_tied_dual_source(self, tmp_path, monkeypatch):
        jumps = _Jumps(monkeypatch)
        scenario = parse_scenario(TIED_DUAL_SOURCE, name="dual_source_tied")
        _assert_equal_the_reference(scenario, 3, LONG, tmp_path, lives=4)
        assert jumps.jumps  # the tie is drawn once, then the cycle is jumped

    def test_generated_scenarios(self, tmp_path):
        for seed in range(120):
            scenario = parse_scenario(serialize_scenario(random_scenario(seed)))
            (tmp_path / str(seed)).mkdir()
            _assert_equal_the_reference(scenario, seed, 3000, tmp_path / str(seed))

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
                cfg = SimConfig(scenario, seed=seed, max_steps=s1 + periods * period + offset)
                # the last tick always runs, so `periods` whole periods are
                # jumped only when a tick is left after them; a traced life
                # jumps the same steps
                jumped = [(s1, period, (cfg.max_steps - 1 - s1) // period * period)]
                for life in (run_life, lambda c: run_episode(c)[0]):
                    jumps.jumps.clear()
                    life(cfg)
                    assert jumps.jumps == jumped
                (tmp_path / str(cfg.max_steps)).mkdir()
                _assert_equal_the_reference(scenario, seed, cfg.max_steps,
                                            tmp_path / str(cfg.max_steps))

    @pytest.mark.parametrize("text, seed, steps", [(SAME_DISPATCH, 0, 5000),
                                                   (FEED.format(tag="success"), 0, 20_000),
                                                   (builtin_scenario_text("dual_source"), 3,
                                                    20_000)],
                             ids=["same_dispatch", "feed", "dual_source"])
    def test_jumping_lives_equal_the_tick_by_tick_loop(self, text, seed, steps, monkeypatch):
        jumps = _Jumps(monkeypatch)
        for api in ("run_episode", "run_monte_carlo"):
            for memory in (MEMORY_VOLATILE, MEMORY_NONVOLATILE):
                args = (parse_scenario(text), seed, memory, api, steps)
                assert _play(*args) == _tick_by_tick(*args)
        assert jumps.jumps


class TestRowOrder:
    """A choice row carries the weights its choice read, and a dispatch's
    outcome rows follow all its transitions; so when a success exit leads
    back into a choice of the same node within one dispatch, the choice row
    shows a weight that an outcome row written after it has moved."""

    def test_a_choice_row_shows_the_weight_a_later_outcome_row_moved(self):
        _, trace = run_episode(SimConfig(parse_scenario(SAME_DISPATCH), seed=0, max_steps=200))
        rows = [row for row in trace if row.step == 56 and row.event is not None]
        assert [row.event for row in rows] == ["waitTimer_expired", "back", "choice",
                                               "outcome_success"]
        choice, outcome = rows[2:]
        assert (choice.node, choice.option, choice.w_pos_before) == ("pick", "feed", 0.95)
        assert (outcome.node, outcome.option) == ("pick", "feed")
        assert (outcome.w_pos_before, outcome.w_pos_after) == (0.9, 0.95)

    def test_the_same_dispatch_cycle_is_replayed_in_call_order(self, tmp_path, monkeypatch):
        jumps = _Jumps(monkeypatch)
        scenario = parse_scenario(SAME_DISPATCH)
        _assert_equal_the_reference(scenario, 0, 5000, tmp_path)
        jumps.jumps.clear()
        _, trace = run_episode(SimConfig(scenario, seed=0, max_steps=5000))
        [(step, period, jumped)] = jumps.jumps
        assert step == 103 and jumped > 40 * period
        # every replayed choice row shows the weight the outcome after it moved
        rows = [row for row in trace if row.event in ("choice", "outcome_success")]
        pairs = list(zip(rows[1::2], rows[2::2]))
        assert len(pairs) > 40 and rows[0].event == "choice"
        assert all(c.step == o.step and c.w_pos_before == o.w_pos_after for c, o in pairs)


class TestJump:
    def test_full_ticks_stop_growing_with_the_horizon(self, monkeypatch):
        full = []
        original = sim.tick_discharge
        monkeypatch.setattr(sim, "tick_discharge", lambda *args: full.append(1) or original(*args))
        cfg = SimConfig(builtin_scenario("dual_source"), seed=3, max_steps=LONG)
        reference = _no_jump(lambda: run_episode(cfg)[0])
        reference_ticks = len(full)
        for life in (run_life, lambda c: run_episode(c)[0]):
            full[:] = []
            assert life(cfg) == reference and reference.outcome == OUTCOME_SURVIVED
            assert 0 < len(full) * 20 < reference_ticks

    def test_traced_life_writes_every_tick_row(self, tmp_path, monkeypatch):
        jumps = _Jumps(monkeypatch)
        cfg = SimConfig(builtin_scenario("dual_source"), seed=3, max_steps=LONG)
        path, reference = tmp_path / "trace.jsonl", tmp_path / "reference.jsonl"
        traced = run_life(cfg, path)
        assert jumps.jumps
        with path.open() as fh:
            assert sum('"battery"' in line for line in fh) == LONG
        assert _no_jump(run_life, cfg, reference) == traced == run_life(cfg)
        assert filecmp.cmp(path, reference, shallow=False)

    @pytest.mark.parametrize("periods, offset", [(None, 0), (2, -1), (2, 1), (3, -1), (3, 1)],
                             ids=["200000", "s1+2p-1", "s1+2p+1", "s1+3p-1", "s1+3p+1"])
    def test_a_life_looks_on_after_its_jump_and_jumps_once(self, periods, offset, tmp_path,
                                                           monkeypatch):
        # after the jump fewer ticks than a period are left, so the life
        # keeps asking and is told 0 each time; at s1 + m*p + 1 the jump
        # leaves only the last tick, which starts the period and is not quiet
        jumps = _Jumps(monkeypatch)
        cfg = SimConfig(builtin_scenario("dual_source"), seed=3, max_steps=LONG)
        run_life(cfg)
        [(s1, period, _)] = jumps.jumps
        if periods is not None:
            cfg = cfg._replace(max_steps=s1 + periods * period + offset)
        for life in (run_life, lambda c: run_episode(c)[0]):
            jumps.jumps.clear()
            jumps.answers.clear()
            life(cfg)
            [(step, _, jumped)] = jumps.jumps
            after = jumps.answers[jumps.answers.index((step, jumped)) + 1:]
            assert (offset == 1 or after) and all(answer == 0 for _, answer in after)
        _assert_traced_equal(cfg, tmp_path)
        assert run_life(cfg) == _no_jump(run_life, cfg)

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
        _assert_equal_the_reference(parse_scenario(FEED.format(tag="success")), 0, 20_000,
                                    tmp_path)
        assert jumps.jumps


class TestMemory:
    """A streamed traced life keeps at most CYCLE_STATES items in its period
    log, whatever its horizon."""

    @pytest.mark.parametrize("text, fills", [(NEVER_REPEATS, True), (ALWAYS_BEHAVES, False),
                                             (ONE_KEY, True)],
                             ids=["never_repeats", "always_behaves", "one_key"])
    def test_the_period_log_stays_within_its_bound(self, text, fills, tmp_path, monkeypatch):
        jumps, log = _Jumps(monkeypatch), _LogSizes(monkeypatch)
        cfg = SimConfig(parse_scenario(text), max_steps=20_000)
        result = run_life(cfg, tmp_path / "trace.jsonl")
        assert result == _no_jump(run_life, cfg) and not jumps.jumps
        assert max(log.sizes, default=0) == (CYCLE_STATES if fills else 0)
        if text == ALWAYS_BEHAVES:
            assert not jumps.asked and result.outcome == OUTCOME_SURVIVED
        if text == ONE_KEY:
            # the key of its one quiet stretch, then a log that fills and
            # starts over, after which nothing is logged
            assert jumps.asked == 1 and log.sizes[-1] == 0
            assert result.outcome == OUTCOME_DIED and result.lifetime > 3 * CYCLE_STATES

    @pytest.mark.parametrize("text", [NEVER_REPEATS, ALWAYS_BEHAVES],
                             ids=["never_repeats", "always_behaves"])
    def test_a_life_that_never_jumps_leaves_its_writer_no_text(self, text, tmp_path, monkeypatch):
        # no record is copied, so the writer keeps the text of none, streamed
        # or written from a `Trace`; its memo fills with the records alone
        jumps, writers = _Jumps(monkeypatch), _Writers(monkeypatch)
        cfg = SimConfig(parse_scenario(text), max_steps=20_000)
        run_life(cfg, tmp_path / "streamed.jsonl")
        write_trace_jsonl(run_episode(cfg)[1], tmp_path / "written.jsonl")
        assert not jumps.jumps
        assert [_held(writer) for writer in writers] == [(CYCLE_STATES, 0)] * 2

    def test_the_writer_holds_at_most_cycle_states_records(self, tmp_path, monkeypatch):
        # a jumping life: the writer keeps the tails of the records it has
        # seen copied, whichever way the trace reaches it
        writers = _Writers(monkeypatch)
        cfg = SimConfig(builtin_scenario("dual_source"), seed=3, max_steps=LONG)
        write_trace_jsonl(run_episode(cfg)[1], tmp_path / "written.jsonl")
        run_life(cfg, tmp_path / "streamed.jsonl")
        held = [_held(writer) for writer in writers]
        assert len(held) == 2 and held[0] == held[1]
        records, tails = held[0]
        assert 0 < tails < records <= CYCLE_STATES
        assert filecmp.cmp(tmp_path / "written.jsonl", tmp_path / "streamed.jsonl", shallow=False)

    def test_a_streamed_life_does_not_grow_with_its_horizon(self, tmp_path):
        def peak(steps):
            sim._level.cache_clear()
            sim._quoted.cache_clear()
            tracemalloc.start()
            try:
                run_life(SimConfig(builtin_scenario("dual_source"), seed=3, max_steps=steps),
                         tmp_path / "trace.jsonl")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # CPython keeps freed tuples on free lists, which tracemalloc counts as
        # in use: a first long life fills them
        peak(LONG)
        # 16 KiB is a few hundred rows' worth
        assert peak(LONG) <= peak(LONG // 10) + 16 * 1024


class TestNoJump:
    """A period that holds a failure, a draw, or two options picked at one
    choice node ends where it began, but the next period may differ: it is
    not jumped."""

    @pytest.mark.parametrize("text", [FEED.format(tag="failure"), TIED],
                             ids=["failure", "draw"])
    def test_period_is_not_jumped(self, text, tmp_path, monkeypatch):
        jumps = _Jumps(monkeypatch)
        _assert_equal_the_reference(parse_scenario(text), 1, 20_000, tmp_path)
        assert jumps.returned and not jumps.jumps

    @pytest.mark.parametrize("options", [("find_station",),
                                         ("find_station", "find_wireless_power")])
    def test_a_node_that_picked_two_options_is_not_jumped(self, options):
        # two options of one node can swap as their failure weights halve,
        # until halving among subnormals ties them; none of the scenarios
        # here reaches that, so the period's dispatches are logged by hand
        episode = _keyed_at_100()
        for option in options:
            episode.calls = []
            episode._call("seek", option)
            episode._call("seek", option, (("top", "seek"), True))
            episode._note((150, [], episode.calls))
        assert episode._periods(200) == (0 if len(options) > 1 else JUMPED_AT_200)

    @pytest.mark.parametrize("part", [None, *_PARTS])
    def test_a_state_that_differs_in_one_part_is_no_repeat(self, part):
        episode = _keyed_at_100()
        if part is not None:
            _PARTS[part](episode)
        assert episode._periods(200) == (0 if part else JUMPED_AT_200)
