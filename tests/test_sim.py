import enum
import errno
import io
import json
import math
import random
import re
import sys
from collections import Counter
from collections.abc import Sequence
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foragesim import sim
from foragesim.scenario import KIND_CHOICE, parse_scenario
from foragesim.scenarios import BUILTIN_NAMES, builtin_scenario, builtin_scenario_text
from foragesim.sim import (
    MEMORY_NONVOLATILE,
    MEMORY_VOLATILE,
    OUTCOME_DIED,
    OUTCOME_SURVIVED,
    TRACE_KEYS,
    SimConfig,
    TraceEvent,
    run_episode,
    run_monte_carlo,
    write_stats_csv,
    write_trace_jsonl,
)
from foragesim.statemachine import (
    TRIGGER_CHOICE,
    MachineInstance,
    MachineStuckError,
    TransitionRecord,
)
from foragesim.weights import WeightEntry, WeightTable, load_weights
from genscenarios import random_scenario
from test_cycles import LEARNING_LAB_20, _no_jump
from test_records import _Index

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import gen  # noqa: E402

NO_SOURCE = """
[machine top entry]
initial -> poll_power_beacon
state poll_power_beacon -> poll_power_beacon on no_signal

[world]
grid = 8 8
robot.start = 4 4

[energy]
battery_capacity = {battery}
battery_initial = {battery_initial}
capacitor_capacity = {capacitor}
rate.idle = {idle}
rate.sense = {sense}
rate.process = {process}
"""


def no_source_scenario(battery=100, battery_initial=None, capacitor=10,
                       idle=0.1, sense=0.2, process=0.2):
    if battery_initial is None:
        battery_initial = battery
    text = NO_SOURCE.format(
        battery=battery, battery_initial=battery_initial, capacitor=capacitor,
        idle=idle, sense=sense, process=process,
    )
    return parse_scenario(text, name="no_source")


class TestEpisode:
    def test_station_only_survives_and_recharges(self):
        cfg = SimConfig(scenario=builtin_scenario("station_only"), seed=3, max_steps=2500)
        result, trace = run_episode(cfg)
        assert result.outcome == OUTCOME_SURVIVED
        assert result.recharges["station"] >= 1
        assert result.first_choices["decision_flow"] == "follow_ir_signal"

    def test_wireless_only_survives_via_poll(self):
        cfg = SimConfig(scenario=builtin_scenario("wireless_only"), seed=3, max_steps=2500)
        result, _ = run_episode(cfg)
        assert result.outcome == OUTCOME_SURVIVED
        assert result.recharges["wireless"] >= 1
        assert result.first_choices["discover"] == "poll_power_beacon"

    def test_dual_source_first_seek_choice_is_wireless(self):
        cfg = SimConfig(scenario=builtin_scenario("dual_source"), seed=11, max_steps=2500)
        result, _ = run_episode(cfg)
        assert result.first_choices["seek"] == "find_wireless_power"
        assert result.outcome == OUTCOME_SURVIVED

    def test_no_source_default_profile_dies_at_220(self):
        cfg = SimConfig(scenario=no_source_scenario(), seed=0, max_steps=1000)
        result, trace = run_episode(cfg)
        assert result.outcome == OUTCOME_DIED
        assert result.death_step == 220

    def test_death_step_matches_energy_identity(self):
        cfg = SimConfig(scenario=no_source_scenario(), seed=0, max_steps=1000)
        _, trace = run_episode(cfg)
        ticks = [e for e in trace if e.battery is not None]
        # battery+capacitor falls by exactly 0.5 per tick until the floor
        totals = [e.battery + e.capacitor for e in ticks]
        assert totals[0] == pytest.approx(109.5)
        for a, b in zip(totals, totals[1:]):
            assert a - b == pytest.approx(0.5) or b == 0.0

    def test_no_trace_events_after_death(self):
        cfg = SimConfig(scenario=no_source_scenario(), seed=0, max_steps=400)
        result, trace = run_episode(cfg)
        assert max(e.step for e in trace) == result.death_step
        last = [e for e in trace if e.step == result.death_step][-1]
        assert last.mood == "dead"
        assert last.battery == 0.0 and last.capacitor == 0.0

    def test_identical_configs_give_identical_traces(self, tmp_path):
        cfg = SimConfig(scenario=builtin_scenario("dual_source"), seed=5, max_steps=1200)
        write_trace_jsonl(run_episode(cfg)[1], tmp_path / "1.jsonl")
        write_trace_jsonl(run_episode(cfg)[1], tmp_path / "2.jsonl")
        assert (tmp_path / "1.jsonl").read_bytes() == (tmp_path / "2.jsonl").read_bytes()

    def test_trace_rows_use_the_documented_keys(self, tmp_path):
        cfg = SimConfig(scenario=builtin_scenario("dual_source"), seed=5, max_steps=800)
        sim.run_life(cfg, tmp_path / "life.jsonl")
        allowed = {
            "step", "state", "event", "node", "option",
            "w_pos_before", "w_pos_after", "w_neg_before", "w_neg_after",
            "battery", "capacitor", "mood", "x", "y",
        }
        for line in (tmp_path / "life.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert set(row) <= allowed
            assert "step" in row and "state" in row

    def test_success_exits_match_success_recordings_one_to_one(self):
        # station_only has one choice level, so located exits and success
        # recordings must match one for one (and it does recharge repeatedly)
        cfg = SimConfig(scenario=builtin_scenario("station_only"), seed=9, max_steps=1500)
        _, trace = run_episode(cfg)
        located_exits = sum(
            1 for e in trace if e.event == "located" and e.state.endswith("/located")
        )
        successes_recorded = sum(1 for e in trace if e.event == "outcome_success")
        assert located_exits == successes_recorded >= 1

    def test_failure_exits_match_failure_recordings_one_to_one(self):
        # learning_lab also has one choice level, and its first life fails
        # the station branch twice before dying
        cfg = SimConfig(scenario=builtin_scenario("learning_lab"), seed=1, max_steps=300)
        result, trace = run_episode(cfg)
        assert result.outcome == OUTCOME_DIED
        failure_exits = sum(
            1 for e in trace if e.state.endswith("/lost_signal_track")
        )
        failures_recorded = sum(1 for e in trace if e.event == "outcome_failure")
        assert failure_exits == failures_recorded >= 1

    def test_nested_choice_failure_records_both_levels(self):
        # dual_source nests decision_flow inside the seek choice: one failure
        # exit of the inner machine concludes one pursuit at each level
        text = (
            builtin_scenario_text("dual_source")
            .replace("station.ir_radius = 30", "station.ir_radius = 2")
            .replace("seek.find_wireless_power = 0.8 0.2", "seek.find_wireless_power = 0.2 0.2")
            .replace("seek.find_station = 0.2 0.3", "seek.find_station = 0.8 0.3")
        )
        scenario = parse_scenario(text, name="dual_hard")
        cfg = SimConfig(scenario=scenario, seed=2, max_steps=1500)
        _, trace = run_episode(cfg)
        station_failures = sum(
            1 for e in trace if e.state.endswith("/lost_signal_track")
        )
        assert station_failures >= 1
        recorded = [e for e in trace if e.event == "outcome_failure"]
        by_node = {}
        for e in recorded:
            by_node[e.node] = by_node.get(e.node, 0) + 1
        assert by_node.get("decision_flow", 0) == station_failures
        assert by_node.get("seek", 0) == station_failures

    def test_mood_goes_charging_while_docked(self):
        cfg = SimConfig(scenario=builtin_scenario("station_only"), seed=3, max_steps=2500)
        _, trace = run_episode(cfg)
        moods = {e.mood for e in trace if e.mood}
        assert "charging" in moods and "seeking" in moods

    def test_signal_sufficiency_guard_tracks_field_threshold(self):
        from foragesim.sim import _Episode
        from foragesim.world import intensity_at

        scenario = builtin_scenario("wireless_only")
        episode = _Episode(SimConfig(scenario=scenario, seed=0, max_steps=10), WeightTable(), None)
        i_min = scenario.world.beacon.i_min
        for pos in ((12, 6), (10, 6), (6, 6), (0, 0)):
            episode.pose = pos
            expected = intensity_at(scenario.world, pos) >= i_min
            assert episode.guard("isSignalSufficient") == expected

    def test_degenerate_entry_machine_just_idles_to_death(self):
        text = (
            "[machine top entry]\ninitial -> Done\nfinal Done\n"
            "[world]\ngrid = 4 4\n"
            "[energy]\nbattery_capacity = 2\ncapacitor_capacity = 0\nrate.idle = 1\n"
        )
        cfg = SimConfig(scenario=parse_scenario(text), seed=0, max_steps=50)
        result, _ = run_episode(cfg)
        assert result.outcome == OUTCOME_DIED
        assert result.death_step == 2


class TestDeathConsequence:
    def test_volatile_death_erases_weights(self):
        cfg = SimConfig(scenario=no_source_scenario(), seed=0, max_steps=400)
        result, _ = run_episode(cfg)
        assert result.outcome == OUTCOME_DIED
        assert result.final_weights == {}

    def test_nonvolatile_death_persists_weights(self, tmp_path):
        path = tmp_path / "w.csv"
        scenario = parse_scenario(
            NO_SOURCE.format(
                battery=100, battery_initial=100, capacitor=10,
                idle=0.1, sense=0.2, process=0.2,
            )
            + "\n[weights]\nnode.opt = 0.8 0.1\n",
            name="no_source",
        )
        cfg = SimConfig(
            scenario=scenario, seed=0, max_steps=400,
            memory_mode=MEMORY_NONVOLATILE, weights_path=path,
        )
        result, _ = run_episode(cfg)
        assert result.outcome == OUTCOME_DIED
        saved = load_weights(path)
        assert saved.get("node", "opt").w_pos == 0.8
        assert result.final_weights[("node", "opt")].w_pos == 0.8

    def test_nonvolatile_unwritable_path_surfaces_error(self, tmp_path):
        table = WeightTable({("n", "a"): (0.5, 0.5)})
        cfg = SimConfig(
            scenario=no_source_scenario(), seed=0, max_steps=400,
            memory_mode=MEMORY_NONVOLATILE, weights_path=tmp_path / "missing_dir" / "w.csv",
        )
        with pytest.raises(OSError):
            run_episode(cfg, table=table)
        assert table.get("n", "a").w_pos == 0.5


class TestMonteCarlo:
    def test_single_episode_stats_match_episode(self):
        cfg = SimConfig(scenario=no_source_scenario(), seed=4, max_steps=400)
        stats = run_monte_carlo(cfg, 1)
        result, _ = run_episode(cfg)
        assert stats.episodes == 1
        assert stats.survival_fraction == 0.0
        assert stats.mean_lifetime == result.lifetime

    def test_entropy_zero_when_only_one_option_used(self):
        cfg = SimConfig(scenario=builtin_scenario("station_only"), seed=3, max_steps=600)
        stats = run_monte_carlo(cfg, 3)
        pooled = set()
        for r in stats.results:
            pooled.update(r.choices_made)
        if len(pooled) == 1:
            assert stats.behavioral_entropy == 0.0
        else:
            assert stats.behavioral_entropy > 0.0

    def test_entropy_matches_hand_shannon(self):
        cfg = SimConfig(scenario=builtin_scenario("dual_source"), seed=2, max_steps=1500)
        stats = run_monte_carlo(cfg, 2)
        counts = {}
        for r in stats.results:
            for key, n in r.choices_made.items():
                counts[key] = counts.get(key, 0) + n
        total = sum(counts.values())
        expected = -sum((n / total) * math.log2(n / total) for n in counts.values())
        assert stats.behavioral_entropy == pytest.approx(expected)

    def test_nonvolatile_weights_thread_across_episodes(self, tmp_path):
        path = tmp_path / "w.csv"
        cfg = SimConfig(
            scenario=builtin_scenario("learning_lab"), seed=1, max_steps=300,
            memory_mode=MEMORY_NONVOLATILE, weights_path=path,
        )
        stats = run_monte_carlo(cfg, 3)
        # episode 1 dies on the seeded station preference; the persisted
        # failure flips episode 2 to the beacon
        assert stats.results[0].outcome == OUTCOME_DIED
        assert stats.results[0].first_choices["seek"] == "find_station"
        assert stats.results[1].first_choices["seek"] == "find_wireless_power"
        assert stats.results[1].outcome == OUTCOME_SURVIVED

    def test_lives_reloaded_from_csv_match_lives_threaded_in_memory(self, builtin_name, tmp_path):
        # the CSV keeps nine decimals; reloading it before each life must not
        # change any life against the table threaded in memory
        def config(path, seed=0):
            return SimConfig(
                scenario=builtin_scenario(builtin_name), seed=seed, max_steps=1500,
                memory_mode=MEMORY_NONVOLATILE, weights_path=path,
            )

        def facts(r):
            return r.outcome, r.lifetime, r.choices_made, r.first_choices, r.recharges

        threaded = run_monte_carlo(config(tmp_path / "mc.csv"), 10).results
        reloaded = [run_episode(config(tmp_path / "lives.csv", seed))[0] for seed in range(10)]
        assert [facts(r) for r in reloaded] == [facts(r) for r in threaded]

    def test_volatile_lives_do_not_learn(self):
        cfg = SimConfig(scenario=builtin_scenario("learning_lab"), seed=1, max_steps=300)
        stats = run_monte_carlo(cfg, 4)
        assert all(r.first_choices["seek"] == "find_station" for r in stats.results)
        assert stats.survival_fraction == 0.0

    def test_episodes_must_be_positive(self):
        cfg = SimConfig(scenario=no_source_scenario(), seed=0, max_steps=10)
        with pytest.raises(ValueError):
            run_monte_carlo(cfg, 0)

    def test_episodes_must_be_an_integer(self):
        # a float count once ran until `range` met it, after the batch began
        cfg = SimConfig(scenario=builtin_scenario("dual_source"), seed=0, max_steps=20_000)
        for episodes in (2.0, "2", None):
            with pytest.raises(ValueError) as info:
                run_monte_carlo(cfg, episodes)
            assert str(info.value) == f"episodes must be an integer, got {episodes!r}"
        # what `operator.index` takes is a count
        stats = run_monte_carlo(cfg, _Index(2))
        assert stats.episodes == 2 and type(stats.episodes) is int and len(stats.results) == 2

    def test_stats_csv_layout(self, tmp_path):
        cfg = SimConfig(scenario=no_source_scenario(), seed=4, max_steps=300)
        stats = run_monte_carlo(cfg, 3)
        out = tmp_path / "stats.csv"
        write_stats_csv(stats, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "episode,outcome,lifetime,recharges_station,recharges_wireless"
        assert len(lines) == 4
        assert lines[1] == "1,died,220,0,0"


class _DiskFillsUp:
    """A text file that takes `room` characters and then fails as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if len(text) > self.room:
            self.fh.write(text[:self.room])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(text)
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("writer", ["stats", "trace"])
def test_a_write_that_fails_part_way_leaves_the_old_file(writer, tmp_path, monkeypatch):
    cfg = SimConfig(scenario=builtin_scenario("station_only"), seed=0, max_steps=300)
    target = tmp_path / "out"
    old = b"episode,outcome\r\n1,died\n"
    target.write_bytes(old)
    opened = Path.open
    with monkeypatch.context() as patched:
        patched.setattr(Path, "open", lambda *args, **kw: _DiskFillsUp(opened(*args, **kw), 40))
        with pytest.raises(OSError, match="No space left"):
            if writer == "stats":
                write_stats_csv(run_monte_carlo(cfg, 3), target)
            else:
                write_trace_jsonl(run_episode(cfg)[1], target)
    assert target.read_bytes() == old
    assert [path.name for path in tmp_path.iterdir()] == ["out"]


TIED_DUAL_SOURCE = (
    builtin_scenario_text("dual_source")
    .replace("seek.find_wireless_power = 0.8 0.2", "seek.find_wireless_power = 0.5 0.5")
    .replace("seek.find_station = 0.2 0.3", "seek.find_station = 0.5 0.5")
    .replace("discover.poll_power_beacon = 0.75 0.4", "discover.poll_power_beacon = 0.5 0.5")
    .replace("discover.engage_resonance = 0.8 0.7", "discover.engage_resonance = 0.5 0.5")
)

DIFFERENTIAL_SCENARIOS = {
    **{name: (lambda name=name: builtin_scenario(name)) for name in BUILTIN_NAMES},
    "dual_source_tied": lambda: parse_scenario(TIED_DUAL_SOURCE, name="dual_source_tied"),
}


class TestUntracedLives:
    """`run_monte_carlo` keeps no trace; each of its lives must equal the
    traced `run_episode` of the same seed, result for result."""

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SCENARIOS))
    def test_volatile_lives_equal_traced_lives(self, name):
        cfg = SimConfig(scenario=DIFFERENTIAL_SCENARIOS[name](), seed=3, max_steps=1500)
        untraced = run_monte_carlo(cfg, 5).results
        traced = [run_episode(cfg._replace(seed=cfg.seed + i))[0] for i in range(5)]
        assert untraced == traced

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SCENARIOS))
    def test_nonvolatile_lives_equal_traced_lives(self, name, tmp_path):
        scenario = DIFFERENTIAL_SCENARIOS[name]()

        def config(path, seed=3):
            return SimConfig(scenario=scenario, seed=seed, max_steps=1500,
                             memory_mode=MEMORY_NONVOLATILE, weights_path=path)

        untraced = run_monte_carlo(config(tmp_path / "mc.csv"), 5).results
        table = WeightTable(scenario.seed_weights)
        traced = [run_episode(config(tmp_path / "traced.csv", 3 + i), table=table)[0]
                  for i in range(5)]
        assert untraced == traced

    def test_tied_weights_reach_the_rng(self):
        # without a draw every life would make the same first choices
        cfg = SimConfig(scenario=DIFFERENTIAL_SCENARIOS["dual_source_tied"](), seed=3,
                        max_steps=1500)
        firsts = {tuple(sorted(r.first_choices.items())) for r in run_monte_carlo(cfg, 5).results}
        assert len(firsts) > 1

    def test_monte_carlo_builds_no_trace_rows(self, monkeypatch):
        def refuse(**fields):
            raise AssertionError("run_monte_carlo built a trace row")

        monkeypatch.setattr(sim, "TraceEvent", refuse)
        cfg = SimConfig(scenario=builtin_scenario("dual_source"), seed=0, max_steps=1500)
        stats = run_monte_carlo(cfg, 2)
        assert stats.episodes == 2
        with pytest.raises(AssertionError):
            run_episode(cfg)


class TestBusyLives:
    """The benchmark's `learning_lives` items: hungry variants whose every
    choice node is tied, so their lives draw, fail, pick several options of
    a node and mostly die. Each life of a `run_monte_carlo` batch, volatile
    and nonvolatile, cold and resumed from the weights file, must equal the
    traced `run_episode` life of its seed, the nonvolatile ones threaded
    through one table: its result, the draws `_live` reports for each life
    the batch runs, and the weights file's bytes after the batch."""

    @pytest.mark.parametrize("workload_seed", [0, 1, 2])
    def test_untraced_batches_equal_traced_lives(self, workload_seed, tmp_path):
        draws = {}
        live = sim._live

        def noted(cfg, table, trace):
            result, made = live(cfg, table, trace)
            draws[trace is not None, cfg.seed] = made
            return result, made

        kinds = Counter()
        for item in gen.learning_lives(workload_seed):
            scenario = parse_scenario(item.text)

            def config(memory, name, seed):
                path = None if memory == MEMORY_VOLATILE else tmp_path / name
                return SimConfig(scenario=scenario, seed=seed, max_steps=item.steps,
                                 memory_mode=memory, weights_path=path)

            for memory in (MEMORY_VOLATILE, MEMORY_NONVOLATILE):
                (tmp_path / "mc.csv").unlink(missing_ok=True)
                (tmp_path / "traced.csv").unlink(missing_ok=True)
                table = WeightTable(scenario.seed_weights) if memory == MEMORY_NONVOLATILE else None
                # a cold batch and, in nonvolatile memory, one resumed from its file
                resumed = [] if table is None else [item.seed + item.episodes]
                for first in [item.seed, *resumed]:
                    if first != item.seed:
                        table = load_weights(tmp_path / "traced.csv")
                    seeds = range(first, first + item.episodes)
                    draws.clear()
                    with mock.patch.object(sim, "_live", noted):
                        batch = run_monte_carlo(config(memory, "mc.csv", first), item.episodes)
                        traced = [run_episode(config(memory, "traced.csv", seed), table)[0]
                                  for seed in seeds]
                    assert batch.results == traced, (item.label, memory, first)
                    ran = [seed for seed in seeds if (False, seed) in draws]
                    assert ran and all(draws[False, seed] == draws[True, seed] for seed in ran)
                    if table is not None:
                        assert ((tmp_path / "mc.csv").read_bytes()
                                == (tmp_path / "traced.csv").read_bytes())
                    kinds["lives"] += len(traced)
                    kinds["died"] += sum(r.outcome == OUTCOME_DIED for r in traced)
                    kinds["drew"] += sum(bool(draws[True, seed]) for seed in seeds)
                    kinds["failed"] += sum(e.failures > 0 for r in traced
                                           for e in r.final_weights.values())
        # these lives do what the built-ins' lives seldom do
        assert kinds["died"] > kinds["lives"] // 2 and kinds["drew"] > kinds["lives"] // 2
        assert kinds["failed"] > 0


def _tied(scenario):
    """`scenario` with one seed weight for every option of every choice node,
    so each choice is an exact tie that the rng breaks."""
    weights = {
        (state.name, option): (0.5, 0.5)
        for machine in scenario.machines for state in machine.states
        if state.kind == KIND_CHOICE for option in state.options
    }
    return scenario._replace(seed_weights=weights)


def _building(call, *args):
    """`call(*args)` (or the stuck error it raises) and the `_Episode`s it built."""
    built = []

    class Counted(sim._Episode):
        def __init__(self, *episode_args):
            super().__init__(*episode_args)
            built.append(self)

    with mock.patch.object(sim, "_Episode", Counted):
        try:
            return call(*args), built
        except MachineStuckError as exc:
            return ("stuck", exc.step, exc.path, exc.event), built


def _every_life_runs(cfg, n):
    """`run_monte_carlo(cfg, n)` with every volatile life run, none copied."""
    def every_life(cfg, episodes):
        return [sim._live(cfg._replace(seed=seed), None, None)[0]
                for seed in range(cfg.seed, cfg.seed + episodes)]

    with mock.patch.object(sim, "_volatile_lives", every_life):
        return run_monte_carlo(cfg, n)


def _check_reuse(cfg, n, tmp_path):
    """A volatile batch equals the batch that runs every life, and each life
    the `run_episode` life of its seed; it builds one life per distinct draw
    sequence among its lives (up to its first stuck life, where it stops), the
    first life to make it. Returns the number of lives built, the number run
    or copied, and whether the last of those got stuck."""
    stats, built = _building(run_monte_carlo, cfg, n)
    lives = [_building(run_episode, cfg._replace(seed=cfg.seed + i)) for i in range(n)]
    # lives are one life up to their first draw: every life draws, or none does
    assert len({not episode.draws for _, (episode,) in lives}) == 1
    # a batch stops at its first stuck life
    stuck = [out[0] == "stuck" for out, _ in lives]
    ran = stuck.index(True) + 1 if True in stuck else n
    first_with = {}  # draw sequence -> the first life of the batch to make it
    for i, (_, (episode,)) in enumerate(lives[:ran]):
        first_with.setdefault(tuple(episode.draws), i)
    assert [episode.cfg.seed for episode in built] == [cfg.seed + i for i in first_with.values()]
    assert [tuple(episode.draws) for episode in built] == list(first_with)
    every, _ = _building(_every_life_runs, cfg, n)
    assert stats == every
    if type(stats) is tuple:  # the stuck error, not `SurvivalStats`
        assert stats == lives[ran - 1][0]
        return len(built), ran, True
    assert stats.results == [result for (result, _), _ in lives]
    write_stats_csv(stats, tmp_path / "reused.csv")
    write_stats_csv(every, tmp_path / "every.csv")
    assert (tmp_path / "reused.csv").read_bytes() == (tmp_path / "every.csv").read_bytes()
    # each result is its own object, and so is each of its dicts
    for attr in (None, "choices_made", "first_choices", "final_weights", "recharges"):
        objects = [r if attr is None else getattr(r, attr) for r in stats.results]
        assert len(set(map(id, objects))) == n, attr
    return len(built), ran, False


class TestReusedLives:
    """A volatile batch runs one life per distinct sequence of tie draws and
    reports a copy for every other life whose draws replay one already run
    (see `run_monte_carlo`); its results and stats must be those of running
    every life."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SCENARIOS))
    def test_batch_equals_every_life_run(self, name, seed, tmp_path):
        cfg = SimConfig(scenario=DIFFERENTIAL_SCENARIOS[name](), seed=seed, max_steps=1500)
        built, ran, stuck = _check_reuse(cfg, 5, tmp_path)
        assert (ran, stuck) == (5, False)
        # no built-in ties, so none of them draws, and each batch is one life
        assert (built == 1) == (name != "dual_source_tied")

    def test_tied_dual_source_runs_its_three_distinct_lives(self, tmp_path):
        # both seek weights tied: 200 lives at seed 1 make 3 draw sequences
        text = re.sub(r"^(seek\.[a-z_]*) = .*", r"\1 = 0.5 0.5",
                      builtin_scenario_text("dual_source"), flags=re.M)
        cfg = SimConfig(parse_scenario(text), seed=1, max_steps=3000)
        assert _check_reuse(cfg, 200, tmp_path) == (3, 200, False)

    def test_generated_scenarios_tied_and_untied(self, tmp_path):
        seen = set()

        @settings(max_examples=80, deadline=None, derandomize=True)
        # its lives 0-3 make 2 sequences, and life 4 gets stuck at step 2
        @example(scenario_seed=157, sim_seed=0, tied=True, episodes=12)
        # 9 sequences among 12 lives, up to 6 draws long, some from 3 options
        @example(scenario_seed=64, sim_seed=0, tied=True, episodes=12)
        @given(
            scenario_seed=st.integers(0, 10_000),
            sim_seed=st.integers(0, 50),
            tied=st.booleans(),
            episodes=st.integers(1, 12),
        )
        def check(scenario_seed, sim_seed, tied, episodes):
            scenario = random_scenario(scenario_seed)
            cfg = SimConfig(_tied(scenario) if tied else scenario, seed=sim_seed, max_steps=300)
            built, ran, stuck = _check_reuse(cfg, episodes, tmp_path)
            seen.add((tied, "stuck" if stuck else
                      "one" if built == 1 else "some" if built < ran else "all"))

        check()
        # untied, every life is the first; tied, some are run and some copied
        assert {(False, "one"), (True, "one"), (True, "some"), (True, "stuck")} <= seen
        assert not {(False, "some"), (False, "all")} & seen

    def test_nonvolatile_batches_run_every_life(self, builtin_name, tmp_path):
        # a batch that copies lives reports what running every life reports:
        # with `_gains` finding no life that fixes the rest, each life is run
        def batch(path, copying):
            cfg = SimConfig(scenario=builtin_scenario(builtin_name), max_steps=1500,
                            memory_mode=MEMORY_NONVOLATILE, weights_path=path)
            if copying:
                return run_monte_carlo(cfg, 4), path.read_bytes()
            with mock.patch.object(sim, "_gains", lambda *args: None):
                stats, built = _building(run_monte_carlo, cfg, 4)
            assert len(built) == 4
            return stats, path.read_bytes()

        assert batch(tmp_path / "copied.csv", True) == batch(tmp_path / "run.csv", False)

    def test_nonvolatile_batches_run_lives_up_to_the_first_that_fixes_the_rest(
        self, builtin_name, tmp_path
    ):
        # a life that draws nothing, fails nothing and picks one option per node
        # fixes the rest of its batch (see `run_monte_carlo`); learning_lab's
        # first life fails at the station and then picks the beacon
        cfg = SimConfig(scenario=builtin_scenario(builtin_name), max_steps=1500,
                        memory_mode=MEMORY_NONVOLATILE, weights_path=tmp_path / "w.csv")
        stats, built = _building(run_monte_carlo, cfg, 4)
        assert len(stats.results) == 4
        assert len(built) == (2 if builtin_name == "learning_lab" else 1)
        *before, fixing = built
        failures = [{key: e.failures for key, e in r.final_weights.items() if e.failures}
                    for r in stats.results]
        assert fixing.draws == []
        assert len({node for node, _ in fixing.choices_made}) == len(fixing.choices_made)
        assert failures[len(before)] == (failures[0] if before else {})
        if before:
            [first] = before
            assert set(first.choices_made) == {("seek", "find_station"),
                                               ("seek", "find_wireless_power")}
            assert failures[0] == {("seek", "find_station"): 2}

    def test_an_untied_life_seeds_no_rng(self, builtin_name, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("a life seeded an rng")

        monkeypatch.setattr(random, "Random", refuse)
        cfg = SimConfig(scenario=builtin_scenario(builtin_name), seed=2, max_steps=3000)
        run_episode(cfg)
        sim.run_life(cfg, tmp_path / "life.jsonl")
        assert len(run_monte_carlo(cfg, 3).results) == 3

    def test_a_tied_life_seeds_its_rng(self, monkeypatch):
        seeded, seeding = [], random.Random
        monkeypatch.setattr(random, "Random", lambda seed: seeded.append(seed) or seeding(seed))
        cfg = SimConfig(scenario=DIFFERENTIAL_SCENARIOS["dual_source_tied"](), seed=3,
                        max_steps=1500)
        run_episode(cfg)
        assert seeded == [3]
        _, built = _building(run_monte_carlo, cfg, 3)
        # the first life seeds once; each later one once to replay its draws,
        # and once more when it is run
        run = [episode.cfg.seed for episode in built]
        assert run[0] == 3
        assert seeded == [3, 3] + [s for s in (4, 5) for _ in range(1 + (s in run))]


class TestConfig:
    def test_nonvolatile_requires_weights_path(self):
        with pytest.raises(ValueError):
            SimConfig(scenario=no_source_scenario(), memory_mode=MEMORY_NONVOLATILE)

    def test_volatile_forbids_weights_path(self, tmp_path):
        with pytest.raises(ValueError):
            SimConfig(
                scenario=no_source_scenario(),
                memory_mode=MEMORY_VOLATILE,
                weights_path=tmp_path / "w.csv",
            )

    def test_max_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            SimConfig(scenario=no_source_scenario(), max_steps=0)


# Values whose JSON text the row formatter must reproduce exactly.
_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\x7f", "\n\t\r", "é", "\u2028", "😀",
                     "\ud800", "top/seek", ""]),
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.2250738585072014e-308,
                     1e-310, 1e16, 1e-7, 0.1 + 0.2, 1.7976931348623157e308]),
)
_INTS = st.one_of(st.integers(), st.sampled_from([-1, 0, 2**63, -(2**64), 10**30, -(10**40)]))
# the fields each kind of row the simulator builds sets, besides step and state
_ROW_KINDS = {
    "tick": {"battery": _FLOATS, "capacitor": _FLOATS, "mood": _STRINGS, "x": _INTS, "y": _INTS},
    "transition": {"event": _STRINGS},
    "choice": {"event": _STRINGS, "node": _STRINGS, "option": _STRINGS,
               "w_pos_before": _FLOATS, "w_neg_before": _FLOATS},
    "outcome": {"event": _STRINGS, "node": _STRINGS, "option": _STRINGS,
                "w_pos_before": _FLOATS, "w_pos_after": _FLOATS,
                "w_neg_before": _FLOATS, "w_neg_after": _FLOATS},
}


class _Str(str):
    pass


class _IntEnum(enum.IntEnum):
    ONE = 1


class _Float(float):
    def __repr__(self):
        return "not JSON"


# values of a subclass of str, int or float: `json` writes them as the base
# type, but a formatter must not take them for it (an IntEnum's repr and this
# float's differ from their JSON text), so a row holding one goes to `json.dumps`
_SUBCLASSED = (_Str("seek"), _IntEnum.ONE, _Float(0.5))
_ANY = st.one_of(st.none(), _STRINGS, _FLOATS, _INTS, st.booleans(), st.sampled_from(_SUBCLASSED))


@st.composite
def _trace_rows(draw):
    kind = draw(st.sampled_from([*_ROW_KINDS, "any"]))
    if kind == "any":  # any field set or not, to any value
        return TraceEvent(**{key: draw(_ANY) for key in TRACE_KEYS})
    fields = {"step": _INTS, "state": _STRINGS, **_ROW_KINDS[kind]}
    row = {key: draw(strategy) for key, strategy in fields.items()}
    if draw(st.booleans()):  # one field of another type: a bool for an int, an int for a float...
        row[draw(st.sampled_from(sorted(fields)))] = draw(_ANY)
    return TraceEvent(**row)


class TestTraceFormat:
    """`sim._line` formats rows itself; it must write what `json.dumps` writes."""

    @settings(max_examples=600, deadline=None)
    @given(_trace_rows())
    def test_rows_format_as_json_dumps(self, row):
        assert sim._line(row) == json.dumps(row.to_dict())
        with mock.patch.object(json, "dumps", wraps=json.dumps) as dumps:
            sim._line(row)
        if any(type(value) in map(type, _SUBCLASSED) for value in row):
            dumps.assert_called_once_with(row.to_dict())

    def test_every_combination_of_set_fields(self):
        value = {
            "event": "choice", "node": "seek", "option": "find_station",
            "w_pos_before": 0.8, "w_pos_after": 0.85, "w_neg_before": 0.1, "w_neg_after": -0.0,
            "battery": 12.5, "capacitor": 1e-310, "mood": "hungry", "x": 3, "y": -4,
        }
        optional = TRACE_KEYS[2:]
        assert sorted(optional) == sorted(value)
        for mask in range(1 << len(optional)):
            row = TraceEvent(step=7, state="top/seek", **{
                key: value[key] for bit, key in enumerate(optional) if mask >> bit & 1
            })
            assert sim._line(row) == json.dumps(row.to_dict()), row

    def test_each_field_of_another_type(self):
        rows = {
            "tick": dict(battery=12.5, capacitor=0.0, mood="hungry", x=3, y=4),
            "transition": dict(event="located"),
            "choice": dict(event="choice", node="seek", option="a", w_pos_before=0.8,
                           w_neg_before=0.1),
            "outcome": dict(event="outcome_success", node="seek", option="a", w_pos_before=0.8,
                            w_pos_after=0.9, w_neg_before=0.1, w_neg_after=0.05),
        }
        others = [None, True, False, 0, 1, 1.0, -0.0, math.nan, math.inf, "1", "true", 2**70]
        for kind, fields in rows.items():
            fields = dict(step=7, state="top/seek", **fields)
            for key in fields:
                for other in others:
                    row = TraceEvent(**{**fields, key: other})
                    assert sim._line(row) == json.dumps(row.to_dict()), (kind, key, other)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_simulator_rows_need_no_fallback(self, name, monkeypatch, tmp_path):
        # every row the built-ins produce has one of the three event kinds'
        # shapes or is a tick record's, so both writers write it by template
        def dumps(obj):
            assert isinstance(obj, str), f"row formatted by json.dumps: {obj}"
            return json.dumps(obj)

        cfg = SimConfig(scenario=builtin_scenario(name), seed=0, max_steps=3000)
        _, trace = run_episode(cfg)
        expected = "".join(json.dumps(row.to_dict()) + "\n" for row in trace)
        monkeypatch.setattr(sim, "json", type("Json", (), {"dumps": staticmethod(dumps)}))
        sim._quoted.cache_clear()
        write_trace_jsonl(trace, tmp_path / "trace.jsonl")
        sim.run_life(cfg, tmp_path / "life.jsonl")
        assert (tmp_path / "trace.jsonl").read_text() == expected
        assert (tmp_path / "life.jsonl").read_text() == expected
        # and again from a cold level cache: `write_trace_jsonl` fills it, and
        # `run_life` then writes the same levels from a warm one
        sim._quoted.cache_clear()
        sim._level.cache_clear()
        write_trace_jsonl(trace, tmp_path / "cold.jsonl")
        sim.run_life(cfg, tmp_path / "warm.jsonl")
        assert (tmp_path / "cold.jsonl").read_text() == expected
        assert (tmp_path / "warm.jsonl").read_text() == expected


# A tick record as the simulator hands it to a sink, with levels JSON writes as
# their repr (±0.0, subnormal, huge) or not (inf, nan), and now and then a
# field or a level of another type, which the template must leave to `json.dumps`.
_LEVELS = st.one_of(_FLOATS, st.sampled_from([0.0, -0.0, 5e-324, 1e308, 73.39999999999999]))


@st.composite
def _stretches(draw):
    n = draw(st.integers(0, 6))
    levels = st.lists(_LEVELS, min_size=n, max_size=n)
    level = draw(_LEVELS)
    fields = {
        "first": _INTS, "state": _STRINGS, "mood": _STRINGS, "x": _INTS, "y": _INTS,
        "batteries": levels,
        # or one capacitor level for the whole stretch, as an idle stretch has
        "capacitors": st.one_of(levels, st.just([level] * n)),
    }
    stretch = {key: draw(strategy) for key, strategy in fields.items()}
    other = draw(st.sampled_from([None, *fields]))
    if other in ("batteries", "capacitors"):
        if n:
            stretch[other][draw(st.integers(0, n - 1))] = draw(_ANY)
    elif other == "first":  # the rows' steps count on from it
        stretch[other] = draw(st.one_of(st.booleans(), _FLOATS))
    elif other is not None:
        stretch[other] = draw(_ANY)
    return tuple(stretch.values())


# a weight JSON writes as its repr (a finite float, an int) or not (an infinity
# or NaN, a bool, None, a subclass), in which case a replayed period that holds
# it is written row by row
_WEIGHTS = st.one_of(_FLOATS, st.sampled_from([None, False, True, -1, 0, 7, 10**30, *_SUBCLASSED]))


def _entries(draw) -> WeightEntry:
    return WeightEntry(draw(_WEIGHTS), draw(_WEIGHTS))


@st.composite
def _dispatches(draw):
    """A logged dispatch as `(step, records, calls)`, in any order: transitions,
    a noted record, choices (each with the call whose weights it read) and
    outcomes, with weights JSON writes as their repr or not."""
    step, records, calls = draw(st.integers(0, 10**6)), [], []
    for kind in draw(st.lists(st.sampled_from(["transition", "noted", "choice", "outcome"]),
                              max_size=4)):
        path = tuple(draw(st.lists(_STRINGS, min_size=1, max_size=3)))
        before = _entries(draw)
        if kind == "transition":
            event = draw(_STRINGS.filter(lambda text: text != TRIGGER_CHOICE))
            records.append(TransitionRecord(step, path, path, event))
        elif kind == "noted":
            records.append(TransitionRecord(step, path, path, TRIGGER_CHOICE, note="ignored"))
        elif kind == "choice":
            option = draw(_STRINGS)
            records.append(TransitionRecord(step, path, path, TRIGGER_CHOICE, option))
            calls.append((path[-1], option, None, before, None))
        else:
            after = _entries(draw)
            calls.append((draw(_STRINGS), draw(_STRINGS), (path, draw(st.booleans())), before, after))
    return step, records, calls


@st.composite
def _jumps(draw):
    """The items a sink gets from a life that jumps once or twice: each jump's
    logged period (records and dispatches), handed over live, then 0-3
    replayed periods, each moved by its shift and with calls of its own that
    read and leave other weights, and maybe one more that the horizon cuts
    in one of its records: it holds that record's first levels and the calls
    of the dispatches before it. Each jump replays at least one period."""
    items = []
    for _ in range(draw(st.integers(1, 2))):
        period = draw(st.lists(st.one_of(_stretches().map(lambda s: sim._Stretch(*s)),
                                         _dispatches()), min_size=1, max_size=5))
        live = []
        for logged in period:
            live += [logged] if type(logged) is sim._Stretch else sim._rows(*logged)
        items += live
        sizes = [sim._size(logged) if type(logged) is sim._Stretch else len(sim._rows(*logged))
                 for logged in period]
        records = [i for i, logged in enumerate(period) if type(logged) is sim._Stretch and sizes[i]]
        cut = draw(st.sampled_from(records)) if records and draw(st.booleans()) else None
        shifts = draw(st.lists(st.integers(1, 10**6), min_size=0 if cut is not None else 1,
                               max_size=3))
        if cut is not None:
            shifts.append(draw(st.integers(1, 10**6)))
        for shift in shifts:
            calls = [[(node, option, outcome, _entries(draw), None if outcome is None else _entries(draw))
                      for node, option, outcome, _, _ in logged[2]]
                     for logged in period if type(logged) is tuple]
            items.append(sim._Period(period, shift, calls, sum(sizes)))
        if cut is not None:
            # the horizon falls in record `cut`, after `kept` of its rows
            kept, last = draw(st.integers(1, sizes[cut])), items[-1]
            dispatches = sum(type(logged) is tuple for logged in period[:cut])
            items[-1] = last._replace(calls=last.calls[:dispatches], rows=sum(sizes[:cut]) + kept)
    return items


def _fresh(record: sim._Stretch) -> sim._Stretch:
    """An equal record that holds level lists of its own."""
    return record._replace(batteries=list(record.batteries), capacitors=list(record.capacitors))


def _rows_of(items) -> list:
    """The rows of `items` (rows and records), in order."""
    rows = []
    for item in items:
        rows += map(item.row, range(len(item.batteries))) if type(item) is sim._Stretch else [item]
    return rows


def _rows_text(items) -> str:
    """`json.dumps` of each row of `items` (rows and records), a line each."""
    return "".join(json.dumps(row.to_dict()) + "\n" for row in _rows_of(items))


def _sink_texts(records, tmp_path_factory) -> list[str]:
    """The text that each sink writes for `records`: the streamed writer's,
    then `write_trace_jsonl`'s of a `Trace`."""
    streamed = io.StringIO()
    writer, trace = sim._JsonlWriter(streamed), sim.Trace()
    for record in records:
        writer.append(record)
        trace.append(record)
    path = tmp_path_factory.getbasetemp() / "sink.jsonl"
    write_trace_jsonl(trace, path)
    return [streamed.getvalue(), path.read_bytes().decode()]


class TestStretchFormat:
    """A tick's record is written from one template; its text must be `_line`
    of each of its rows, and a `Trace` must read as those rows."""

    @settings(max_examples=600, deadline=None)
    @given(_stretches())
    def test_stretch_lines_are_line_of_each_row(self, stretch):
        trace = sim.Trace()
        trace.append(sim._Stretch(*stretch))
        rows = list(trace)
        assert len(trace) == len(rows) == len(stretch[5])
        written = io.StringIO()
        sim._JsonlWriter(written).append(sim._Stretch(*stretch))
        assert written.getvalue() == "".join(sim._line(row) + "\n" for row in rows)
        assert written.getvalue() == "".join(json.dumps(row.to_dict()) + "\n" for row in rows)

    def test_signed_zeros_keep_their_signs(self):
        for capacitors in ([0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]):
            text = sim._Stretch(1, "top/rest", "normal", 0, 0, [1.0, 0.5], capacitors).text()
            written = [json.loads(line)["capacitor"] for line in text.splitlines()]
            assert [math.copysign(1.0, c) for c in written] == [
                math.copysign(1.0, c) for c in capacitors
            ]

    @pytest.mark.parametrize("levels", ["batteries", "capacitors"])
    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_no_zero_takes_the_sign_of_an_earlier_records(self, levels, zeros, tmp_path):
        # 0.0 == -0.0 and they hash alike, so a cache of level texts would
        # write the second record's zero with the first one's sign
        def records():
            return [
                sim._Stretch(step, "top/rest", "normal", 0, 0,
                             **{"batteries": [1.5], "capacitors": [2.5], levels: [zero]})
                for step, zero in enumerate(zeros, start=1)
            ]

        expected = "".join(json.dumps(record.row(0).to_dict()) + "\n" for record in records())
        sim._level.cache_clear()
        written = io.StringIO()
        writer = sim._JsonlWriter(written)
        for record in records():
            writer.append(record)
        assert written.getvalue() == expected
        sim._level.cache_clear()
        trace = sim.Trace()
        for record in records():
            trace.append(record)
        write_trace_jsonl(trace, tmp_path / "trace.jsonl")
        assert (tmp_path / "trace.jsonl").read_text() == expected

    def test_the_level_cache_stays_within_its_bound(self):
        # memory must not grow with the horizon, whatever levels a life visits
        bound = sim._level.cache_info().maxsize
        n = bound + 1000
        record = sim._Stretch(1, "top/rest", "normal", 0, 0, [1.0 + k / 7 for k in range(n)],
                              [2.0 + k / 3 for k in range(n)])
        assert record.text() == "".join(json.dumps(record.row(k).to_dict()) + "\n" for k in range(n))
        assert sim._level.cache_info().currsize <= bound

    @settings(max_examples=400, deadline=None)
    @given(_stretches(), st.lists(st.integers(1, 10**6), min_size=1, max_size=3))
    def test_a_replayed_copy_is_written_as_a_fresh_record(self, tmp_path_factory, stretch, shifts):
        # a copy holds its record's level lists and differs in `first`; one
        # that holds them with another mood must not take the record's text
        record = sim._Stretch(*stretch)
        copies = [record._replace(first=record.first + shift) for shift in shifts]
        records = [record, *copies, copies[-1]._replace(mood="other/mood")]
        assert _sink_texts(records, tmp_path_factory) == [_rows_text(map(_fresh, records))] * 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_stretches(), min_size=1, max_size=4), st.lists(st.integers(0, 9), max_size=12))
    def test_a_trace_written_twice_is_the_same_bytes(self, tmp_path_factory, stretches, picks):
        records = [sim._Stretch(*stretch) for stretch in stretches]
        # each pick replays one of the records, interleaved with event rows
        for shift, pick in enumerate(picks, start=1):
            copy = records[pick % len(stretches)]
            records += [copy._replace(first=copy.first + shift), TraceEvent(shift, "top", "go")]
        trace = sim.Trace()
        for record in records:
            trace.append(record)
        path = tmp_path_factory.getbasetemp() / "twice.jsonl"
        written = []
        for _ in range(2):
            write_trace_jsonl(trace, path)
            written.append(path.read_bytes())
        assert written[0] == written[1] == _rows_text(trace).encode()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_stretches(), min_size=1, max_size=6))
    def test_records_that_each_hold_their_own_lists_write_as_before(self, tmp_path_factory, stretches):
        # equal levels in lists of their own: no record takes another's text
        records = [sim._Stretch(*stretch) for stretch in stretches]
        records += list(map(_fresh, records))
        assert _sink_texts(records, tmp_path_factory) == [_rows_text(records)] * 2

    def test_a_copy_keeps_its_records_signed_zeros(self, tmp_path_factory):
        # the same levels but for the signs of their zeros, in lists of their own
        records = []
        for zeros in ([0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]):
            record = sim._Stretch(1, "top/rest", "normal", 0, 0, [1.0, 0.5], zeros)
            records += [record, record._replace(first=3), record._replace(first=5)]
        texts = _sink_texts(records, tmp_path_factory)
        assert texts == [_rows_text(records)] * 2
        written = [json.loads(line)["capacitor"] for line in texts[0].splitlines()]
        assert [math.copysign(1.0, c) for c in written] == [
            math.copysign(1.0, c) for r in records for c in r.capacitors
        ]

    @settings(max_examples=300, deadline=None)
    @given(_jumps())
    def test_a_replayed_period_is_written_as_its_rows(self, tmp_path_factory, items):
        # a period writes what json.dumps writes for the rows a `Trace` reads
        # from it, from its template or, with a record or a step off it, row
        # by row; a second jump's period replaces the first's template
        rows = [row for item in items for row in _rows_of(sim._unpack(item))]
        trace = sim.Trace()
        for item in items:
            trace.append(item)
        # by repr: a NaN read twice is two floats, which are not equal
        assert len(trace) == len(rows) and list(map(repr, trace)) == list(map(repr, rows))
        expected = "".join(json.dumps(row.to_dict()) + "\n" for row in rows)
        assert _sink_texts(items, tmp_path_factory) == [expected] * 2

    def test_a_period_with_a_weight_off_the_template_is_written_as_its_rows(self, tmp_path_factory):
        # a jump's second period holds a NaN weight and its third a bool, which
        # `json` does not write as their repr; its first and fourth hold none
        path = ("top", "seek")
        records = [TransitionRecord(5, path, path, TRIGGER_CHOICE, "wireless"),
                   TransitionRecord(5, path, ("top", "charge"), "located")]

        def calls(before, after):
            return [[("seek", "wireless", None, before, None),
                     ("seek", "wireless", (path, True), before, after)]]

        plain = WeightEntry(0.5, 0.25), WeightEntry(0.75, 0.125)
        period = [sim._Stretch(4, "top/seek", "normal", 1, 2, [50.0, 49.5], [1.0, 1.0]),
                  (5, records, calls(*plain)[0])]
        items = [period[0], *sim._rows(*period[1])]
        for shift, weights in enumerate([plain, (WeightEntry(math.nan, 0.25), plain[1]),
                                         (plain[0], WeightEntry(0.75, True)), plain], start=1):
            items.append(sim._Period(period, 2 * shift, calls(*weights), 5))
        rows = [row for item in items for row in _rows_of(sim._unpack(item))]
        expected = "".join(json.dumps(row.to_dict()) + "\n" for row in rows)
        assert '"w_pos_before": NaN' in expected and '"w_neg_after": true' in expected
        assert _sink_texts(items, tmp_path_factory) == [expected] * 2

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_trace_file_is_the_same_bytes_whole_row_by_row_and_streamed(
        self, name, tmp_path, monkeypatch
    ):
        cfg = SimConfig(scenario=builtin_scenario(name), seed=0, max_steps=3000)
        _, trace = run_episode(cfg)
        sim.write_trace_jsonl(list(trace), tmp_path / "rows.jsonl")
        sim.run_life(cfg, tmp_path / "life.jsonl")
        # the tick records are written by the template, and each live event
        # row by `_line`; a replayed period's event rows go through `_line`
        # once per jump, in the template of the period it copies, and a whole
        # period fills in the weights of its choice and outcome rows; the
        # last period, which the horizon cuts, is written row by row
        lines, line = [], sim._line
        monkeypatch.setattr(sim, "_line", lambda row: lines.append(row) or line(row))
        sim.write_trace_jsonl(trace, tmp_path / "trace.jsonl")
        expected, jumps = 0, set()
        for item in trace._items:
            if type(item) is sim._Period:
                logged = [row for part in item.period if type(part) is tuple for row in sim._rows(*part)]
                ticks = sum(len(part.batteries) for part in item.period if type(part) is sim._Stretch)
                if id(item.period) not in jumps:
                    expected += len(logged)
                if item.rows != ticks + len(logged):
                    expected += sum(type(row) is TraceEvent for row in sim._unpack(item))
                jumps.add(id(item.period))
            else:
                expected += type(item) is TraceEvent
        assert len(lines) == expected
        written = (tmp_path / "trace.jsonl").read_bytes()
        assert written == (tmp_path / "rows.jsonl").read_bytes()
        assert written == (tmp_path / "life.jsonl").read_bytes()


class TestTraceSequence:
    """`run_episode`'s `Trace` reads as the list of rows a tick-by-tick life builds."""

    @pytest.fixture(scope="class")
    def traces(self):
        cfg = SimConfig(scenario=builtin_scenario("station_only"), seed=3, max_steps=2500)
        _, trace = run_episode(cfg)
        with mock.patch.object(MachineInstance, "quiescent", lambda self, ctx: False):
            _, reference = run_episode(cfg)
        return trace, reference

    def test_stretches_are_kept_whole_only_when_ticks_are_quiet(self, traces):
        trace, reference = traces
        sizes = [len(item.batteries) for item in trace._items if type(item) is sim._Stretch]
        assert max(sizes) > 1
        assert {len(item.batteries) for item in reference._items if type(item) is sim._Stretch} == {1}

    @pytest.mark.parametrize("life", ["run_episode", "run_life"])
    def test_a_full_tick_and_its_quiet_stretch_reach_the_sink_as_one_append(
        self, life, tmp_path, monkeypatch
    ):
        cfg = SimConfig(scenario=builtin_scenario("station_only"), seed=3, max_steps=2500)

        def play(jump):
            tick_rows, records, full_ticks = [], [], []
            row, discharge = sim.TraceEvent, sim.tick_discharge
            with monkeypatch.context() as patched:
                patched.setattr(sim, "TraceEvent", lambda *args, **kw: (
                    kw.get("event") is None and tick_rows.append(args) or row(*args, **kw)))
                patched.setattr(sim, "tick_discharge", lambda *args: (
                    full_ticks.append(args) or discharge(*args)))
                # a replayed period is handed over as one item: its records,
                # moved to its steps
                for sink in (sim.Trace, sim._JsonlWriter):
                    patched.setattr(sink, "append", lambda self, item, append=sink.append: (
                        records.extend(part for part in sim._unpack(item)
                                       if type(part) is sim._Stretch) or append(self, item)))
                if not jump:  # the reference: every period of the feeding cycle in full
                    patched.setattr(sim._Episode, "_periods", lambda episode, step: 0)
                if life == "run_episode":
                    result, _ = run_episode(cfg)
                else:
                    result = sim.run_life(cfg, tmp_path / "life.jsonl")
            assert tick_rows == []
            return result, records, full_ticks

        result, reference, full_ticks = play(jump=False)
        assert len(reference) == len(full_ticks) < result.lifetime
        steps = [step for r in reference for step in range(r.first, r.first + len(r.batteries))]
        assert steps == list(range(1, result.lifetime + 1))
        assert max(len(r.batteries) for r in reference) > 1
        # a jumping life appends the same records: each is a full tick's, or a
        # copy of an earlier one moved by whole periods, which shares its
        # levels; the horizon's tick is a record of its own, and the record
        # before it may be cut there, so those two may hold levels of their own
        jumped, records, full_ticks = play(jump=True)
        assert jumped == result and records == reference
        originals = {}
        for r in records[:-2]:
            original = originals.setdefault(id(r.batteries), r)
            assert r is original or (r[1:] == original[1:] and r.first > original.first
                                     and r.capacitors is original.capacitors)
        assert len(originals) == len(full_ticks) < len(records)
        assert records[-1].first == result.lifetime and len(records[-1].batteries) == 1

    def test_len_order_and_equality(self, traces):
        trace, reference = traces
        rows = list(trace)
        assert isinstance(trace, Sequence)
        assert len(trace) == len(rows) == len(reference) == len(list(reference))
        assert [row.step for row in rows if row.event is None] == list(range(1, 2501))
        assert [row.step for row in rows] == sorted(row.step for row in rows)
        assert rows == list(reference)
        assert trace == reference and reference == trace
        assert trace == rows and rows == trace and trace == tuple(rows)
        assert trace != rows[:-1] and trace != rows[1:] + rows[:1]
        assert trace != [*rows[:-1], rows[-1]._replace(battery=rows[-1].battery + 1.0)]
        assert trace != "not rows" and trace != None  # noqa: E711

    @pytest.mark.parametrize("text", ["", b"", bytearray()])
    def test_an_empty_trace_is_not_empty_text(self, text):
        # as `[] == ""` is False: text is a sequence, but not of rows
        assert not sim.Trace() == text and not text == sim.Trace()
        assert sim.Trace() != text and sim.Trace() == [] and sim.Trace() == ()

    def test_a_long_quiet_stretch_is_handed_over_in_bounded_parts(self):
        idle = parse_scenario(
            "[machine top entry]\ninitial -> rest\nstate rest\n\n"
            "[energy]\nbattery_capacity = 100000\n"
        )
        cfg = SimConfig(scenario=idle, max_steps=3 * sim.STRETCH_ROWS)
        _, trace = run_episode(cfg)
        sizes = [len(item.batteries) for item in trace._items if type(item) is sim._Stretch]
        assert len(sizes) >= 3 and max(sizes) == sim.STRETCH_ROWS
        with mock.patch.object(MachineInstance, "quiescent", lambda self, ctx: False):
            assert trace == run_episode(cfg)[1]

    def test_indexing(self, traces):
        trace, reference = traces
        rows = list(reference)
        assert trace[-1] == rows[-1] and trace[-2] == rows[-2]
        assert [trace[i] for i in range(len(rows))] == rows
        assert [trace[-i] for i in range(1, len(rows) + 1)] == rows[::-1]
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                trace[index]

    def test_slices_and_reversal_read_as_a_list_of_the_rows(self, traces):
        trace, reference = traces
        rows = list(reference)
        assert trace[-10:] == rows[-10:] and trace[5:40:3] == rows[5:40:3] and trace[::-1] == rows[::-1]
        assert type(trace[-10:]) is list
        assert list(reversed(trace)) == rows[::-1]

    # A `Trace` of a life that jumps holds one item per replayed period and
    # builds its rows only when they are read; it reads as the rows of the
    # same life with every period simulated (`test_cycles._no_jump`)

    @pytest.fixture(scope="class", params=["dual_source", "learning_lab@20"])
    def jumped(self, request):
        text = {"dual_source": builtin_scenario_text("dual_source"),
                "learning_lab@20": LEARNING_LAB_20}[request.param]
        cfg = SimConfig(parse_scenario(text), seed=3, max_steps=20_000)
        _, trace = run_episode(cfg)
        rows = list(_no_jump(run_episode, cfg)[1])
        # the index of the first row of each replayed period
        starts, at = [], 0
        for item in trace._items:
            if type(item) is sim._Period:
                starts.append(at)
            at += sim._size(item)
        assert len(starts) >= 3 and at == len(rows)
        return trace, rows, starts

    def test_a_jumped_trace_has_the_references_len_and_equals_it(self, jumped):
        trace, rows, _ = jumped
        assert len(trace) == len(rows) == len(list(trace))
        assert trace == rows and rows == trace and trace == tuple(rows)
        assert trace != rows[:-1] and trace != [*rows[:-1], rows[0]]

    def test_a_jumped_trace_is_indexed_before_at_and_after_the_jump_and_in_the_last_period(
        self, jumped
    ):
        trace, rows, starts = jumped
        n = len(rows)
        indices = {0, starts[0] - 1, starts[0], starts[0] + 1, starts[1] - 1, starts[1],
                   starts[-1] - 1, starts[-1], starts[-1] + 1, n - 2, n - 1}
        for i in sorted(indices):
            assert trace[i] == rows[i] and trace[i - n] == rows[i]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                trace[index]

    def test_a_jumped_trace_is_sliced_across_the_jump_and_a_period_boundary(self, jumped):
        trace, rows, starts = jumped
        n = len(rows)
        for window in (slice(starts[0] - 5, starts[0] + 5), slice(starts[1] - 3, starts[1] + 3),
                       slice(starts[0] - 7, starts[2] + 7, 3), slice(starts[1] - n - 4, -3),
                       slice(starts[2] + 2, starts[0] - 2, -5), slice(None, None, -1)):
            assert trace[window] == rows[window]
        assert type(trace[starts[0]:starts[1]]) is list

    def test_a_jumped_trace_reads_reversed(self, jumped):
        trace, rows, _ = jumped
        assert list(reversed(trace)) == rows[::-1]

    # The jump takes the life to its 20,000-step horizon: its last period is
    # cut there, before the horizon's tick, which is a record of its own

    def test_the_last_period_is_cut_before_the_horizons_tick(self, jumped):
        trace, rows, starts = jumped
        *_, whole, cut, last = trace._items
        assert type(whole) is type(cut) is sim._Period and cut.period is whole.period
        assert 1 < cut.rows < whole.rows and starts[-1] == len(rows) - 1 - cut.rows
        assert type(last) is sim._Stretch and (last.first, len(last.batteries)) == (20_000, 1)

    def test_a_jumped_trace_is_indexed_across_the_cut_period(self, jumped):
        trace, rows, starts = jumped
        n, cut = len(rows), starts[-1]
        for i in range(cut - 3, n):
            assert trace[i] == rows[i] and trace[i - n] == rows[i]

    def test_a_jumped_trace_is_sliced_and_reversed_across_the_cut_period(self, jumped):
        trace, rows, starts = jumped
        n, cut, whole = len(rows), starts[-1], starts[-2]
        for window in (slice(cut - 4, cut + 4), slice(cut + 1, None), slice(n - 3, None),
                       slice(whole + 3, n - 1, 7), slice(n - 1, cut - 5, -1),
                       slice(None, whole - 2, -3), slice(cut - n - 2, None, 2)):
            assert trace[window] == rows[window]
        tail = n - cut + 2
        assert [row for row, _ in zip(reversed(trace), range(tail))] == rows[:-tail - 1:-1]


class TestTraceReadsOnlyItsRows:
    """A slice and `reversed` build the rows they give, and at most the event
    rows of a replayed period they reach, not the whole trace."""

    @pytest.mark.parametrize("text", [builtin_scenario_text("dual_source"), LEARNING_LAB_20],
                             ids=["dual_source", "learning_lab@20"])
    @pytest.mark.parametrize("jump", [True, False], ids=["jumped", "every_period_run"])
    def test_a_tail_slice_and_the_last_row_build_only_theirs(self, text, jump, monkeypatch):
        cfg = SimConfig(parse_scenario(text), seed=3, max_steps=20_000)
        _, trace = run_episode(cfg) if jump else _no_jump(run_episode, cfg)
        rows = list(trace)
        # a period reached is unpacked whole, its dispatches' rows built with it
        periods = [sum(type(part) is TraceEvent for part in sim._unpack(item))
                   for item in trace._items if type(item) is sim._Period]
        assert bool(periods) is jump
        built, row = [], sim.TraceEvent
        monkeypatch.setattr(sim, "TraceEvent", lambda *args, **kw: built.append(1) or row(*args, **kw))
        assert trace[-10:] == rows[-10:]
        assert 10 <= len(built) <= 10 + max(periods, default=0) < len(rows) // 100
        built.clear()
        assert next(reversed(trace)) == rows[-1]
        assert 1 <= len(built) <= 1 + max(periods, default=0)
