import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import sim
from foragesim.scenario import parse_scenario
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
    trace_lines,
    write_stats_csv,
)
from foragesim.weights import WeightTable, load_weights

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

    def test_identical_configs_give_identical_traces(self):
        cfg = SimConfig(scenario=builtin_scenario("dual_source"), seed=5, max_steps=1200)
        _, t1 = run_episode(cfg)
        _, t2 = run_episode(cfg)
        assert trace_lines(t1) == trace_lines(t2)

    def test_trace_rows_use_the_documented_keys(self):
        cfg = SimConfig(scenario=builtin_scenario("dual_source"), seed=5, max_steps=800)
        _, trace = run_episode(cfg)
        allowed = {
            "step", "state", "event", "node", "option",
            "w_pos_before", "w_pos_after", "w_neg_before", "w_neg_after",
            "battery", "capacitor", "mood", "x", "y",
        }
        for line in trace_lines(trace):
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
        from foragesim.world import RobotPose, intensity_at

        scenario = builtin_scenario("wireless_only")
        episode = _Episode(SimConfig(scenario=scenario, seed=0, max_steps=10), WeightTable(), None)
        i_min = scenario.world.beacon.i_min
        for pos in ((12, 6), (10, 6), (6, 6), (0, 0)):
            episode.pose = RobotPose(pos)
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

    def test_stats_csv_layout(self, tmp_path):
        cfg = SimConfig(scenario=no_source_scenario(), seed=4, max_steps=300)
        stats = run_monte_carlo(cfg, 3)
        out = tmp_path / "stats.csv"
        write_stats_csv(stats, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "episode,outcome,lifetime,recharges_station,recharges_wireless"
        assert len(lines) == 4
        assert lines[1] == "1,died,220,0,0"


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
        traced = [run_episode(replace(cfg, seed=cfg.seed + i))[0] for i in range(5)]
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
_ANY = st.one_of(st.none(), _STRINGS, _FLOATS, _INTS, st.booleans())


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
    def test_simulator_rows_need_no_fallback(self, name, monkeypatch):
        # every row the built-ins produce has one of the four kinds' shapes
        def dumps(obj):
            assert isinstance(obj, str), f"row formatted by json.dumps: {obj}"
            return json.dumps(obj)

        _, trace = run_episode(SimConfig(scenario=builtin_scenario(name), seed=0, max_steps=3000))
        expected = [json.dumps(row.to_dict()) for row in trace]
        monkeypatch.setattr(sim, "json", type("Json", (), {"dumps": staticmethod(dumps)}))
        monkeypatch.setattr(sim, "_QUOTED", sim._Quoted())
        assert trace_lines(trace) == expected
