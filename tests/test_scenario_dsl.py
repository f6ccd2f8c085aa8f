import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim.scenario import (
    Diagnostic,
    ScenarioError,
    parse_scenario,
    parse_scenario_checked,
    serialize_scenario,
)
from foragesim.scenarios import builtin_scenario, builtin_scenario_text

from genscenarios import random_scenario

MINIMAL = """
[machine top entry]
initial -> a
state a
"""


def errors(diags):
    return [d for d in diags if d.severity == "error"]


def warnings_of(diags):
    return [d for d in diags if d.severity == "warning"]


class TestParse:
    def test_station_only_machine_and_options(self):
        s = builtin_scenario("station_only")
        m = s.machine("find_charging_station")
        assert m is not None
        choice = m.state("decision_flow")
        assert choice.options == ("follow_ir_signal", "follow_track_path")

    def test_empty_string_reports_no_entry_machine(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("")
        assert any("no entry machine declared" in str(d) for d in exc.value.diagnostics)

    def test_unresolved_reference_carries_line(self):
        text = MINIMAL + "state b -> foo on go\n"
        scenario, diags = parse_scenario_checked(text)
        errs = errors(diags)
        assert len(errs) == 1
        assert "unresolved reference 'foo'" in errs[0].message
        assert errs[0].line == text.splitlines().index("state b -> foo on go") + 1

    def test_duplicate_names_rejected(self):
        text = MINIMAL + "state a\n"
        _, diags = parse_scenario_checked(text)
        assert any("duplicate state name 'a'" in d.message for d in errors(diags))

    def test_weight_out_of_range(self):
        text = MINIMAL + "[weights]\nnode.opt = 1.5 0.1\n"
        _, diags = parse_scenario_checked(text)
        assert any("weight out of [0,1]" in d.message for d in errors(diags))

    def test_exponent_form_rejected(self):
        text = MINIMAL + "[energy]\nbattery_capacity = 1e3\n"
        _, diags = parse_scenario_checked(text)
        assert any("bad number" in d.message for d in errors(diags))

    def test_more_than_nine_fraction_digits_rejected(self):
        text = MINIMAL + "[weights]\nnode.opt = 0.1234567891 0.1\n"
        _, diags = parse_scenario_checked(text)
        assert any("9 fractional digits" in d.message for d in errors(diags))

    def test_unknown_guard_rejected(self):
        text = "[machine top entry]\ninitial -> a\nstate a -> a on go if mystery\n"
        _, diags = parse_scenario_checked(text)
        assert any("unknown guard 'mystery'" in d.message for d in errors(diags))

    def test_unknown_world_key_rejected(self):
        text = MINIMAL + "[world]\ngrid = 4 4\nstation.colour = 3\n"
        _, diags = parse_scenario_checked(text)
        assert any("unknown world key" in d.message for d in errors(diags))

    def test_composite_must_cover_inner_exits(self):
        text = """
[machine top entry]
initial -> c
submachine c = inner -> done on good
state done

[machine inner]
initial -> w
state w -> exit.good on go, exit.bad on stop
exit good (success)
exit bad (failure)
"""
        _, diags = parse_scenario_checked(text)
        assert any("exit 'bad' of machine 'inner' is not handled" in d.message for d in errors(diags))

    def test_composition_cycle_detected(self):
        text = """
[machine top entry]
initial -> c
submachine c = top -> r on x0
state r
exit x0 (success)
"""
        _, diags = parse_scenario_checked(text)
        assert any("composition cycle" in d.message for d in errors(diags))


class TestValidate:
    def test_builtin_fixtures_are_clean(self, builtin_name):
        _, diags = parse_scenario_checked(builtin_scenario_text(builtin_name), name=builtin_name)
        assert diags == []

    def test_choice_requires_two_options(self):
        text = "[machine top entry]\ninitial -> c\nchoice c : a\nstate a\n"
        _, diags = parse_scenario_checked(text)
        assert any("choice requires >=2 options" in d.message for d in errors(diags))

    def test_unreachable_state_warns(self):
        text = MINIMAL + "state island\n"
        scenario, diags = parse_scenario_checked(text)
        assert errors(diags) == []
        assert any("unreachable state 'island'" in d.message for d in warnings_of(diags))

    def test_diagnostics_sorted_by_position(self):
        text = "[machine top entry]\ninitial -> a\nstate a -> foo on go\nstate b -> bar on go\nstate c -> baz on go\n"
        _, diags = parse_scenario_checked(text)
        positions = [(d.line, d.column) for d in diags]
        assert positions == sorted(positions)

    def test_track_must_end_at_station(self):
        text = MINIMAL + "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.track = 4 4 4 5\n"
        _, diags = parse_scenario_checked(text)
        assert any("must end at station.pos" in d.message for d in errors(diags))

    def test_orphan_seed_weights_warn_at_their_lines(self):
        text = (
            "[machine top entry]\ninitial -> c\nchoice c : a | b\nstate a\nstate b\n"
            "[weights]\nc.a = 0.5 0.5\nc.z = 0.5 0.5\nnowhere.a = 0.5 0.5\n"
        )
        _, diags = parse_scenario_checked(text)
        assert errors(diags) == []
        assert [(d.line, d.message) for d in warnings_of(diags)] == [
            (8, "weight c.z: 'z' is not an option of 'c'"),
            (9, "weight nowhere.a: 'nowhere' is not a choice node"),
        ]

    def test_entry_machine_may_be_endless(self):
        # a machine with no exit and no final is a legal life loop
        scenario, diags = parse_scenario_checked(MINIMAL)
        assert scenario is not None
        assert errors(diags) == []


# Each case is [world]/[energy] text in which the line marked `# <-` is the
# one at fault; every error must be reported at that line.
KEY_ERRORS = {
    "num_shape": "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.ir_radius = 2 3  # <-\n",
    "int_shape": "[energy]\nrate.idle = 0.1\nmax_charge_ticks = 2.5  # <-\n",
    "cell_shape": "[world]\ngrid = 8 8\nrobot.start = 1  # <-\n",
    "cell_not_integral": "[world]\ngrid = 8 8\nbeacon.pos = 1.5 2  # <-\n",
    "cells_shape": "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.track = 1 2 1  # <-\n",
    "grid_positive": "[world]\nrobot.start = 1 1\ngrid = 8 0  # <-\n",
    "ir_radius_positive": "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.ir_radius = 0  # <-\n",
    "d0_positive": "[world]\ngrid = 8 8\nbeacon.pos = 1 1\nbeacon.d0 = 0  # <-\n",
    "resonance_positive": "[world]\ngrid = 8 8\nbeacon.pos = 1 1\nbeacon.resonance_radius = -1  # <-\n",
    "poll_positive": "[world]\ngrid = 8 8\nbeacon.pos = 1 1\nbeacon.poll_radius = 0  # <-\n",
    "charge_rate_nonneg": "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.charge_rate = -0.5  # <-\n",
    "tx_power_nonneg": "[world]\ngrid = 8 8\nbeacon.pos = 1 1\nbeacon.tx_power = -1  # <-\n",
    "i_min_nonneg": "[world]\ngrid = 8 8\nbeacon.pos = 1 1\nbeacon.i_min = -0.1  # <-\n",
    "rate_idle_nonneg": "[energy]\nbattery_capacity = 50\nrate.idle = -0.1  # <-\n",
    "rate_move_nonneg": "[energy]\nbattery_capacity = 50\nrate.move = -1  # <-\n",
    "rate_sense_nonneg": "[energy]\nbattery_capacity = 50\nrate.sense = -1  # <-\n",
    "rate_process_nonneg": "[energy]\nbattery_capacity = 50\nrate.process = -1  # <-\n",
    "max_charge_ticks_nonneg": "[energy]\nbattery_capacity = 50\nmax_charge_ticks = -3  # <-\n",
    "station_without_pos": "[world]\ngrid = 8 8\nrobot.start = 1 1\nstation.ir_radius = 3  # <-\nstation.charge_rate = 2\n",
    "beacon_without_pos": "[world]\ngrid = 8 8\nbeacon.d0 = 2  # <-\nbeacon.i_min = 1\n",
    "missing_grid": "[world]\nrobot.start = 1 1  # <-\nbeacon.pos = 2 2\n",
    "world_key_in_energy": "[energy]\nbattery_capacity = 50\ngrid = 8 8  # <-\n",
    "start_outside_grid": "[world]\ngrid = 8 8\nrobot.start = 8 1  # <-\n",
    "station_outside_grid": "[world]\ngrid = 8 8\nrobot.start = 1 1\nstation.pos = -1 3  # <-\n",
    "beacon_outside_grid": "[world]\ngrid = 8 8\nbeacon.pos = 2 9  # <-\n",
    "track_outside_grid": "[world]\ngrid = 4 4\nstation.pos = 0 0\nstation.track = 0 -1 0 0  # <-\n",
    "track_not_at_station": "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.track = 4 4 4 5  # <-\n",
    "track_not_adjacent": "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.track = 1 3 1 1  # <-\n",
    "gap_off_track": "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.track = 1 2 1 1\ntrack.gap = 2 2  # <-\n",
}


class TestKeyErrors:
    @pytest.mark.parametrize("case", sorted(KEY_ERRORS))
    def test_rejected_at_the_key_line(self, case):
        text = MINIMAL + KEY_ERRORS[case]
        line = next(n for n, t in enumerate(text.splitlines(), start=1) if "# <-" in t)
        _, diags = parse_scenario_checked(text)
        assert errors(diags), "accepted"
        assert {d.line for d in errors(diags)} == {line}, diags


class TestSerialize:
    def test_round_trip_builtins(self, builtin_name):
        s = builtin_scenario(builtin_name)
        text = serialize_scenario(s)
        assert parse_scenario(text, name=builtin_name) == s

    def test_byte_stability(self, builtin_name):
        s = builtin_scenario(builtin_name)
        once = serialize_scenario(s)
        twice = serialize_scenario(parse_scenario(once))
        assert once == twice

    def test_seed_weight_text_survives_exactly(self):
        s = builtin_scenario("station_only")
        text = serialize_scenario(s)
        assert "decision_flow.follow_ir_signal = 0.8 0.1" in text
        reparsed = parse_scenario(text)
        assert reparsed.seed_weights[("decision_flow", "follow_ir_signal")] == (0.8, 0.1)

    @pytest.mark.parametrize("seed", range(40))
    def test_round_trip_generated(self, seed):
        s = random_scenario(seed)
        text = serialize_scenario(s)
        reparsed, diags = parse_scenario_checked(text)
        assert errors(diags) == [], f"generated scenario invalid: {diags[:4]}"
        assert reparsed == s

    def test_name_is_not_part_of_equality(self):
        a = parse_scenario(MINIMAL, name="one")
        b = parse_scenario(MINIMAL, name="two")
        assert a == b


class TestRobustness:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=400))
    def test_arbitrary_text_never_crashes(self, text):
        scenario, diags = parse_scenario_checked(text)
        if scenario is None:
            assert errors(diags)
        else:
            assert all(isinstance(d, Diagnostic) for d in diags)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes_never_crash(self, blob):
        text = blob.decode("utf-8", errors="replace")
        parse_scenario_checked(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n[machine top entry]  # trailing\ninitial -> a  # comment\nstate a\n"
        scenario, diags = parse_scenario_checked(text)
        assert scenario is not None
        assert errors(diags) == []
