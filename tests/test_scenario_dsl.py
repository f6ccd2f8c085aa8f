import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import scenario as scenario_mod
from foragesim.scenario import (
    Diagnostic,
    ScenarioError,
    declared,
    parse_scenario,
    parse_scenario_checked,
    serialize_scenario,
)
from foragesim.scenarios import BUILTIN_NAMES, builtin_scenario, builtin_scenario_text
from foragesim.sim import OUTCOME_SURVIVED, SimConfig, run_life, run_monte_carlo
from foragesim.statemachine import start_instance

from genscenarios import random_scenario

MINIMAL = """
[machine top entry]
initial -> a
state a
"""


# Machine statements at the edges of the statement table, each appended to
# MINIMAL -> every error it gives, in order; all of them at its line.
STATEMENT_EDGES = {
    "choice c : on | b-c": ["reserved word 'on' used as a name"],
    "submachine on = if -> a on x": ["reserved word 'on' used as a name"],
    "exit   done   (  success )": [],
    "state": ["bad state statement 'state'"],
    "initial -> on": ["machine 'top' has multiple initials"],
    "state b -> a on go, on on go, c when": [
        "bad transition arm 'c when'", "reserved word 'on' used as a name",
    ],
    "final done extra": ["bad final statement 'final done extra'"],
}

BIG = "9" * 400  # an integer literal too large for a double


def errors(diags):
    return [d for d in diags if d.severity == "error"]


def warnings_of(diags):
    return [d for d in diags if d.severity == "warning"]


class TestParse:
    def test_station_only_machine_and_options(self):
        s = builtin_scenario("station_only")
        m = {m.name: m for m in s.machines}["find_charging_station"]
        choice = declared(m)[0]["decision_flow"]
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

    @pytest.mark.parametrize("mark", ["\x0c", "\u2028"])
    def test_only_cr_and_lf_end_a_line(self, mark):
        # str.splitlines would end a line at each mark, putting the comment's
        # tail outside the comment and every later line one further down
        text = builtin_scenario_text("dual_source").replace("# Both", f"# Both{mark}top", 1)
        assert parse_scenario_checked(text)[1] == []
        broken = text + "state b -> foo on go\n"
        assert [d.line for d in errors(parse_scenario_checked(broken)[1])] == [broken.count("\n")]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_end_a_line_as_lf_does(self, newline):
        text = MINIMAL + "[oops]\n[world]\ngrid = 0 4\n"
        diags = parse_scenario_checked(text)[1]
        assert [d.line for d in errors(diags)] == [5, 7]
        assert parse_scenario_checked(text.replace("\n", newline))[1] == diags

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

    @pytest.mark.parametrize("stmt", sorted(STATEMENT_EDGES))
    def test_statement_edge_cases(self, stmt):
        text = MINIMAL + stmt + "\n"
        _, diags = parse_scenario_checked(text)
        assert [d.message for d in errors(diags)] == STATEMENT_EDGES[stmt]
        assert {d.line for d in errors(diags)} <= {len(text.splitlines())}

    @pytest.mark.parametrize("word", ["initial", "state", "submachine", "choice", "exit", "final"])
    @pytest.mark.parametrize("space", ["\t", " \t", "\t  "])
    def test_any_whitespace_ends_the_statement_word(self, word, space):
        # learning_lab has each of the six statements
        text = builtin_scenario_text("learning_lab")
        tabbed = "\n".join(
            word + space + line[len(word) + 1:] if line.startswith(word + " ") else line
            for line in text.splitlines()
        )
        assert tabbed != text
        assert parse_scenario_checked(tabbed, name="lab") == parse_scenario_checked(text, name="lab")
        assert parse_scenario_checked(text, name="lab")[1] == []

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


def _chain(levels, back_to_m1=False):
    """Machines m0 .. m{levels-1}, each holding the next as a sub-machine; the
    last waits for `go`, or enters m1 again. Returns the text and the line of
    the last machine's state."""
    lines = ["[machine m0 entry]", "initial -> s", "submachine s = m1 -> s on done"]
    for i in range(1, levels):
        inner = i + 1 if i < levels - 1 else 1 if back_to_m1 else None
        lines += [f"[machine m{i}]", "initial -> s",
                  f"submachine s = m{inner} -> exit.done on done" if inner else "state s -> exit.done on go",
                  "exit done (success)"]
    return "\n".join(lines) + "\n", len(lines) - 1


class TestDeepComposition:
    """Validation walks the composition on explicit stacks, so a deep one
    neither exhausts the recursion limit nor changes a diagnostic."""

    def test_a_1500_level_chain_parses_clean_and_runs(self):
        text, _ = _chain(1500)
        scenario, diags = parse_scenario_checked(text)
        assert diags == []
        cfg = SimConfig(scenario, max_steps=50)
        result = run_life(cfg)
        assert result.outcome == OUTCOME_SURVIVED and result.lifetime == 50
        assert run_monte_carlo(cfg, 2).survival_fraction == 1.0

    def test_a_1500_level_cycle_is_reported_at_its_state(self):
        text, line = _chain(1500, back_to_m1=True)
        _, diags = parse_scenario_checked(text)
        cycle = " -> ".join(f"m{i}" for i in (*range(1500), 1))
        assert diags == [Diagnostic("error", line, 1, f"machine composition cycle: {cycle}")]

    def test_validating_a_6000_level_chain_holds_memory_linear_in_its_depth(self):
        text, _ = _chain(6000)
        tracemalloc.start()
        try:
            scenario, diags = parse_scenario_checked(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scenario is not None and diags == []
        # one shared path list peaks near 16 MiB; a copy per suspended walk, near 150
        assert peak < 50 * 2**20

    def test_the_first_start_on_a_3000_level_chain_holds_memory_linear_in_its_depth(self):
        scenario = parse_scenario(_chain(3000)[0])
        tracemalloc.start()
        try:
            inst = start_instance(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.active_path() == ["m0", *["s"] * 3000]
        # one initial state per composite peaks near 4 MiB; a copy of the chain
        # below each composite, near 70
        assert peak < 15 * 2**20


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

    def test_final_name_may_start_with_underscore(self):
        text = "[machine top entry]\ninitial -> a\nstate a -> _done on go\nfinal _done\n"
        scenario, diags = parse_scenario_checked(text)
        assert diags == []
        states, _, finals = declared(scenario.machines[0])
        assert states["_done"].kind == "final" and finals == ["_done"]
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_entry_machine_may_be_endless(self):
        # a machine with no exit and no final is a legal life loop
        scenario, diags = parse_scenario_checked(MINIMAL)
        assert scenario is not None
        assert errors(diags) == []

    def test_a_repeated_machine_name_reads_its_first_declaration(self):
        # the second `inner` crosses an exit that `a` does not handle; the
        # first is the one the runner enters, and `a` handles its one exit
        text = (
            "[machine top entry]\ninitial -> a\nsubmachine a = inner -> b on done\nstate b\n\n"
            "[machine inner]\ninitial -> s\nstate s -> exit.done on go\nexit done (success)\n\n"
            "[machine inner]\ninitial -> s\nstate s -> exit.other on go\nexit other (failure)\n"
        )
        scenario, diags = parse_scenario_checked(text)
        assert diags == [Diagnostic("error", 11, 1, "duplicate machine name 'inner'")]
        assert start_instance(scenario).active_path() == ["top", "a", "s"]


# Each case is machine text in which the line marked `# <-` holds the arm at
# which the cycle's warning must sit, and the warning's message.
AUTO_CYCLES = {
    "two_states": (
        "[machine top entry]\ninitial -> a\nstate a -> b on auto  # <-\nstate b -> a on auto\n",
        "unguarded auto cycle a -> b -> a never settles",
    ),
    "self_loop": (
        "[machine top entry]\ninitial -> a\nstate a -> a on go, a on auto  # <-\n",
        "unguarded auto cycle a -> a never settles",
    ),
    "through_exit": (
        "[machine top entry]\ninitial -> s\nsubmachine s = inner -> s on x  # <-\n"
        "[machine inner]\ninitial -> a\nstate a -> exit.x on auto\nexit x (success)\n",
        "unguarded auto cycle s -> s never settles",
    ),
    "through_two_exits": (
        "[machine top entry]\ninitial -> s\nsubmachine s = mid -> t on y  # <-\nstate t -> s on auto\n"
        "[machine mid]\ninitial -> u\nsubmachine u = inner -> exit.y on x\nexit y (failure)\n"
        "[machine inner]\ninitial -> a\nstate a -> exit.x on auto\nexit x (success)\n",
        "unguarded auto cycle s -> t -> s never settles",
    ),
    "guarded": (
        "[machine top entry]\ninitial -> a\nstate a -> b on auto if batteryFull  # <-\n"
        "state b -> a on auto\n",
        "auto cycle through a, b may never settle",
    ),
    "guarded_exit": (
        "[machine top entry]\ninitial -> s\nsubmachine s = inner -> s on x  # <-\n"
        "[machine inner]\ninitial -> a\nstate a -> exit.x on auto if powerLow\nexit x (success)\n",
        "auto cycle through s may never settle",
    ),
    "choice": (
        "[machine top entry]\ninitial -> c\nchoice c : a | b  # <-\nstate a -> c on auto\nstate b\n",
        "auto cycle through c, a may never settle",
    ),
    # a guarded first arm takes precedence, so the unguarded one is not certain
    "shadowed": (
        "[machine top entry]\ninitial -> a\nstate a -> b on auto if powerLow, b on auto  # <-\n"
        "state b -> a on auto\n",
        "auto cycle through a, b may never settle",
    ),
}

# no cycle: a chain that settles, and a sub-machine that exits on an event
NO_AUTO_CYCLES = {
    "chain": "[machine top entry]\ninitial -> a\nstate a -> b on auto\nstate b -> c on auto\n"
             "state c -> a on go\n",
    "exit_on_event": "[machine top entry]\ninitial -> s\nsubmachine s = inner -> s on x\n"
                     "[machine inner]\ninitial -> a\nstate a -> exit.x on go\nexit x (success)\n",
}


_NODES = st.sampled_from(["a", "b", "c", "d", "e"])


def _auto_ring(n: int, guard: str) -> str:
    """A machine whose `n` states each move on `auto` to the next, the last to the first."""
    return "[machine top entry]\ninitial -> s0\n" + "".join(
        f"state s{i} -> s{(i + 1) % n} on auto{guard}\n" for i in range(n)
    )


def _loops_by_reach(nexts):
    """The cycles of `nexts` by a walk from each node: each node that reaches
    itself, with the nodes it reaches that reach it, reported at the first
    of them in `nexts` order; `_loops` must give the same lists."""
    reach = {start: scenario_mod._reach(start, nexts) for start in nexts}
    loops, warned = [], set()
    for state in nexts:
        if state in warned or state not in reach[state]:
            continue
        loop = [s for s in nexts if s in reach[state] and state in reach[s]]
        warned.update(loop)
        loops.append(loop)
    return loops


class TestAutoCycles:
    @pytest.mark.parametrize("case", sorted(AUTO_CYCLES))
    def test_cycle_is_reported_at_its_arm(self, case):
        text, message = AUTO_CYCLES[case]
        marked = next(i for i, ln in enumerate(text.splitlines(), 1) if ln.endswith("# <-"))
        _, diags = parse_scenario_checked(text)
        assert [(d.line, d.severity, d.message) for d in diags] == [(marked, "warning", message)]

    @pytest.mark.parametrize("case", sorted(NO_AUTO_CYCLES))
    def test_settling_drain_is_clean(self, case):
        _, diags = parse_scenario_checked(NO_AUTO_CYCLES[case])
        assert diags == []

    @settings(max_examples=400, deadline=None)
    @given(st.dictionaries(_NODES, st.lists(st.one_of(_NODES, st.just("exit.x")), max_size=3),
                           min_size=1, max_size=8))
    def test_loops_are_those_of_a_walk_from_each_state(self, nexts):
        assert scenario_mod._loops(nexts) == _loops_by_reach(nexts)

    @pytest.mark.parametrize("texts", ["builtins", "genscenarios", "guarded_rings", "cases"])
    def test_diagnostics_are_those_of_a_walk_from_each_state(self, texts, monkeypatch):
        corpus = {
            "builtins": lambda: [builtin_scenario_text(name) for name in BUILTIN_NAMES],
            "genscenarios": lambda: [serialize_scenario(random_scenario(seed)) for seed in range(300)],
            "guarded_rings": lambda: [_auto_ring(n, guard) for n in (1, 2, 3, 40, 700)
                                      for guard in (" if powerLow", "", " if batteryFull, s0 on auto")],
            "cases": lambda: [text for text, _ in AUTO_CYCLES.values()] + list(NO_AUTO_CYCLES.values()),
        }[texts]()
        found = [parse_scenario_checked(text)[1] for text in corpus]
        monkeypatch.setattr(scenario_mod, "_loops", _loops_by_reach)
        assert found == [parse_scenario_checked(text)[1] for text in corpus]
        assert any(warnings_of(diags) for diags in found) or texts == "builtins"

    def test_a_machine_open_on_the_composition_walk_crosses_no_exit(self):
        """A machine still open on the composition walk, one that holds itself
        through a composition cycle, crosses no exit as a sub-machine: `q`
        enters `a`, which would cross `x` at once, yet `q -> r -> q` is no
        auto cycle, and only the composition cycle is an error."""
        text = (
            "[machine a entry]\ninitial -> p\nstate p -> exit.x on auto\nsubmachine c = b -> p on y\n"
            "exit x (success)\n\n"
            "[machine b]\ninitial -> q\nsubmachine q = a -> r on x\nstate r -> q on auto\nexit y (success)\n"
        )
        _, diags = parse_scenario_checked(text)
        assert diags == [
            Diagnostic("warning", 4, 1, "unreachable state 'c'"),
            Diagnostic("error", 9, 1, "machine composition cycle: a -> b -> a"),
        ]

    def test_a_long_guarded_ring_is_one_warning_found_in_one_pass(self, monkeypatch):
        # a walk from each state takes time quadratic in the ring's size; the
        # one walk left is the reachability check's, from the initial state
        walks = []
        reach = scenario_mod._reach
        monkeypatch.setattr(scenario_mod, "_reach", lambda *args: walks.append(args) or reach(*args))
        n = 20_000
        _, diags = parse_scenario_checked(_auto_ring(n, " if powerLow"))
        names = ", ".join(f"s{i}" for i in range(n))
        assert [(d.line, d.severity, d.message) for d in diags] == [
            (3, "warning", f"auto cycle through {names} may never settle")
        ]
        assert [start for start, _ in walks] == ["s0"]


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
    # rejected by the energy profile itself, after every key was read
    "battery_capacity_positive": "[energy]\nrate.idle = 0.1\nbattery_capacity = 0  # <-\n",
    "capacitor_capacity_nonneg": "[energy]\nrate.idle = 0.1\ncapacitor_capacity = -1  # <-\n",
    "battery_initial_range": "[energy]\nbattery_capacity = 50\nbattery_initial = 60  # <-\n",
    "capacitor_initial_range": "[energy]\nrate.idle = 0.1\ncapacitor_initial = 11  # <-\n",
    "gain_min_range": "[energy]\nrate.idle = 0.1\ngain_min = 2  # <-\n",
    "threshold_order": "[energy]\nrate.idle = 0.1\nthreshold.low = 0.1  # <-\nthreshold.lower = 0.2\n",
    # a number too large for a double is a bad number, whatever the key's shape
    "cell_overflow": f"[world]\ngrid = {BIG} 8  # <-\n",
    "int_overflow": f"[energy]\nrate.idle = 0.1\nmax_charge_ticks = {BIG}  # <-\n",
    "num_overflow": f"[energy]\nrate.idle = 0.1\nbattery_capacity = {BIG}  # <-\n",
}


class TestKeyErrors:
    @pytest.mark.parametrize("case", sorted(KEY_ERRORS))
    def test_rejected_at_the_key_line(self, case):
        text = MINIMAL + KEY_ERRORS[case]
        line = next(n for n, t in enumerate(text.splitlines(), start=1) if "# <-" in t)
        _, diags = parse_scenario_checked(text)
        assert errors(diags), "accepted"
        assert {d.line for d in errors(diags)} == {line}, diags


# a sub-machine with one exit, for a case to append after the statement that uses it
INNER = "[machine inner]\ninitial -> x\nstate x -> exit.done on go\nexit done (success)\n"

# Each case is text in which the line marked `# <-` must carry the message.
STRUCTURE_ERRORS = {
    "bad_initial": (MINIMAL + "initial a  # <-\n", "bad initial statement 'initial a'"),
    "bad_state": (MINIMAL + "state -> a  # <-\n", "bad state statement 'state -> a'"),
    "bad_submachine": (MINIMAL + "submachine s inner  # <-\n",
                       "bad submachine statement 'submachine s inner'"),
    "bad_choice": (MINIMAL + "choice c a b  # <-\n", "bad choice statement 'choice c a b'"),
    "bad_exit": (MINIMAL + "exit done success  # <-\n", "bad exit statement 'exit done success'"),
    "bad_final": (MINIMAL + "final 1x  # <-\n", "bad final statement 'final 1x'"),
    "unknown_statement": (MINIMAL + "goto a  # <-\n", "unknown statement 'goto'"),
    "multiple_initials": (MINIMAL + "initial -> b  # <-\n", "machine 'top' has multiple initials"),
    "no_initial": ("[machine top entry]  # <-\nstate a\n", "machine 'top' has no initial"),
    "reserved_word": (MINIMAL + "state on  # <-\n", "reserved word 'on' used as a name"),
    "reserved_final": (MINIMAL + "final on  # <-\n", "reserved word 'on' used as a name"),
    "bad_identifier": (MINIMAL + "choice c : a | b-c  # <-\n", "bad identifier 'b-c'"),
    "bad_arm": (MINIMAL + "state b -> a when go  # <-\n", "bad transition arm 'a when go'"),
    "outside_section": ("state x  # <-\n" + MINIMAL, "statement outside any section"),
    "bad_header": (MINIMAL + "[physics]  # <-\n", "bad section header '[physics]'"),
    "duplicate_section": (MINIMAL + "[world]\ngrid = 8 8\n[world]  # <-\n",
                          "duplicate [world] section"),
    "duplicate_key": (MINIMAL + "[world]\ngrid = 8 8\ngrid = 4 4  # <-\n", "duplicate key 'grid'"),
    "bad_weight_line": (MINIMAL + "[weights]\nnode = 0.5 0.5  # <-\n",
                        "bad weight line 'node = 0.5 0.5'"),
    "weight_arity": (MINIMAL + "[weights]\nn.o = 0.5  # <-\n",
                     "weight line needs exactly two numbers"),
    "duplicate_weight": (MINIMAL + "[weights]\nn.o = 0.5 0.5\nn.o = 0.1 0.1  # <-\n",
                         "duplicate weight entry n.o"),
    "weight_overflow": (MINIMAL + f"[weights]\nn.o = {BIG} 0.5  # <-\n", f"bad number {BIG!r}"),
    "negative_overflow": (MINIMAL + f"[energy]\ngain_min = -{BIG}  # <-\n", f"bad number '-{BIG}'"),
    # a number's digits are ASCII; `float` would read these as 0.2 and 8
    "arabic_indic_digits": (MINIMAL + "[weights]\nn.o = \u0660.\u0662 0.5  # <-\n",
                            "bad number '\u0660.\u0662'"),
    "fullwidth_digit": (MINIMAL + "[world]\ngrid = \uff18 8  # <-\n", "bad number '\uff18'"),
    "bad_key_value": (MINIMAL + "[world]\ngrid 8 8  # <-\n", "bad key/value line 'grid 8 8'"),
    "multiple_entries": (MINIMAL + "[machine other entry]  # <-\ninitial -> a\nstate a\n",
                         "multiple entry machines: 'other'"),
    "duplicate_machine": (MINIMAL + "[machine top]  # <-\ninitial -> a\nstate a\n",
                          "duplicate machine name 'top'"),
    "duplicate_exit": ("[machine top entry]  # <-\ninitial -> a\nstate a\nexit d (success)\n"
                       "exit d (failure)\n", "duplicate exit name 'd'"),
    "exit_clashes": ("[machine top entry]  # <-\ninitial -> a\nstate a\nexit a (success)\n",
                     "exit 'a' clashes with a state name"),
    "duplicate_option": (MINIMAL + "choice c : a | b | a  # <-\nstate b\n",
                         "duplicate choice option 'a'"),
    "arm_not_an_exit": (MINIMAL + "submachine s = inner -> a on done, a on nope  # <-\n" + INNER,
                        "arm event 'nope' is not an exit of machine 'inner'"),
    "no_exit_declared": (MINIMAL + "submachine s = spare -> a on go  # <-\n"
                         "[machine spare]\ninitial -> x\nstate x\n",
                         "machine 'spare' is used as a sub-machine but declares no exit"),
    "no_final_state": (MINIMAL + "state b -> final on go  # <-\n", "machine 'top' has no final state"),
    "ambiguous_final": (MINIMAL + "state b -> final on go  # <-\nfinal f1\nfinal f2\n",
                        "ambiguous 'final' target; name the final state"),
    # a value of the wrong shape, or out of its bound, at its key's line
    "num_shape": (MINIMAL + "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.ir_radius = 2 3  # <-\n",
                  "station.ir_radius needs exactly one number"),
    "int_shape": (MINIMAL + "[energy]\nrate.idle = 0.1\nmax_charge_ticks = 2.5  # <-\n",
                  "max_charge_ticks needs exactly one integer"),
    "cell_shape": (MINIMAL + "[world]\ngrid = 8 8\nrobot.start = 1  # <-\n",
                   "robot.start needs two integer coordinates"),
    "cells_shape": (MINIMAL + "[world]\ngrid = 8 8\nstation.pos = 1 1\nstation.track = 1 2 1  # <-\n",
                    "station.track needs an even list of integer coordinates"),
    "positive": (MINIMAL + "[world]\nrobot.start = 1 1\ngrid = 8 0  # <-\n", "grid must be positive"),
    "non_negative": (MINIMAL + "[energy]\nbattery_capacity = 50\nrate.idle = -0.1  # <-\n",
                     "rate.idle must be non-negative"),
    # a third field gives the severity when it is not "error"
    "conditional_exit": (MINIMAL + "submachine s = inner -> a on done if powerLow  # <-\n" + INNER,
                         "exit 'done' of machine 'inner' is handled only conditionally", "warning"),
    "never_used": (MINIMAL + "[machine spare]  # <-\ninitial -> x\nstate x\n",
                   "machine 'spare' is never used", "warning"),
    # weights are keyed by (node, option): the second declaration of a choice
    # node's name shares the first one's weights
    "shared_choice": (MINIMAL + "choice pick : a | b\nstate b\nsubmachine s = inner -> a on done\n"
                      "[machine inner]\ninitial -> pick\nchoice pick : x | y  # <-\n"
                      "state x -> exit.done on go\nstate y\nexit done (success)\n",
                      "choice 'pick' is also declared in machine 'top'; they share weights", "warning"),
}


class TestStructureErrors:
    @pytest.mark.parametrize("case", sorted(STRUCTURE_ERRORS))
    def test_message_at_the_marked_line(self, case):
        text, message, *rest = STRUCTURE_ERRORS[case]
        severity = rest[0] if rest else "error"
        line = next(n for n, t in enumerate(text.splitlines(), start=1) if "# <-" in t)
        _, diags = parse_scenario_checked(text)
        found = [d.line for d in diags if d.severity == severity and d.message == message]
        assert found == [line], diags


class TestNegativeZero:
    def test_minus_zero_reads_as_zero(self):
        text = MINIMAL + "[energy]\nrate.move = -0\n[weights]\nn.o = -0 -0.000\n"
        s = parse_scenario(text)
        values = [s.energy_profile.rates.move, *s.seed_weights["n", "o"]]
        assert [math.copysign(1.0, v) for v in values] == [1.0, 1.0, 1.0]
        assert s == parse_scenario(text.replace("-0", "0"))


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


# Text built from the DSL's own words, so that fuzzing reaches the machine
# statements, the validator and the auto-cycle check, plus [world]/[energy]/
# [weights] lines whose numbers include integer literals too large for a
# double. Half the texts are well formed (good names, declared targets,
# finite numbers, statements in any order) and mostly accepted, so that they
# go through the round trip; the other half draws bad names, stray words and
# numbers that overflow.
_GOOD = st.sampled_from(["a", "b", "c", "_f"])
_NAMES = st.one_of(_GOOD, st.sampled_from(["on", "final", "if", "1x", "b-c", "powerLow"]))
_WORDS = st.sampled_from([
    "initial", "state", "choice", "submachine", "exit", "final", "->", ":", "|", "=", ",",
    "on", "auto", "if", "exit.x", "(success)", "(failure)", "a", "b", "1x",
])
_GUARDS = st.sampled_from(["", "", " if powerLow", " if batteryFull", " if isSignalSufficient"])
_BIG = st.integers(300, 400).map(lambda n: "9" * n)  # a double overflows past 308 digits
_FINITE_BIG = st.integers(16, 308).map(lambda n: "9" * n)


def _arms(names, events=st.sampled_from(["auto", "auto", "go", "x"]), guards=_GUARDS):
    targets = st.one_of(names, st.sampled_from(["final", "exit.x"]))
    return st.lists(st.builds("{} on {}{}".format, targets, events, guards), min_size=1, max_size=3)


def _statements(names, arms):
    return st.one_of(
        st.builds("initial -> {}".format, names),
        st.builds("state {}".format, names),
        st.builds("state {} -> {}".format, names, arms.map(", ".join)),
        st.builds("choice {} : {}".format, names, st.lists(names, min_size=1, max_size=3).map(" | ".join)),
        st.builds("submachine {} = {} -> {}".format, names, st.sampled_from(["inner", "top", "ghost"]),
                  arms.map(", ".join)),
        st.builds("exit {} ({})".format, names, st.sampled_from(["success", "failure", "maybe"])),
        st.builds("final {}".format, names),
        st.lists(_WORDS, min_size=1, max_size=6).map(" ".join),
    )


@st.composite
def _well_formed(draw) -> list[str]:
    arms = _arms(st.sampled_from(["a", "b", "c", "s", "final"]))
    body = [
        "state a -> " + ", ".join(draw(arms)),
        "state b" + draw(st.one_of(st.just(""), arms.map(lambda a: " -> " + ", ".join(a)))),
        "choice c : a | " + draw(st.sampled_from(["b", "s", "_f"])),
        "submachine s = inner -> " + ", ".join(draw(_arms(
            st.sampled_from(["a", "b", "c"]), st.just("y"), st.sampled_from(["", " if powerLow"])))),
        "final _f",
        "exit x (success)",
    ]
    inner = "state a -> " + ", ".join(draw(_arms(st.just("exit.y"), guards=_GUARDS)))
    num = st.one_of(st.integers(1, 30).map(str), _FINITE_BIG)
    return [
        "[machine top entry]", "initial -> a", *draw(st.permutations(body)),
        "[machine inner]", "initial -> a", inner, "exit y (failure)",
        "[world]", f"grid = {draw(num)} {draw(num)}", "robot.start = 0 0",
        "[energy]", f"battery_capacity = {draw(num)}", f"max_charge_ticks = {draw(num)}",
        f"rate.idle = {draw(st.sampled_from(['0', '0.25', '1', '12.5']))}",
        "[weights]", f"c.a = {draw(st.sampled_from(['0', '0.5', '1']))} 0.25",
    ]


@st.composite
def _garbled(draw) -> list[str]:
    statements = _statements(_NAMES, _arms(_NAMES, st.sampled_from(["auto", "go", "on"]),
                                           st.sampled_from(["", " if nope", " if on", " if powerLow"])))
    number = st.one_of(st.integers(-2, 30).map(str), _BIG, st.just("-" + BIG), st.just("0." + BIG[:10]))
    key_line = st.builds("{} = {}".format, st.sampled_from(
        ["grid", "robot.start", "station.pos", "battery_capacity", "max_charge_ticks", "gain_min"]
    ), st.lists(number, min_size=1, max_size=3).map(" ".join))
    weight = st.builds("{}.{} = {} {}".format, _NAMES, _NAMES, number, number)
    return [
        "[machine top entry]", *draw(st.lists(statements, max_size=6)),
        "[machine inner]", *draw(st.lists(statements, max_size=4)),
        "[world]", *draw(st.lists(key_line, max_size=2)),
        "[energy]", *draw(st.lists(key_line, max_size=2)),
        "[weights]", *draw(st.lists(weight, max_size=2)),
    ]


dsl_texts = st.one_of(_well_formed(), _garbled()).map(lambda lines: "\n".join(lines) + "\n")


class TestRobustness:
    @settings(max_examples=250, deadline=None)
    @given(dsl_texts)
    def test_dsl_text_never_crashes_and_round_trips(self, text):
        scenario, diags = parse_scenario_checked(text)
        if scenario is not None and not errors(diags):
            assert parse_scenario(serialize_scenario(scenario)) == scenario


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
