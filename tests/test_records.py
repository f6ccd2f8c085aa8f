"""Value semantics of the record types: equality, copies, `repr`, hashing.

Records are NamedTuples, copied with `_replace`. A type that checks or fills
its fields runs its constructor on a copy too, and the definition types leave
their source line (and a scenario its name) out of `==`.
"""

import pytest

from foragesim.energy import DischargeProfile, EnergyProfile, EnergyState, Thresholds
from foragesim.scenario import (
    Diagnostic,
    MachineDef,
    ScenarioDef,
    StateDef,
    TransitionDef,
    declared,
    parse_scenario,
)
from foragesim.scenarios import builtin_scenario, builtin_scenario_text
from foragesim.sim import MEMORY_NONVOLATILE, SimConfig
from foragesim.statemachine import PursuitOutcome, start_instance
from foragesim.weights import WeightEntry, WeightTable
from foragesim.world import BeaconSpec, CueReading, StationSpec, WorldMap

TINY = ScenarioDef(
    machines=(MachineDef("top", "a", states=(
        StateDef("a", transitions=(TransitionDef("go", "b", guard="powerLow", line=3),), line=2),
        StateDef("b", kind="final", line=4),
    ), exits=(("done", "success"),), is_entry=True, line=1),),
    world=WorldMap(4, 3, station=StationSpec((1, 1), track=((1, 2), (1, 1)), gaps=[(1, 2)]),
                   beacon=BeaconSpec((2, 2))),
    energy_profile=EnergyProfile(battery_initial=50.0, thresholds=Thresholds(0.5, 0.25)),
    seed_weights={("c", "x"): (0.5, 0.25)},
    name="tiny",
)

# what `repr(TINY)` printed when the records were dataclasses
TINY_REPR = (
    "ScenarioDef(machines=(MachineDef(name='top', initial='a', states=(StateDef(name='a', "
    "kind='simple', machine=None, options=(), transitions=(TransitionDef(event='go', target='b', "
    "guard='powerLow', line=3),), line=2), StateDef(name='b', kind='final', machine=None, "
    "options=(), transitions=(), line=4)), exits=(('done', 'success'),), is_entry=True, line=1),), "
    "world=WorldMap(width=4, height=3, robot_start=(0, 0), station=StationSpec(pos=(1, 1), "
    "ir_radius=8.0, track=((1, 2), (1, 1)), charge_rate=5.0, gaps=frozenset({(1, 2)})), "
    "beacon=BeaconSpec(pos=(2, 2), tx_power=4.0, d0=3.0, resonance_radius=2.0, poll_radius=8.0, "
    "i_min=1.0)), energy_profile=EnergyProfile(battery_capacity=100.0, capacitor_capacity=10.0, "
    "battery_initial=50.0, capacitor_initial=10.0, rates=DischargeProfile(idle=0.1, move=0.5, "
    "sense=0.2, process=0.2), thresholds=Thresholds(low_frac=0.5, lower_frac=0.25), gain_min=0.2, "
    "max_charge_ticks=0), seed_weights={('c', 'x'): (0.5, 0.25)}, name='tiny')"
)

# one value of each type that was a frozen dataclass
FROZEN = [
    DischargeProfile(), Thresholds(), EnergyState(50.0, 100.0, 1.0, 10.0), EnergyProfile(),
    StationSpec((1, 1), gaps={(1, 2)}), BeaconSpec((2, 2)), WorldMap(4, 3),
    CueReading(), Diagnostic("error", 3, 1, "bad"), WeightEntry(0.5), PursuitOutcome("n", "o", True),
]


def test_repr_is_the_dataclass_text():
    assert repr(TINY) == TINY_REPR


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_types_stay_frozen_and_hash_their_fields(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    # a frozen dataclass hashed the tuple of its fields
    assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


class TestEquality:
    @pytest.mark.parametrize("record, last, first", [
        (TransitionDef("go", "b", line=3), 9, "stop"),
        (StateDef("a", line=2), 9, "z"),
        (TINY.machines[0], 9, "other"),
        (TINY, "renamed", ()),
    ], ids=["TransitionDef", "StateDef", "MachineDef", "ScenarioDef"])
    def test_line_and_name_are_not_compared(self, record, last, first):
        moved = record._replace(**{record._fields[-1]: last})
        assert moved == record and not moved != record
        assert repr(moved) != repr(record)
        changed = record._replace(**{record._fields[0]: first})
        assert changed != record and not changed == record
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)

    def test_a_parsed_scenario_equals_its_reparsed_text_on_other_lines(self):
        text = builtin_scenario_text("learning_lab")
        moved = parse_scenario("\n\n# moved down\n" + text, name="other")
        original = parse_scenario(text)
        assert moved == original and moved.machines[0].line != original.machines[0].line

    def test_a_weight_table_compares_and_prints_its_entries(self):
        assert WeightTable() == WeightTable() and WeightTable() != {}
        assert WeightTable({("n", "o"): (0.5, 0.0)}) != WeightTable()
        assert repr(WeightTable({("n", "o"): (0.5, 0.0)})) == (
            "WeightTable(entries={('n', 'o'): WeightEntry(w_pos=0.5, w_neg=0.0, successes=0, failures=0)})")
        with pytest.raises(TypeError, match="unhashable"):
            hash(WeightTable())


class TestCopies:
    @pytest.mark.parametrize("record, changes, message", [
        (EnergyProfile(), {"gain_min": 0.0}, "gain_min must be in (0, 1]"),
        (EnergyProfile(), {"battery_initial": 101.0}, "battery_initial outside [0, battery_capacity]"),
        (EnergyProfile(), {"battery_capacity": -1.0}, "battery_capacity must be positive"),
        (Thresholds(), {"lower_frac": 0.3}, "thresholds must satisfy 0 < lower < low < 1, got low=0.3 lower=0.3"),
        (SimConfig(TINY), {"max_steps": 0}, "max_steps must be positive"),
        (SimConfig(TINY), {"memory_mode": MEMORY_NONVOLATILE}, "nonvolatile memory requires weights_path"),
        # a count or a seed that is not an integer once failed in the middle of a life
        (SimConfig(TINY), {"max_steps": 20000.0}, "max_steps must be an integer, got 20000.0"),
        (SimConfig(TINY), {"max_steps": "5"}, "max_steps must be an integer, got '5'"),
        (SimConfig(TINY), {"seed": 1.5}, "seed must be an integer, got 1.5"),
        (SimConfig(TINY), {"seed": None}, "seed must be an integer, got None"),
        (SimConfig(TINY), {"max_steps": -0.5}, "max_steps must be an integer, got -0.5"),
    ])
    def test_a_bad_value_raises_the_constructor_error(self, record, changes, message):
        with pytest.raises(ValueError) as info:
            record._replace(**changes)
        assert str(info.value) == message

    @pytest.mark.parametrize("make", [lambda **kw: SimConfig(TINY, **kw),
                                      lambda **kw: SimConfig(TINY)._replace(**kw)],
                             ids=["constructor", "copy"])
    def test_a_config_takes_integers_as_operator_index_reads_them(self, make):
        cfg = make(seed=True, max_steps=_Index(7))
        assert (cfg.seed, cfg.max_steps) == (1, 7)
        assert type(cfg.seed) is type(cfg.max_steps) is int
        with pytest.raises(ValueError, match="^max_steps must be an integer, got 20000.0$"):
            make(max_steps=20000.0)
        with pytest.raises(ValueError, match="^max_steps must be positive$"):
            make(max_steps=_Index(0))

    def test_a_copy_fills_and_normalises_as_the_constructor_does(self):
        profile = EnergyProfile()._replace(battery_capacity=40.0, battery_initial=None)
        assert (profile.battery_initial, profile.capacitor_initial) == (40.0, 10.0)
        assert StationSpec((1, 1))._replace(gaps=[(1, 2), (1, 2)]).gaps == frozenset({(1, 2)})

    def test_a_copied_scenario_answers_its_lookups(self):
        scenario = builtin_scenario("dual_source")
        top = scenario.entry_machine()
        renamed = top._replace(name="renamed", states=top.states[:-1])
        copy = scenario._replace(machines=(renamed, *scenario.machines[1:]))
        assert copy.entry_machine() is renamed
        states, _, finals = declared(renamed)
        assert top.states[-1].name not in states and finals == []
        assert states[top.states[0].name] is top.states[0]
        with pytest.raises(ValueError, match="machine 'renamed', state '.*' has no final state"):
            start_instance(copy)  # the copy resolves its own machines
        whole = scenario._replace(machines=(top._replace(name="renamed"), *scenario.machines[1:]))
        assert start_instance(whole, "renamed").active_path() == ["renamed", top.initial]
        with pytest.raises(ValueError, match=f"no machine named '{top.name}'"):
            start_instance(whole, top.name)
        assert copy.event_vocabulary() == _vocabulary(copy.machines)
        dropped = scenario._replace(machines=scenario.machines[:1])
        assert dropped.event_vocabulary() == _vocabulary(scenario.machines[:1]) != scenario.event_vocabulary()

    def test_the_first_declaration_of_a_name_wins(self):
        first = StateDef("a", line=1)
        machine = MachineDef("m", "a", states=(first, StateDef("a", kind="final", line=2),
                                               StateDef("z", kind="final"), StateDef("b", kind="final")),
                             exits=(("x", "success"), ("y", "failure"), ("x", "failure")))
        states, exits, finals = declared(machine)
        assert states.keys() == {"a", "z", "b"} and states["a"] is first
        assert exits == {"x": "success", "y": "failure"}
        assert finals == ["a", "z", "b"]


def _vocabulary(machines):
    return {tr.event for m in machines for st in m.states for tr in st.transitions} - {"auto"}


class _Index:
    """An integer that is no `int`, as `operator.index` reads it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value
