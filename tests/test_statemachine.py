import inspect
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import statemachine
from foragesim.scenario import parse_scenario
from foragesim.scenarios import builtin_scenario
from foragesim.statemachine import (
    AUTO,
    STATUS_EXITED,
    STATUS_FINALIZED,
    STATUS_RUNNING,
    MachineInstance,
    MachineStuckError,
    StaticContext,
    TransitionRecord,
    UnknownEventError,
    dispatch,
    start_instance,
)

sys.path.insert(0, str(Path(__file__).parent))
from genscenarios import _GUARDS, random_scenario  # noqa: E402


def ctx_choosing(*picks, guards=None):
    """Context whose chooser pops scripted picks, then falls back to first."""
    queue = list(picks)

    def chooser(node, options):
        if queue:
            want = queue.pop(0)
            assert want in options
            return want
        return options[0]

    return StaticContext(guards=guards, chooser=chooser)


class TestStart:
    def test_station_machine_rests_at_choice(self):
        s = builtin_scenario("station_only")
        inst = start_instance(s, "find_charging_station")
        assert inst.active_path() == ["find_charging_station", "decision_flow"]
        assert inst.status == STATUS_RUNNING

    def test_initial_final_machine_finalizes_immediately(self):
        s = parse_scenario("[machine top entry]\ninitial -> Done\nfinal Done\n")
        inst = start_instance(s)
        assert inst.status == STATUS_FINALIZED
        assert inst.active_path() == ["top", "Done"]

    def test_dual_source_starts_at_seek_charge_source(self):
        s = builtin_scenario("dual_source")
        inst = start_instance(s)
        assert inst.active_path() == ["top", "seek_charge_source"]

    def test_active_path_returns_a_copy(self):
        s = builtin_scenario("dual_source")
        inst = start_instance(s)
        path = inst.active_path()
        path.append("junk")
        assert inst.active_path() == ["top", "seek_charge_source"]


class TestDispatch:
    def test_wait_timer_finalizes_from_recharge(self):
        s = builtin_scenario("station_only")
        inst = start_instance(s)
        ctx = ctx_choosing("follow_ir_signal")
        dispatch(inst, "power_low", ctx)
        assert inst.leaf_state_name() == "follow_ir_signal"
        dispatch(inst, "located", ctx)
        assert inst.active_path() == ["top", "recharge"]
        records = dispatch(inst, "waitTimer_expired", ctx)
        assert inst.status == STATUS_FINALIZED
        assert inst.active_path() == ["top", "Final"]
        assert records[-1].to_path == ("top", "Final")

    def test_lost_surfaces_failure_to_outer_machine(self):
        s = builtin_scenario("station_only")
        inst = start_instance(s)
        ctx = ctx_choosing("follow_ir_signal")
        dispatch(inst, "power_low", ctx)
        records = dispatch(inst, "lost", ctx)
        # inner machine crossed its failure exit, then the outer arm fired
        exit_rec = records[0]
        assert exit_rec.to_path == ("top", "find_station", "lost_signal_track")
        assert inst.active_path() == ["top", "power_lower_wait"]
        assert ctx.outcomes[-1].node == "decision_flow"
        assert ctx.outcomes[-1].option == "follow_ir_signal"
        assert ctx.outcomes[-1].success is False
        # power lower is what resumes the hunt, per the outer machine
        dispatch(inst, "power_lower", ctx)
        assert inst.leaf_state_name() in ("follow_ir_signal", "follow_track_path")

    def test_unknown_event_raises(self):
        s = builtin_scenario("station_only")
        inst = start_instance(s)
        with pytest.raises(UnknownEventError):
            dispatch(inst, "bogus")

    def test_event_after_finalized_is_noop_with_note(self):
        s = parse_scenario("[machine top entry]\ninitial -> Done\nfinal Done\n")
        inst = start_instance(s)
        records = dispatch(inst, AUTO)
        assert len(records) == 1
        assert records[0].note == "ignored: machine finalized"
        assert records[0].from_path == records[0].to_path

    def test_choice_roll_resolves_on_first_dispatch(self):
        s = builtin_scenario("station_only")
        inst = start_instance(s, "find_charging_station")
        ctx = ctx_choosing("follow_track_path")
        records = dispatch(inst, AUTO, ctx)
        assert [r.trigger for r in records] == ["choice"]
        assert records[0].chosen_option == "follow_track_path"
        assert inst.leaf_state_name() == "follow_track_path"

    def test_reentry_reconsults_choice(self):
        s = builtin_scenario("station_only")
        inst = start_instance(s)
        calls = []

        def chooser(node, options):
            calls.append(node)
            return options[0]

        ctx = StaticContext(chooser=chooser, guards={"powerLower": True})
        dispatch(inst, "power_low", ctx)
        dispatch(inst, "lost", ctx)  # failure exit, guard retries immediately
        assert calls == ["decision_flow", "decision_flow"]

    def test_guarded_arm_priority_follows_declaration_order(self):
        s = builtin_scenario("dual_source")
        inst = start_instance(s)
        ctx = ctx_choosing("find_wireless_power", "poll_power_beacon",
                           guards={"isSignalSufficient": True})
        dispatch(inst, "power_low", ctx)
        dispatch(inst, "found", ctx)
        dispatch(inst, "located", ctx)
        # guard true, so the guarded arm wins over the navigate fallback
        assert inst.active_path() == ["top", "charge"]

    def test_guard_false_takes_fallback_arm(self):
        s = builtin_scenario("dual_source")
        inst = start_instance(s)
        ctx = ctx_choosing("find_wireless_power", "poll_power_beacon")
        dispatch(inst, "power_low", ctx)
        dispatch(inst, "found", ctx)
        dispatch(inst, "located", ctx)
        assert inst.active_path() == ["top", "navigate_proximity"]

    def test_wireless_success_records_both_choice_levels(self):
        s = builtin_scenario("dual_source")
        inst = start_instance(s)
        ctx = ctx_choosing("find_wireless_power", "engage_resonance",
                           guards={"isSignalSufficient": True})
        dispatch(inst, "power_low", ctx)
        assert "find_wireless_power" in inst.active_path()
        dispatch(inst, "located", ctx)
        got = {(o.node, o.option, o.success) for o in ctx.outcomes}
        assert got == {
            ("discover", "engage_resonance", True),
            ("seek", "find_wireless_power", True),
        }

    def test_self_transition_is_allowed(self):
        s = parse_scenario(
            "[machine top entry]\ninitial -> a\nstate a -> a on go\n"
        )
        inst = start_instance(s)
        records = dispatch(inst, "go")
        assert records[0].from_path == records[0].to_path == ("top", "a")


# a choice that lists itself: choosing it enters the choice again
SELF_CHOICE = """
[machine top entry]
initial -> s
submachine s = inner -> s on done

[machine inner]
initial -> c
choice c : c | a
state a -> exit.done on go
exit done (success)
"""


class TestSelfListedChoice:
    def test_reparks_on_every_entry(self):
        inst = start_instance(parse_scenario(SELF_CHOICE))
        picks = ["c", "c", "a", "c", "a"]
        asked = []

        def chooser(node, options):
            asked.append((node, options))
            return picks.pop(0)

        ctx = StaticContext(chooser=chooser)
        assert not inst.quiescent(ctx)  # resting on the choice
        got = []
        for event in (AUTO, "go", AUTO):
            got.append([tuple(r) for r in dispatch(inst, event, ctx)])
            assert inst.quiescent(ctx)
        c, a = ("top", "s", "c"), ("top", "s", "a")
        # the records the frame-flag implementation gave for this script
        assert got == [
            [(0, c, c, "choice", "c", None), (0, c, c, "choice", "c", None),
             (0, c, a, "choice", "a", None)],
            [(0, a, ("top", "s", "done"), "go", None, None), (0, ("top", "s"), c, "done", None, None),
             (0, c, c, "choice", "c", None), (0, c, a, "choice", "a", None)],
            [],
        ]
        assert asked == [("c", ("c", "a"))] * 5
        assert [(o.node, o.option, o.success) for o in ctx.outcomes] == [
            ("c", "c", True), ("c", "c", True), ("c", "a", True),
        ]


class TestRunToCompletion:
    def test_second_drain_fires_nothing(self):
        s = builtin_scenario("dual_source")
        inst = start_instance(s)
        ctx = ctx_choosing("find_station", "follow_ir_signal")
        dispatch(inst, "power_low", ctx)
        assert dispatch(inst, AUTO, ctx) == []

    def test_determinism_same_seed_same_records(self):
        s = builtin_scenario("dual_source")
        events = ["power_low", "lost", "no_signal", "found", "located"]

        def run(seed):
            inst = start_instance(s)
            rng = random.Random(seed)
            ctx = StaticContext(chooser=lambda node, opts: rng.choice(opts))
            out = []
            for e in events:
                if inst.status != STATUS_RUNNING:
                    break
                try:
                    out.extend(dispatch(inst, e, ctx))
                except Exception:
                    break
            return out

        assert run(99) == run(99)

    def test_exactly_one_active_leaf_while_running(self):
        s = builtin_scenario("dual_source")
        inst = start_instance(s)
        ctx = ctx_choosing("find_wireless_power", "poll_power_beacon")
        for event in ("power_low", "found", "located"):
            dispatch(inst, event, ctx)
            if inst.status == STATUS_RUNNING:
                path = inst.active_path()
                assert len(path) >= 2
                assert inst.leaf_state_name() == path[-1]


class TestTransitionRecord:
    def test_fields_and_defaults(self):
        params = inspect.signature(TransitionRecord).parameters
        assert list(params) == ["step", "from_path", "to_path", "trigger", "chosen_option", "note"]
        assert {k: p.default for k, p in params.items() if p.default is not p.empty} == {
            "chosen_option": None, "note": None,
        }

    def test_repr_names_every_field(self):
        rec = TransitionRecord(3, ("top", "a"), ("top", "b"), "go")
        assert repr(rec) == (
            "TransitionRecord(step=3, from_path=('top', 'a'), to_path=('top', 'b'), "
            "trigger='go', chosen_option=None, note=None)"
        )
        assert rec == TransitionRecord(
            step=3, from_path=("top", "a"), to_path=("top", "b"), trigger="go"
        )

    def test_immutable(self):
        rec = TransitionRecord(3, ("top", "a"), ("top", "b"), "go")
        with pytest.raises(AttributeError):
            rec.step = 4
        with pytest.raises(AttributeError):
            rec.note = "x"
        assert hash(rec) == hash(TransitionRecord(3, ("top", "a"), ("top", "b"), "go"))


def _rebuilt(inst):
    """The active path as the frames spell it out."""
    if inst.status == STATUS_EXITED:
        return (inst.machine.name,)
    return (inst.machine.name, *[f.state for f in inst.frames])


class TestCachedPath:
    """The one cached path tuple matches the frames wherever it is read."""

    @settings(max_examples=150, deadline=None)
    @given(scenario_seed=st.integers(0, 10**6), drive_seed=st.integers(0, 10**6))
    def test_matches_the_frames_on_generated_machines(self, scenario_seed, drive_seed):
        scenario = random_scenario(scenario_seed)
        rng = random.Random(drive_seed)
        events = sorted(scenario.event_vocabulary()) + [AUTO] * 3
        guards = sorted({g for g in _GUARDS if g})
        ctx = StaticContext(chooser=lambda node, options: rng.choice(options))
        inst = start_instance(scenario)
        assert inst.active_path() == list(_rebuilt(inst))

        last = {}  # the rebuilt path and innermost machine as the last record left them
        seen = []  # per record built: (rebuilt path before, after, machine before)

        def mark():
            last["path"] = _rebuilt(inst)
            last["machine"] = inst.frames[-1].machine if inst.frames else None

        def record(*args, **kwargs):
            was, machine = last["path"], last["machine"]
            mark()
            seen.append((was, last["path"], machine))
            return real_record(*args, **kwargs)

        real_record = statemachine.TransitionRecord
        with mock.patch.object(statemachine, "TransitionRecord", record):
            for _ in range(rng.randint(1, 25)):
                if inst.status != STATUS_RUNNING and rng.random() < 0.7:
                    inst = start_instance(scenario)
                ctx.guards = {g: rng.random() < 0.5 for g in guards}
                seen.clear()
                mark()
                try:
                    records = dispatch(inst, rng.choice(events), ctx)
                except MachineStuckError as exc:
                    assert exc.path == _rebuilt(inst)
                    break
                assert inst.active_path() == list(_rebuilt(inst))
                assert len(records) == len(seen)
                for rec, (was, now, machine) in zip(records, seen):
                    assert rec.from_path == was
                    if rec.note is not None:
                        assert rec.to_path == was == now
                    elif len(now) < len(was):
                        # an exit crossing: the outer path, then the exit's name
                        assert rec.to_path[:-1] == now
                        assert machine.exit_tag(rec.to_path[-1]) is not None
                    else:
                        assert rec.to_path == now
