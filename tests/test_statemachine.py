import inspect
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim import statemachine
from foragesim.scenario import (
    MachineDef,
    ScenarioDef,
    StateDef,
    TransitionDef,
    declared,
    parse_scenario,
    parse_scenario_checked,
)
from foragesim.scenarios import builtin_scenario
from foragesim.statemachine import (
    AUTO,
    STATUS_EXITED,
    STATUS_FINALIZED,
    STATUS_RUNNING,
    MachineInstance,
    MachineStuckError,
    PursuitOutcome,
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

    def test_final_state_of_a_sub_machine_does_not_finalize(self):
        s = parse_scenario("[machine top entry]\ninitial -> s\nsubmachine s = inner -> b on done\nstate b\n"
                           "[machine inner]\ninitial -> g\nstate g -> f on go, exit.done on leave\nfinal f\n"
                           "exit done (success)\n")
        inst = start_instance(s)
        dispatch(inst, "go")
        assert (inst.active_path(), inst.status) == (["top", "s", "f"], STATUS_RUNNING)

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


# validates with one warning: `a` handles the exit that `sub` crosses only
# while powerLow holds
CONDITIONAL_EXIT = """
[machine top entry]
initial -> a
submachine a = sub -> b on located if powerLow
state b

[machine sub]
initial -> follow_ir_signal
state follow_ir_signal -> exit.located on located
exit located (success)
"""


class TestConditionalExit:
    def test_handled_while_the_guard_holds(self):
        inst = start_instance(parse_scenario(CONDITIONAL_EXIT))
        records = dispatch(inst, "located", StaticContext(guards={"powerLow": True}))
        assert [r.to_path for r in records] == [("top", "a", "located"), ("top", "b")]

    def test_false_guard_leaves_the_exit_unhandled(self):
        inst = start_instance(parse_scenario(CONDITIONAL_EXIT))
        with pytest.raises(MachineStuckError) as info:
            dispatch(inst, "located", StaticContext(guards={"powerLow": False}, step=9))
        assert str(info.value) == "exit 'located' not handled by state 'a'"
        assert (info.value.step, info.value.path, info.value.event) == (9, ("top", "a"), "located")


def _top(*states):
    return MachineDef("top", "a", states=states, is_entry=True)


def _arm(target):
    return StateDef("a", transitions=(TransitionDef("go", target),))


class TestResolution:
    """A scenario is resolved at its first start: what `validate` would reject
    in a hand-built one fails there, naming the machine and the state, before
    any dispatch."""

    BASE = parse_scenario("[machine top entry]\ninitial -> a\nstate a -> a on go\n")

    @pytest.mark.parametrize("machines, message", [
        ((_top(_arm("nowhere")),), "machine 'top', state 'a': undefined state 'nowhere'"),
        ((_top(_arm("exit.done")),), "machine 'top', state 'a': machine 'top' has no exit 'done'"),
        ((_top(_arm("final")),), "machine 'top', state 'a': machine 'top' has no final state"),
        ((_top(StateDef("a", kind="composite", machine="ghost")),),
         "machine 'top', state 'a': undefined machine 'ghost'"),
        ((_top(StateDef("a")), MachineDef("spare", "missing")), "machine 'spare': undefined state 'missing'"),
        # each machine's initial state enters the other: entering either never reaches a leaf
        ((_top(StateDef("a", kind="composite", machine="b")),
          MachineDef("b", "t", states=(StateDef("t", kind="composite", machine="top"),))),
         "machine 'top', state 'a': cannot enter machine 'b', whose initial states never reach a leaf"),
    ], ids=["undefined_state", "undeclared_exit", "no_final_state", "undefined_machine",
            "undefined_initial", "composition_cycle"])
    def test_start_names_the_machine_and_the_state(self, machines, message):
        scenario = self.BASE._replace(machines=machines)
        with pytest.raises(ValueError) as info:
            start_instance(scenario)
        assert str(info.value) == message

    def test_final_target_enters_the_first_final_state(self):
        scenario, diags = parse_scenario_checked(
            "[machine top entry]\ninitial -> a\nstate a -> final on go\nfinal Done\nfinal Other\n")
        assert "ambiguous 'final' target; name the final state" in [d.message for d in diags]
        inst = start_instance(scenario)
        assert dispatch(inst, "go")[0].to_path == ("top", "Done")
        assert inst.status == STATUS_FINALIZED

    def test_a_copy_resolves_afresh(self):
        scenario = self.BASE
        start_instance(scenario)
        broken = scenario._replace(machines=(_top(_arm("nowhere")),))
        with pytest.raises(ValueError, match="undefined state 'nowhere'"):
            start_instance(broken)
        assert start_instance(scenario).active_path() == ["top", "a"]

    def test_the_first_declaration_of_a_name_wins(self):
        """A repeated state, exit or machine name resolves to its first
        declaration, and `-> final` to the first final state."""
        scenario, diags = parse_scenario_checked(
            "[machine top entry]\ninitial -> a\nstate a -> c on go\nstate a -> t on go\nchoice c : s | t\n"
            "submachine s = sub -> t on x\nstate t -> final on go\nfinal Done\nfinal Other\n"
            "[machine sub]\ninitial -> p\nstate p -> exit.x on go\nexit x (success)\nexit x (failure)\n"
            "[machine sub]\ninitial -> q\nstate q -> exit.x on go\nexit x (failure)\n")
        assert {"duplicate state name 'a'", "duplicate exit name 'x'",
                "duplicate machine name 'sub'"} <= {d.message for d in diags}
        inst, ctx = start_instance(scenario), StaticContext()
        dispatch(inst, "go", ctx)
        assert inst.active_path() == ["top", "s", "p"]
        dispatch(inst, "go", ctx)
        assert inst.active_path() == ["top", "t"]
        assert ctx.outcomes == [PursuitOutcome("c", "s", True)]
        dispatch(inst, "go", ctx)
        assert inst.active_path() == ["top", "Done"] and inst.status == STATUS_FINALIZED

    def test_no_name_is_looked_up_while_running(self):
        """After the first start, which reads each machine's names once,
        dispatches through a choice, both exits, `-> final` and restarts read
        only the resolved states."""
        scenario = builtin_scenario("station_only")._replace()  # not yet resolved
        script = ["power_low", "located", "waitTimer_expired", "power_low", AUTO, "lost",
                  "power_lower", "located", "waitTimer_expired", "power_low"]

        def drive():
            inst = start_instance(scenario)
            ctx = ctx_choosing("follow_ir_signal", "follow_track_path", "follow_ir_signal")
            records = []
            for event in script:
                records.append(dispatch(inst, event, ctx))
                if inst.status != STATUS_RUNNING:
                    inst = start_instance(scenario)
            return records, ctx.outcomes

        read = []

        def counting(machine):
            read.append(machine.name)
            return declared(machine)

        with mock.patch.object(statemachine, "declared", counting):
            expected = drive()
        assert read == [m.name for m in scenario.machines]
        triggers = {r.trigger for rs in expected[0] for r in rs}
        assert {"choice", "located", "lost_signal_track", "waitTimer_expired"} <= triggers
        assert ("top", "Final") in {r.to_path for rs in expected[0] for r in rs}

        def refuse(*args, **kwargs):
            raise AssertionError("a name was looked up")

        with mock.patch.object(statemachine, "declared", refuse), \
                mock.patch.multiple(ScenarioDef, event_vocabulary=refuse):
            assert drive() == expected
            with pytest.raises(AssertionError, match="a name was looked up"):
                start_instance(scenario._replace())  # a copy resolves, through the lookups


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
    return (inst.machine.name, *[f.name for f in inst.frames])


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
                        assert rec.to_path[-1] in declared(machine)[1]
                    else:
                        assert rec.to_path == now


class _CallLog(StaticContext):
    """A context that logs each `choose` and `outcome` call with the active
    path at the call, and checks that path against the frames."""

    def __init__(self, rng):
        super().__init__(chooser=lambda node, options: rng.choice(options))
        self.inst = None
        self.calls = []

    def choose(self, node, options):
        chosen = super().choose(node, options)
        self.calls.append(("choose", node, chosen, self._path()))
        return chosen

    def outcome(self, node, option, success):
        super().outcome(node, option, success)
        self.calls.append(("outcome", node, option, success, self._path()))

    def _path(self):
        assert self.inst.path == _rebuilt(self.inst)
        return self.inst.path


class TestRecordFreeDispatch:
    """`dispatch(..., records=False)` runs the same loop as `dispatch`: the
    same machine afterwards, the same calls on the context, the same error,
    and no record built."""

    @staticmethod
    def _state(inst):
        return (list(inst.frames), [list(p) for p in inst.pursuits], inst.status, inst.path)

    @settings(max_examples=200, deadline=None)
    @given(
        scenario_seed=st.integers(0, 10**6), drive_seed=st.integers(0, 10**6),
        # generated machines seldom cross an exit with a pursuit open; the
        # built-ins do it on every choice that succeeds or fails
        builtin=st.sampled_from([None, None, "dual_source", "station_only", "wireless_only"]),
    )
    def test_same_machine_calls_and_errors_as_dispatch(self, scenario_seed, drive_seed, builtin):
        scenario = random_scenario(scenario_seed) if builtin is None else builtin_scenario(builtin)
        rng = random.Random(drive_seed)
        events = sorted(scenario.event_vocabulary()) + [AUTO] * 3 + ["never_declared"]
        guards = sorted({g for g in _GUARDS if g})
        # each side chooses by its own rng of one seed, so the two choose alike
        both = [_CallLog(random.Random(drive_seed)) for _ in range(2)]
        for ctx in both:
            ctx.inst = start_instance(scenario)

        def built(*args, **kwargs):
            raise AssertionError("a record-free dispatch built a record")

        for step in range(rng.randint(1, 25)):
            if both[0].inst.status != STATUS_RUNNING and rng.random() < 0.7:
                for ctx in both:
                    ctx.inst = start_instance(scenario)
            # mostly an event some active state has an arm on, so that exits are crossed
            armed = sorted({e for frame in both[0].inst.frames for e in frame.arms})
            event = rng.choice(armed if armed and rng.random() < 0.8 else events)
            flags = {g: rng.random() < 0.5 for g in guards}
            outs = []
            for ctx, records in zip(both, (True, False)):
                ctx.guards, ctx.step = flags, step
                try:
                    if records:
                        out = dispatch(ctx.inst, event, ctx)
                    else:
                        with mock.patch.object(statemachine, "TransitionRecord", built):
                            out = dispatch(ctx.inst, event, ctx, records=False)
                except (MachineStuckError, UnknownEventError) as exc:
                    out = (type(exc), str(exc), getattr(exc, "step", None),
                           getattr(exc, "path", None), getattr(exc, "event", None))
                outs.append(out)
            if type(outs[0]) is tuple:
                assert outs[0] == outs[1]
                if outs[0][0] is MachineStuckError:
                    assert outs[0][3] == _rebuilt(both[0].inst)
            else:
                assert outs[1] == []
            assert both[0].calls == both[1].calls
            assert self._state(both[0].inst) == self._state(both[1].inst)
            assert both[1].inst.path == _rebuilt(both[1].inst)
            if type(outs[0]) is tuple and outs[0][0] is MachineStuckError:
                break

    def test_a_finished_machine_returns_no_record(self):
        inst = start_instance(builtin_scenario("dual_source"))
        inst.status = STATUS_EXITED
        assert dispatch(inst, AUTO, records=False) == []
        assert [rec.note for rec in dispatch(inst, AUTO)] == ["ignored: machine exited"]
