"""Hierarchical state machines with run-to-completion dispatch.

An instance keeps a stack of frames, one per nesting level; entering a
composite state pushes the referenced machine and descends through its
initial. Dispatching an event processes it at the innermost active state,
then drains until quiescent: pending exit notifications first, then a choice
node the innermost frame rests on (resolved through the context once per
entry: a choice node has no arms, so a frame leaves one only by its choice),
then `auto` completion transitions. Crossing a machine exit concludes the
pursuits opened by choice nodes along the way and reports their outcome,
tagged success or failure, through the context.

The active path (the machine's name, then each frame's state) is held as one
tuple, set only where the frames change, and shared by every record and
error that names it. Dispatch reports each transition as a `TransitionRecord`,
a NamedTuple.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .scenario import (
    EXIT_PREFIX,
    KIND_CHOICE,
    KIND_COMPOSITE,
    KIND_FINAL,
    RESERVED_EVENT,
    TAG_SUCCESS,
    TARGET_FINAL,
    MachineDef,
    ScenarioDef,
    StateDef,
    TransitionDef,
)

AUTO = RESERVED_EVENT
TRIGGER_CHOICE = "choice"

STATUS_RUNNING = "running"
STATUS_EXITED = "exited"
STATUS_FINALIZED = "finalized"

_DRAIN_LIMIT = 10_000


class UnknownEventError(ValueError):
    """Dispatched event name is not in the scenario's vocabulary."""


class MachineStuckError(RuntimeError):
    """The drain loop could not make legal progress (unhandled exit or no quiescence).

    `dispatch` sets where it happened: the context's `step`, the active state
    `path` when the machine gave up, and the dispatched `event`.
    """

    step: int | None = None
    path: tuple[str, ...] = ()
    event: str | None = None


class TransitionRecord(NamedTuple):
    step: int
    from_path: tuple[str, ...]
    to_path: tuple[str, ...]
    trigger: str
    chosen_option: str | None = None
    note: str | None = None


class PursuitOutcome(NamedTuple):
    node: str
    option: str
    success: bool


class StaticContext:
    """Dispatch context with fixed guards and a scripted chooser.

    The default chooser takes the first option; outcomes are collected on
    `.outcomes` instead of being applied anywhere. Handy for tests and for
    driving machines outside the simulator.
    """

    def __init__(self, guards=None, chooser=None, step: int = 0):
        self.guards = dict(guards or {})
        self._chooser = chooser
        self.step = step
        self.outcomes: list[PursuitOutcome] = []

    def guard(self, name: str) -> bool:
        return bool(self.guards.get(name, False))

    def choose(self, node: str, options: tuple[str, ...]) -> str:
        if self._chooser is not None:
            return self._chooser(node, options)
        return options[0]

    def outcome(self, node: str, option: str, success: bool) -> None:
        self.outcomes.append(PursuitOutcome(node, option, success))


class _Frame:
    __slots__ = ("machine", "state", "pursuits")

    def __init__(self, machine: MachineDef, state: str):
        self.machine, self.state, self.pursuits = machine, state, []  # pursuits: (node, option)


class MachineInstance:
    """Active configuration of one (possibly nested) machine."""

    def __init__(self, scenario: ScenarioDef, machine: MachineDef):
        self.scenario = scenario
        self.machine = machine
        self.status = STATUS_RUNNING
        self.frames: list[_Frame] = []
        self.path: tuple[str, ...] = (machine.name,)
        self.pending_events: deque[str] = deque()

    # -- inspection ---------------------------------------------------------

    def active_path(self) -> list[str]:
        return list(self.path)

    def leaf_state_name(self) -> str | None:
        return self.frames[-1].state if self.frames else None

    def quiescent(self, ctx) -> bool:
        """True when dispatching `auto` under `ctx` now would fire nothing:
        the machine runs, no exit event is pending, the innermost state is not
        a choice node, and none of its `auto` arms is enabled."""
        if self.status != STATUS_RUNNING or self.pending_events:
            return False
        f = self.frames[-1]
        st = f.machine.state(f.state)
        return st is not None and st.kind != KIND_CHOICE and self._enabled(st, AUTO, ctx) is None

    # -- construction -------------------------------------------------------

    def _start(self) -> None:
        self.frames.append(_Frame(self.machine, self.machine.initial))
        self._descend((self.machine.name, self.machine.initial))

    def _descend(self, path: tuple[str, ...]) -> None:
        """Push frames through composite initials; rest at a choice node.

        `path` is the active path of the frames as they stand; it grows with
        each frame pushed and is the instance's `path` when this returns.
        """
        frames = self.frames
        try:
            while True:
                f = frames[-1]
                st = f.machine.state(f.state)
                if st is None:
                    raise MachineStuckError(f"undefined state '{f.state}'")
                if st.kind == KIND_COMPOSITE:
                    inner = self.scenario.machine(st.machine)
                    if inner is None:
                        raise MachineStuckError(f"undefined machine '{st.machine}'")
                    frames.append(_Frame(inner, inner.initial))
                    path += (inner.initial,)
                    continue
                if st.kind == KIND_FINAL and len(frames) == 1:
                    self.status = STATUS_FINALIZED
                return
        finally:
            self.path = path

    # -- dispatch -----------------------------------------------------------

    def _enabled(self, st: StateDef, event: str, ctx) -> TransitionDef | None:
        for tr in st.transitions:
            if tr.event != event:
                continue
            if tr.guard is None or ctx.guard(tr.guard):
                return tr
        return None

    def _enter(self, state: str, trigger: str, ctx, records, chosen: str | None = None) -> None:
        from_path = self.path
        self.frames[-1].state = state
        self._descend(from_path[:-1] + (state,))
        records.append(TransitionRecord(ctx.step, from_path, self.path, trigger, chosen))

    def _fire(self, tr: TransitionDef, trigger: str, ctx, records) -> None:
        if tr.target.startswith(EXIT_PREFIX):
            self._cross_exit(tr.target[len(EXIT_PREFIX):], trigger, ctx, records)
            return
        target = tr.target
        if target == TARGET_FINAL:
            finals = self.frames[-1].machine.final_state_names()
            if not finals:
                raise MachineStuckError(f"machine '{self.frames[-1].machine.name}' has no final state")
            target = finals[0]
        self._enter(target, trigger, ctx, records)

    def _cross_exit(self, exit_name: str, trigger: str, ctx, records) -> None:
        from_path = self.path
        frame = self.frames.pop()
        self.path = from_path[:-1]
        tag = frame.machine.exit_tag(exit_name)
        if tag is None:
            raise MachineStuckError(
                f"machine '{frame.machine.name}' has no exit '{exit_name}'"
            )
        success = tag == TAG_SUCCESS
        for node, option in frame.pursuits:
            ctx.outcome(node, option, success)
        records.append(TransitionRecord(ctx.step, from_path, self.path + (exit_name,), trigger))
        if not self.frames:
            self.status = STATUS_EXITED
            return
        parent = self.frames[-1]
        composite = parent.state
        kept = []
        for node, option in parent.pursuits:
            if option == composite:
                ctx.outcome(node, option, success)
            else:
                kept.append((node, option))
        parent.pursuits = kept
        self.pending_events.append(exit_name)

    def _process_event(self, event: str, ctx, records) -> bool:
        """Try the event at the innermost active state; True when a transition fired."""
        f = self.frames[-1]
        st = f.machine.state(f.state)
        if st is None:
            raise MachineStuckError(f"undefined state '{f.state}'")
        tr = self._enabled(st, event, ctx)
        if tr is None:
            return False
        self._fire(tr, event, ctx, records)
        return True

    def _drain(self, ctx, records) -> None:
        for _ in range(_DRAIN_LIMIT):
            if self.status != STATUS_RUNNING:
                return
            if self.pending_events:
                event = self.pending_events.popleft()
                if not self._process_event(event, ctx, records):
                    f = self.frames[-1]
                    raise MachineStuckError(
                        f"exit '{event}' not handled by state '{f.state}'"
                    )
                continue
            f = self.frames[-1]
            st = f.machine.state(f.state)
            if st.kind == KIND_CHOICE:
                chosen = ctx.choose(st.name, st.options)
                if chosen not in st.options:
                    raise ValueError(
                        f"chooser returned {chosen!r}, not an option of '{st.name}'"
                    )
                f.pursuits.append((st.name, chosen))
                self._enter(chosen, TRIGGER_CHOICE, ctx, records, chosen)
                continue
            tr = self._enabled(st, AUTO, ctx)
            if tr is not None:
                self._fire(tr, AUTO, ctx, records)
                continue
            return
        raise MachineStuckError("run-to-completion drain did not quiesce")


def start_instance(scenario: ScenarioDef, machine: str | MachineDef | None = None) -> MachineInstance:
    """Start a machine (the scenario's entry machine by default).

    The active path descends through composite initials and rests there; the
    first dispatch resolves any choice node it stopped on.
    """
    if machine is None:
        mdef = scenario.entry_machine()
    elif isinstance(machine, MachineDef):
        mdef = machine
    else:
        mdef = scenario.machine(machine)
        if mdef is None:
            raise ValueError(f"no machine named '{machine}'")
    inst = MachineInstance(scenario, mdef)
    inst._start()
    return inst


def dispatch(instance: MachineInstance, event: str, ctx=None) -> list[TransitionRecord]:
    """Feed one event and run to completion; returns records in firing order.

    Unknown event names raise; events sent to a finished instance yield a
    single no-op record carrying a note.
    """
    if ctx is None:
        ctx = StaticContext()
    if instance.status != STATUS_RUNNING:
        path = instance.path
        note = f"ignored: machine {instance.status}"
        return [TransitionRecord(ctx.step, path, path, event, note=note)]
    if event != AUTO and event not in instance.scenario.event_vocabulary():
        raise UnknownEventError(f"unknown event '{event}'")
    records: list[TransitionRecord] = []
    try:
        if event != AUTO:
            instance._process_event(event, ctx, records)
        instance._drain(ctx, records)
    except MachineStuckError as exc:
        exc.step, exc.path, exc.event = ctx.step, instance.path, event
        raise
    return records
