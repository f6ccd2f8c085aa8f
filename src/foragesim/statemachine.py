"""Hierarchical state machines with run-to-completion dispatch.

An instance keeps a stack of frames, one per nesting level; entering a
composite state pushes the referenced machine and descends through its
initial. Dispatching an event processes it at the innermost active state,
then drains until quiescent: pending exit notifications first, then parked
choice nodes (resolved through the context exactly once per entry), then
`auto` completion transitions. Crossing a machine exit concludes the
pursuits opened by choice nodes along the way and reports their outcome,
tagged success or failure, through the context.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class TransitionRecord:
    step: int
    from_path: tuple[str, ...]
    to_path: tuple[str, ...]
    trigger: str
    chosen_option: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class PursuitOutcome:
    node: str
    option: str
    success: bool


class StaticContext:
    """Dispatch context with fixed guards and a scripted chooser.

    The default chooser takes the first option; outcomes are collected on
    `.outcomes` instead of being applied anywhere. Handy for tests and for
    driving machines outside the simulator.
    """

    def __init__(self, guards=None, chooser=None, rng=None, step: int = 0):
        self.guards = dict(guards or {})
        self._chooser = chooser
        self._rng = rng or random.Random(0)
        self.step = step
        self.outcomes: list[PursuitOutcome] = []

    def guard(self, name: str) -> bool:
        return bool(self.guards.get(name, False))

    def choose(self, node: str, options: list[str]) -> str:
        if self._chooser is not None:
            return self._chooser(node, options)
        return options[0]

    def outcome(self, node: str, option: str, success: bool) -> None:
        self.outcomes.append(PursuitOutcome(node, option, success))


@dataclass
class _Frame:
    machine: MachineDef
    state: str
    choice_pending: bool = False
    pursuits: list[tuple[str, str]] = field(default_factory=list)


class MachineInstance:
    """Active configuration of one (possibly nested) machine."""

    def __init__(self, scenario: ScenarioDef, machine: MachineDef):
        self.scenario = scenario
        self.machine = machine
        self.status = STATUS_RUNNING
        self.exit_name: str | None = None
        self.frames: list[_Frame] = []
        self.pending_events: deque[str] = deque()
        self._vocabulary = scenario.event_vocabulary()

    # -- inspection ---------------------------------------------------------

    def active_path(self) -> list[str]:
        if self.status == STATUS_EXITED:
            return [self.machine.name]
        return [self.machine.name] + [f.state for f in self.frames]

    def leaf_state_name(self) -> str | None:
        return self.frames[-1].state if self.frames else None

    # -- construction -------------------------------------------------------

    def _start(self) -> None:
        self.frames.append(_Frame(self.machine, self.machine.initial))
        self._descend()

    def _descend(self) -> None:
        """Push frames through composite initials; park at choice nodes."""
        while True:
            f = self.frames[-1]
            st = f.machine.state(f.state)
            if st is None:
                raise MachineStuckError(f"undefined state '{f.state}'")
            if st.kind == KIND_COMPOSITE:
                inner = self.scenario.machine(st.machine)
                if inner is None:
                    raise MachineStuckError(f"undefined machine '{st.machine}'")
                self.frames.append(_Frame(inner, inner.initial))
                continue
            if st.kind == KIND_CHOICE:
                f.choice_pending = True
            elif st.kind == KIND_FINAL and len(self.frames) == 1:
                self.status = STATUS_FINALIZED
            return

    # -- dispatch -----------------------------------------------------------

    def _enabled(self, st: StateDef, event: str, ctx) -> TransitionDef | None:
        for tr in st.transitions:
            if tr.event != event:
                continue
            if tr.guard is None or ctx.guard(tr.guard):
                return tr
        return None

    def _fire(self, tr: TransitionDef, trigger: str, ctx, records,
              chosen: str | None = None) -> None:
        from_path = tuple(self.active_path())
        f = self.frames[-1]
        if tr.target.startswith(EXIT_PREFIX):
            self._cross_exit(tr.target[len(EXIT_PREFIX):], trigger, from_path, ctx, records)
            return
        if tr.target == TARGET_FINAL:
            finals = f.machine.final_state_names()
            if not finals:
                raise MachineStuckError(f"machine '{f.machine.name}' has no final state")
            f.state = finals[0]
        else:
            f.state = tr.target
        self._descend()
        records.append(
            TransitionRecord(
                step=ctx.step,
                from_path=from_path,
                to_path=tuple(self.active_path()),
                trigger=trigger,
                chosen_option=chosen,
            )
        )

    def _cross_exit(self, exit_name: str, trigger: str,
                    from_path: tuple[str, ...], ctx, records) -> None:
        frame = self.frames.pop()
        tag = frame.machine.exit_tag(exit_name)
        if tag is None:
            raise MachineStuckError(
                f"machine '{frame.machine.name}' has no exit '{exit_name}'"
            )
        success = tag == TAG_SUCCESS
        for node, option in frame.pursuits:
            ctx.outcome(node, option, success)
        records.append(
            TransitionRecord(
                step=ctx.step,
                from_path=from_path,
                to_path=from_path[:-1] + (exit_name,),
                trigger=trigger,
            )
        )
        if not self.frames:
            self.status = STATUS_EXITED
            self.exit_name = exit_name
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
            if f.choice_pending:
                f.choice_pending = False
                chosen = ctx.choose(st.name, list(st.options))
                if chosen not in st.options:
                    raise ValueError(
                        f"chooser returned {chosen!r}, not an option of '{st.name}'"
                    )
                f.pursuits.append((st.name, chosen))
                from_path = tuple(self.active_path())
                f.state = chosen
                self._descend()
                records.append(
                    TransitionRecord(
                        step=ctx.step,
                        from_path=from_path,
                        to_path=tuple(self.active_path()),
                        trigger=TRIGGER_CHOICE,
                        chosen_option=chosen,
                    )
                )
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
        path = tuple(instance.active_path())
        return [
            TransitionRecord(
                step=ctx.step,
                from_path=path,
                to_path=path,
                trigger=event,
                note=f"ignored: machine {instance.status}",
            )
        ]
    if event != AUTO and event not in instance._vocabulary:
        raise UnknownEventError(f"unknown event '{event}'")
    records: list[TransitionRecord] = []
    try:
        if event != AUTO:
            instance._process_event(event, ctx, records)
        instance._drain(ctx, records)
    except MachineStuckError as exc:
        exc.step, exc.path, exc.event = ctx.step, tuple(instance.active_path()), event
        raise
    return records
