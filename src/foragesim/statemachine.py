"""Hierarchical state machines with run-to-completion dispatch.

A scenario is resolved once, at its first start, so that nothing looks a
name up while a machine runs; a composite state then holds its machine's
initial state. An instance keeps a stack of frames, one per nesting level,
and enters a composite state one frame per level, down to a leaf.
Dispatching an event fires it at the innermost active state, then drains
until quiescent: an exit just crossed first, then a choice node the
innermost frame rests on (resolved through the context once per entry: a
choice node has no arms, so a frame leaves one only by its choice), then
`auto` completion transitions. Crossing a machine exit concludes the
pursuits opened by choice nodes along the way and reports their outcome,
tagged success or failure, through the context.

The active path (the machine's name, then each frame's state) is a function
of the frames, built as one tuple when it is first read after they change and
shared by every record and error that names it until they change again.
`dispatch` reports each transition as a `TransitionRecord`, a NamedTuple; a
caller that reads none passes `records=False`, and the same loop then builds
no record and no path that only a record would read.
"""

from __future__ import annotations

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
    declared,
    machines_by_name,
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
    """The drain loop could not make legal progress: an exit whose composite
    handles it only under a guard that is false, or no quiescence.

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


class _State:
    """A state of `machine` with its names resolved: `arms` maps an event to
    its (guard, target) pairs in declaration order, a target being a `_State`
    or an exit's (name, success); a choice node's `targets` map its `options`
    to states; a composite holds the initial state of its machine as `inner`,
    which entering it enters in turn."""

    __slots__ = ("name", "kind", "machine", "options", "arms", "targets", "inner")

    def __init__(self, machine: MachineDef, sdef: StateDef):
        self.name, self.kind, self.machine, self.options = sdef.name, sdef.kind, machine, sdef.options
        self.arms, self.targets, self.inner = {}, {}, None


def _resolve(scenario: ScenarioDef) -> dict[str, _State]:
    """Each machine's initial state by name, and every state reachable from one,
    resolved through `declared` once per machine name: the first declaration of
    a name wins, a machine's too (`machines_by_name`, which `validate` reads
    by as well). A failure names the machine and state."""
    # machine name -> (machine, states, exit tags, finals)
    index = {name: (m, *declared(m)) for name, m in machines_by_name(scenario.machines).items()}
    resolved: dict[tuple[str, str], _State] = {}
    todo: list[tuple[_State, StateDef]] = []

    def state(mdef: MachineDef, name: str, where: str) -> _State:
        st = resolved.get((mdef.name, name))
        if st is None:
            sdef = index[mdef.name][1].get(name)
            if sdef is None:
                raise ValueError(f"{where}: undefined state '{name}'")
            st = resolved[mdef.name, name] = _State(mdef, sdef)
            todo.append((st, sdef))
        return st

    initials = {name: state(m, m.initial, f"machine '{name}'") for name, (m, *_) in index.items()}
    composites: list[_State] = []
    for st, sdef in todo:  # `state` appends to `todo` while it is walked
        mdef, _, exits, finals = index[st.machine.name]
        where = f"machine '{mdef.name}', state '{st.name}'"
        for tr in sdef.transitions:
            if tr.target.startswith(EXIT_PREFIX):
                name = tr.target[len(EXIT_PREFIX):]
                if name not in exits:
                    raise ValueError(f"{where}: machine '{mdef.name}' has no exit '{name}'")
                target = (name, exits[name] == TAG_SUCCESS)
            elif tr.target == TARGET_FINAL:
                if not finals:
                    raise ValueError(f"{where}: machine '{mdef.name}' has no final state")
                target = state(mdef, finals[0], where)
            else:
                target = state(mdef, tr.target, where)
            st.arms.setdefault(tr.event, []).append((tr.guard, target))
        st.targets = {option: state(mdef, option, where) for option in sdef.options}
        if st.kind == KIND_COMPOSITE:
            if sdef.machine not in initials:
                raise ValueError(f"{where}: undefined machine '{sdef.machine}'")
            st.inner = initials[sdef.machine]
            composites.append(st)
    leafward: set[_State] = set()  # composites whose entry is known to reach a leaf
    for st in composites:
        chain, below = {st}, st.inner
        while below.kind == KIND_COMPOSITE and below not in leafward:
            if below in chain:  # the initial states enter each other, and no leaf
                raise ValueError(f"machine '{st.machine.name}', state '{st.name}': cannot enter machine "
                                 f"'{st.inner.machine.name}', whose initial states never reach a leaf")
            chain.add(below)
            below = below.inner
        leafward |= chain
    return initials


def _enabled(st: _State, event: str, ctx):
    """The target of the first arm of `st` on `event` whose guard holds, or None."""
    for guard, target in st.arms.get(event, ()):
        if guard is None or ctx.guard(guard):
            return target
    return None


class MachineInstance:
    """Active configuration of one (possibly nested) machine."""

    def __init__(self, events: frozenset[str], initial: _State):
        self.events, self.machine, self.status = events, initial.machine, STATUS_RUNNING
        # the active state per nesting level, and the (node, option) pursuits
        # that the choice nodes of its machine have opened
        self.frames, self.pursuits = [initial], [[]]
        self._rest(initial)

    # -- inspection ---------------------------------------------------------

    @property
    def path(self) -> tuple[str, ...]:
        """The machine's name, then each frame's state: built when first read
        after the frames change."""
        path = self._path
        if path is None:
            path = self._path = (self.machine.name, *[st.name for st in self.frames])
        return path

    def active_path(self) -> list[str]:
        return list(self.path)

    def leaf_state_name(self) -> str | None:
        return self.frames[-1].name if self.frames else None

    def quiescent(self, ctx) -> bool:
        """True when dispatching `auto` under `ctx` now would fire nothing:
        the machine runs, the innermost state is not a choice node, and none
        of its `auto` arms is enabled."""
        if self.status != STATUS_RUNNING:
            return False
        st = self.frames[-1]
        return st.kind != KIND_CHOICE and _enabled(st, AUTO, ctx) is None

    # -- dispatch -----------------------------------------------------------

    def _rest(self, st: _State) -> None:
        """Make `st` the innermost active state and enter it down to a leaf, one
        frame per level."""
        frames = self.frames
        frames[-1] = st
        self._path = None
        while st.kind == KIND_COMPOSITE:
            st = st.inner
            frames.append(st)
            self.pursuits.append([])
        if st.kind == KIND_FINAL and len(frames) == 1:
            self.status = STATUS_FINALIZED

    def _fire(self, target, trigger: str, ctx, records, chosen: str | None = None) -> str | None:
        """Take an arm or a choice, appending its record to `records` unless
        that is None; returns the name of an exit crossed into a frame that has
        to handle it next, else None."""
        if records is not None:
            from_path = self.path
        if type(target) is not tuple:
            self._rest(target)
            if records is not None:
                records.append(TransitionRecord(ctx.step, from_path, self.path, trigger, chosen))
            return None
        exit_name, success = target
        self.frames.pop()
        self._path = None
        for node, option in self.pursuits.pop():
            ctx.outcome(node, option, success)
        if records is not None:
            records.append(TransitionRecord(ctx.step, from_path, self.path + (exit_name,), trigger))
        if not self.frames:
            self.status = STATUS_EXITED
            return None
        composite, pursuits = self.frames[-1].name, self.pursuits[-1]  # choices of it conclude too
        for node, option in pursuits:
            if option == composite:
                ctx.outcome(node, option, success)
        self.pursuits[-1] = [p for p in pursuits if p[1] != composite]
        return exit_name

    def _drain(self, pending: str | None, ctx, records) -> None:
        for _ in range(_DRAIN_LIMIT):
            if self.status != STATUS_RUNNING:
                return
            st, chosen = self.frames[-1], None
            if pending is not None:
                trigger, target = pending, _enabled(st, pending, ctx)
                if target is None:
                    raise MachineStuckError(f"exit '{pending}' not handled by state '{st.name}'")
            elif st.kind == KIND_CHOICE:
                chosen = ctx.choose(st.name, st.options)
                if chosen not in st.options:
                    raise ValueError(f"chooser returned {chosen!r}, not an option of '{st.name}'")
                self.pursuits[-1].append((st.name, chosen))
                trigger, target = TRIGGER_CHOICE, st.targets[chosen]
            else:
                trigger, target = AUTO, _enabled(st, AUTO, ctx)
                if target is None:
                    return
            pending = self._fire(target, trigger, ctx, records, chosen)
        raise MachineStuckError("run-to-completion drain did not quiesce")


def start_instance(scenario: ScenarioDef, machine: str | None = None) -> MachineInstance:
    """Start a machine (the scenario's entry machine by default).

    The active path descends through composite initials and rests there; the
    first dispatch resolves any choice node it stopped on. The first start on
    a scenario resolves it, and raises `ValueError` where that fails.
    """
    # kept on the scenario: every life and restart shares one resolution,
    # and a `_replace` copy resolves afresh
    chart = vars(scenario).get("_chart")
    if chart is None:
        chart = vars(scenario)["_chart"] = (scenario.event_vocabulary(), _resolve(scenario))
    initial = chart[1].get(scenario.entry_machine().name if machine is None else machine)
    if initial is None:
        raise ValueError(f"no machine named '{machine}'")
    return MachineInstance(chart[0], initial)


def dispatch(instance: MachineInstance, event: str, ctx=None, *,
             records: bool = True) -> list[TransitionRecord]:
    """Feed one event and run to completion; returns records in firing order.

    Unknown event names raise; events sent to a finished instance yield a
    single no-op record carrying a note. With `records=False` the run is the
    same, calls on `ctx` included, but it builds no record and returns an
    empty list.
    """
    if ctx is None:
        ctx = StaticContext()
    if instance.status != STATUS_RUNNING:
        note = f"ignored: machine {instance.status}"
        return [TransitionRecord(ctx.step, instance.path, instance.path, event, note=note)] if records else []
    if event != AUTO and event not in instance.events:
        raise UnknownEventError(f"unknown event '{event}'")
    fired: list[TransitionRecord] | None = [] if records else None
    try:
        target = None if event == AUTO else _enabled(instance.frames[-1], event, ctx)
        pending = None if target is None else instance._fire(target, event, ctx, fired)
        instance._drain(pending, ctx, fired)
    except MachineStuckError as exc:
        exc.step, exc.path, exc.event = ctx.step, instance.path, event
        raise
    return fired if records else []
