"""Scenario definition language: parsing, validation, canonical text output.

A scenario bundles everything one experiment needs: the hierarchical state
machines the robot runs, the grid world it moves in, its energy profile, and
seed weights for the choice nodes. The format is line oriented; `#` starts a
comment and sections open with a bracketed header:

    [machine top entry]
    initial -> seek_charge_source
    state seek_charge_source -> seek on power_low, seek on auto if powerLow
    choice seek : find_wireless_power | find_station
    submachine find_station = find_charging_station -> recharge on located, seek_charge_source on lost_signal_track
    state recharge -> final on waitTimer_expired
    exit located (success)
    final Final

    [world]
    grid = 24 16

    [weights]
    seek.find_wireless_power = 0.8 0.2

Numbers are plain decimals with at most nine fractional digits and no
exponent form, so canonical text round-trips exactly. `auto` is the reserved
completion trigger; guards come from the fixed built-in registry.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields

from .energy import DischargeProfile, EnergyProfile, Thresholds
from .world import BeaconSpec, StationSpec, WorldMap

RESERVED_EVENT = "auto"
TARGET_FINAL = "final"
EXIT_PREFIX = "exit."

GUARD_NAMES = ("isSignalSufficient", "batteryFull", "powerLow", "powerLower")

KIND_SIMPLE = "simple"
KIND_COMPOSITE = "composite"
KIND_CHOICE = "choice"
KIND_FINAL = "final"

TAG_SUCCESS = "success"
TAG_FAILURE = "failure"

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_ID + "$")
_NUMBER_RE = re.compile(r"-?\d+(?:\.(\d+))?$")

_RESERVED_WORDS = frozenset(
    {
        "initial", "state", "submachine", "choice", "exit", "final",
        "on", "if", "entry", "machine", "world", "energy", "weights",
        "success", "failure",
    }
)

# Every [world] and [energy] key, in canonical output order:
#   key -> (section, group, field, shape, bound)
# group "" fills the section's own object (WorldMap, EnergyProfile); any other
# group is the nested object held in the field of that name. A tuple field
# takes a cell apart (grid is a size, not a position). Shapes: num (one
# number), int (one integer), cell (two integers), cells (an even, non-empty
# list of integers). A bound applies to every number of the value.
_KEYS: dict[str, tuple[str, str, str | tuple[str, str], str, str | None]] = {
    "grid": ("world", "", ("width", "height"), "cell", ">0"),
    "robot.start": ("world", "", "robot_start", "cell", None),
    "station.pos": ("world", "station", "pos", "cell", None),
    "station.ir_radius": ("world", "station", "ir_radius", "num", ">0"),
    "station.charge_rate": ("world", "station", "charge_rate", "num", ">=0"),
    "station.track": ("world", "station", "track", "cells", None),
    "track.gap": ("world", "station", "gaps", "cells", None),
    "beacon.pos": ("world", "beacon", "pos", "cell", None),
    "beacon.tx_power": ("world", "beacon", "tx_power", "num", ">=0"),
    "beacon.d0": ("world", "beacon", "d0", "num", ">0"),
    "beacon.resonance_radius": ("world", "beacon", "resonance_radius", "num", ">0"),
    "beacon.poll_radius": ("world", "beacon", "poll_radius", "num", ">0"),
    "beacon.i_min": ("world", "beacon", "i_min", "num", ">=0"),
    "battery_capacity": ("energy", "", "battery_capacity", "num", None),
    "capacitor_capacity": ("energy", "", "capacitor_capacity", "num", None),
    "battery_initial": ("energy", "", "battery_initial", "num", None),
    "capacitor_initial": ("energy", "", "capacitor_initial", "num", None),
    "rate.idle": ("energy", "rates", "idle", "num", ">=0"),
    "rate.move": ("energy", "rates", "move", "num", ">=0"),
    "rate.sense": ("energy", "rates", "sense", "num", ">=0"),
    "rate.process": ("energy", "rates", "process", "num", ">=0"),
    "threshold.low": ("energy", "thresholds", "low_frac", "num", None),
    "threshold.lower": ("energy", "thresholds", "lower_frac", "num", None),
    "gain_min": ("energy", "", "gain_min", "num", None),
    "max_charge_ticks": ("energy", "", "max_charge_ticks", "int", ">=0"),
}

_TARGETS = {
    "world": WorldMap, "station": StationSpec, "beacon": BeaconSpec,
    "energy": EnergyProfile, "rates": DischargeProfile, "thresholds": Thresholds,
}

# (section, group) -> the key that fills the target's field without a default
_REQUIRED = {
    (section, group): key
    for key, (section, group, name, _, _) in _KEYS.items()
    for f in fields(_TARGETS[group or section])
    if f.name in (name if isinstance(name, tuple) else (name,))
    and f.default is MISSING and f.default_factory is MISSING
}

_SHAPE_TEXT = {
    "num": "exactly one number",
    "int": "exactly one integer",
    "cell": "two integer coordinates",
    "cells": "an even list of integer coordinates",
}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


def _error(line: int, message: str, column: int = 1) -> Diagnostic:
    return Diagnostic("error", line, column, message)


def _warning(line: int, message: str, column: int = 1) -> Diagnostic:
    return Diagnostic("warning", line, column, message)


class ScenarioError(Exception):
    """Parse or validation failure; carries the sorted diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(str(d) for d in self.diagnostics[:5])
        if len(self.diagnostics) > 5:
            summary += f"; ... {len(self.diagnostics) - 5} more"
        super().__init__(summary)


@dataclass
class TransitionDef:
    event: str
    target: str  # state name, "exit.NAME", or "final"
    guard: str | None = None
    line: int = field(default=0, compare=False)


@dataclass
class StateDef:
    name: str
    kind: str = KIND_SIMPLE
    machine: str | None = None  # composite only
    options: tuple[str, ...] = ()  # choice only
    transitions: tuple[TransitionDef, ...] = ()
    line: int = field(default=0, compare=False)


@dataclass
class MachineDef:
    name: str
    initial: str
    states: tuple[StateDef, ...] = ()
    exits: tuple[tuple[str, str], ...] = ()  # (exit name, success|failure)
    is_entry: bool = False
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        # built in reverse so that the first declaration of a name wins
        self._states = {st.name: st for st in reversed(self.states)}
        self._exit_tags = dict(reversed(self.exits))

    def state(self, name: str) -> StateDef | None:
        return self._states.get(name)

    def exit_tag(self, name: str) -> str | None:
        return self._exit_tags.get(name)

    def final_state_names(self) -> list[str]:
        return [st.name for st in self.states if st.kind == KIND_FINAL]


@dataclass
class ScenarioDef:
    machines: tuple[MachineDef, ...]
    world: WorldMap
    energy_profile: EnergyProfile
    seed_weights: dict[tuple[str, str], tuple[float, float]]
    name: str = field(default="scenario", compare=False)

    def __post_init__(self) -> None:
        # built in reverse so that the first declaration of a name wins
        self._machines = {m.name: m for m in reversed(self.machines)}
        self._events = frozenset(
            tr.event
            for m in self.machines
            for st in m.states
            for tr in st.transitions
            if tr.event != RESERVED_EVENT
        )

    def machine(self, name: str) -> MachineDef | None:
        return self._machines.get(name)

    def entry_machine(self) -> MachineDef:
        for m in self.machines:
            if m.is_entry:
                return m
        raise ValueError("no entry machine declared")

    def event_vocabulary(self) -> frozenset[str]:
        return self._events


# ---------------------------------------------------------------------------
# parsing


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _parse_number(token: str, lineno: int, diags: list[Diagnostic]) -> float | None:
    m = _NUMBER_RE.match(token)
    if m is None:
        diags.append(_error(lineno, f"bad number {token!r}"))
        return None
    frac = m.group(1)
    if frac is not None and len(frac) > 9:
        diags.append(_error(lineno, f"more than 9 fractional digits in {token!r}"))
        return None
    value = float(token)
    if not math.isfinite(value):  # too large for a double
        diags.append(_error(lineno, f"bad number {token!r}"))
        return None
    return value


def _check_ident(token: str, lineno: int, diags: list[Diagnostic]) -> bool:
    if not _IDENT_RE.match(token):
        diags.append(_error(lineno, f"bad identifier {token!r}"))
        return False
    if token in _RESERVED_WORDS:
        diags.append(_error(lineno, f"reserved word {token!r} used as a name"))
        return False
    return True


_ARM_RE = re.compile(
    rf"^(?P<target>exit\.{_ID}|{_ID})\s+on\s+(?P<event>{_ID})(?:\s+if\s+(?P<guard>{_ID}))?$"
)


def _parse_arms(text: str, lineno: int, diags: list[Diagnostic]) -> tuple[TransitionDef, ...]:
    arms: list[TransitionDef] = []
    for part in text.split(","):
        part = part.strip()
        m = _ARM_RE.match(part)
        if m is None:
            diags.append(_error(lineno, f"bad transition arm {part!r}"))
            continue
        target = m.group("target")
        if target != TARGET_FINAL and not target.startswith(EXIT_PREFIX):
            if not _check_ident(target, lineno, diags):
                continue
        event = m.group("event")
        guard = m.group("guard")
        if event != RESERVED_EVENT and not _check_ident(event, lineno, diags):
            continue
        if guard is not None and not _check_ident(guard, lineno, diags):
            continue
        arms.append(TransitionDef(event=event, target=target, guard=guard, line=lineno))
    return tuple(arms)


class _MachineBuilder:
    def __init__(self, name: str, is_entry: bool, line: int):
        self.name = name
        self.is_entry = is_entry
        self.line = line
        self.initial: str | None = None
        self.states: list[StateDef] = []
        self.exits: list[tuple[str, str]] = []

    def build(self, diags: list[Diagnostic]) -> MachineDef | None:
        if self.initial is None:
            diags.append(_error(self.line, f"machine '{self.name}' has no initial"))
            return None
        return MachineDef(
            name=self.name,
            initial=self.initial,
            states=tuple(self.states),
            exits=tuple(self.exits),
            is_entry=self.is_entry,
            line=self.line,
        )


_HEADER_MACHINE_RE = re.compile(rf"^\[\s*machine\s+(?P<name>{_ID})(?P<entry>\s+entry)?\s*\]$")
_HEADER_PLAIN_RE = re.compile(r"^\[\s*(?P<name>world|energy|weights)\s*\]$")
_KV_RE = re.compile(rf"^(?P<key>{_ID}(?:\.{_ID})*)\s*=\s*(?P<values>.+)$")
_WLINE_RE = re.compile(rf"^(?P<node>{_ID})\.(?P<option>{_ID})\s*=\s*(?P<values>.+)$")

# Every machine statement: word -> (pattern for the rest of the line, kind of
# the state it declares; `initial` and `exit` declare none). The names a
# statement binds are checked in the order name, ref, options.
_STMTS = {
    word: (re.compile(rest + "$"), kind)
    for word, rest, kind in (
        ("initial", rf"->\s*(?P<name>{_ID})", None),
        ("state", rf"(?P<name>{_ID})\s*(?:->\s*(?P<arms>.+))?", KIND_SIMPLE),
        ("submachine", rf"(?P<name>{_ID})\s*=\s*(?P<ref>{_ID})\s*->\s*(?P<arms>.+)", KIND_COMPOSITE),
        ("choice", rf"(?P<name>{_ID})\s*:\s*(?P<options>.+)", KIND_CHOICE),
        ("exit", rf"(?P<name>{_ID})\s*\(\s*(?P<tag>success|failure)\s*\)", None),
        ("final", rf"(?P<name>{_ID})", KIND_FINAL),
    )
}


def parse_scenario(text: str, name: str = "scenario") -> ScenarioDef:
    """Parse and validate DSL source; raises ScenarioError on any error."""
    scenario, diagnostics = parse_scenario_checked(text, name=name)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors or scenario is None:
        raise ScenarioError(errors or diagnostics)
    return scenario


def parse_scenario_checked(
    text: str, name: str = "scenario"
) -> tuple[ScenarioDef | None, list[Diagnostic]]:
    """Parse DSL source, returning the scenario (if buildable) and all diagnostics."""
    diags: list[Diagnostic] = []
    machines: list[_MachineBuilder] = []
    # section -> key -> (value, or None when it was rejected; line)
    given: dict[str, dict[str, tuple[object, int]]] = {"world": {}, "energy": {}}
    weights: dict[tuple[str, str], tuple[float, float]] = {}
    weight_lines: dict[tuple[str, str], int] = {}
    section: str | None = None  # "machine" | "world" | "energy" | "weights"
    current: _MachineBuilder | None = None
    seen_sections: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue

        if line.startswith("["):
            m = _HEADER_MACHINE_RE.match(line)
            if m:
                mname = m.group("name")
                if _check_ident(mname, lineno, diags):
                    current = _MachineBuilder(mname, m.group("entry") is not None, lineno)
                    machines.append(current)
                    section = "machine"
                else:
                    current = None
                    section = None
                continue
            m = _HEADER_PLAIN_RE.match(line)
            if m:
                section = m.group("name")
                if section in seen_sections:
                    diags.append(_error(lineno, f"duplicate [{section}] section"))
                seen_sections.add(section)
                current = None
                continue
            diags.append(_error(lineno, f"bad section header {line!r}"))
            section = None
            current = None
            continue

        if section is None:
            diags.append(_error(lineno, "statement outside any section"))
            continue

        if section == "machine":
            _parse_machine_stmt(line, lineno, current, diags)
        elif section in ("world", "energy"):
            m = _KV_RE.match(line)
            if m is None:
                diags.append(_error(lineno, f"bad key/value line {line!r}"))
                continue
            key = m.group("key")
            values: list[float] = []
            ok = True
            for tok in m.group("values").split():
                v = _parse_number(tok, lineno, diags)
                if v is None:
                    ok = False
                    break
                values.append(v)
            if not ok:
                continue
            if key not in _KEYS or _KEYS[key][0] != section:
                diags.append(_error(lineno, f"unknown {section} key {key!r}"))
                continue
            if key in given[section]:
                diags.append(_error(lineno, f"duplicate key {key!r}"))
                continue
            given[section][key] = (_convert(key, values, lineno, diags), lineno)
        elif section == "weights":
            m = _WLINE_RE.match(line)
            if m is None:
                diags.append(_error(lineno, f"bad weight line {line!r}"))
                continue
            toks = m.group("values").split()
            if len(toks) != 2:
                diags.append(_error(lineno, "weight line needs exactly two numbers"))
                continue
            pair = [_parse_number(t, lineno, diags) for t in toks]
            if None in pair:
                continue
            node, option = m.group("node"), m.group("option")
            key = (node, option)
            if key in weights:
                diags.append(_error(lineno, f"duplicate weight entry {node}.{option}"))
                continue
            weights[key] = (pair[0], pair[1])
            weight_lines[key] = lineno

    built = [b.build(diags) for b in machines]
    machine_defs = tuple(m for m in built if m is not None)
    world = _build_section("world", given["world"], diags)
    if world is not None:
        _check_world(world, given["world"], diags)
    energy = _build_section("energy", given["energy"], diags)

    if any(m is None for m in built) or world is None or energy is None:
        return None, _sorted(diags)

    scenario = ScenarioDef(
        machines=machine_defs,
        world=world,
        energy_profile=energy,
        seed_weights=weights,
        name=name,
    )
    diags.extend(_validate(scenario, weight_lines))
    return scenario, _sorted(diags)


def _parse_machine_stmt(
    line: str, lineno: int, builder: _MachineBuilder | None, diags: list[Diagnostic]
) -> None:
    if builder is None:
        return
    word, *rest = line.split(maxsplit=1)  # any run of whitespace ends the word
    if word not in _STMTS:
        diags.append(_error(lineno, f"unknown statement {word!r}"))
        return
    pattern, kind = _STMTS[word]
    m = pattern.match(rest[0] if rest else "")
    if m is None:
        diags.append(_error(lineno, f"bad {word} statement {line!r}"))
        return
    if word == "initial" and builder.initial is not None:
        diags.append(_error(lineno, f"machine '{builder.name}' has multiple initials"))
        return
    got = m.groupdict()
    name, ref, arms = got["name"], got.get("ref"), got.get("arms")
    options = tuple([o.strip() for o in got["options"].split("|")]) if "options" in got else ()
    for n in (name, ref, *options):
        if n is not None and not _check_ident(n, lineno, diags):
            return
    if word == "initial":
        builder.initial = name
    elif word == "exit":
        builder.exits.append((name, got["tag"]))
    else:
        builder.states.append(StateDef(
            name=name, kind=kind, machine=ref, options=options,
            transitions=_parse_arms(arms, lineno, diags) if arms else (), line=lineno,
        ))


def _convert(key: str, values: list[float], lineno: int, diags: list[Diagnostic]):
    """Read a key's numbers by its shape and check its bound; None after an error."""
    _, _, _, shape, bound = _KEYS[key]
    ints = values if shape == "num" else [int(v) for v in values]
    if shape == "num" and len(values) == 1:
        value = values[0]
    elif shape == "int" and len(ints) == 1 and ints == values:
        value = ints[0]
    elif shape == "cell" and len(ints) == 2 and ints == values:
        value = (ints[0], ints[1])
    elif shape == "cells" and len(ints) % 2 == 0 and ints == values:
        value = tuple(zip(ints[::2], ints[1::2]))
    else:
        diags.append(_error(lineno, f"{key} needs {_SHAPE_TEXT[shape]}"))
        return None
    if bound == ">0" and min(values) <= 0:
        diags.append(_error(lineno, f"{key} must be positive"))
        return None
    if bound == ">=0" and min(values) < 0:
        diags.append(_error(lineno, f"{key} must be non-negative"))
        return None
    return value


def _build_section(section: str, rows: dict[str, tuple[object, int]], diags: list[Diagnostic]):
    """Build a section's object from its given keys; None after an error.

    A nested object is built when one of its keys is given, and every field
    that no key sets keeps its dataclass default. A section without keys is
    the default object (for [world], an empty 8x8 grid).
    """
    if any(value is None for value, _ in rows.values()):
        return None
    if not rows:
        return WorldMap(width=8, height=8) if section == "world" else EnergyProfile()
    kwargs: dict[str, dict] = {"": {}}
    for key, (value, _) in rows.items():
        _, group, name, _, _ = _KEYS[key]
        if isinstance(name, tuple):
            kwargs.setdefault(group, {}).update(zip(name, value))
        else:
            kwargs.setdefault(group, {})[name] = value
    before = len(diags)
    top = kwargs.pop("")
    for group, group_kwargs in kwargs.items():
        top[group] = _make(section, group, group_kwargs, rows, diags)
    if len(diags) > before:
        return None
    return _make(section, "", top, rows, diags)


def _make(section: str, group: str, kwargs: dict, rows: dict, diags: list[Diagnostic]):
    """Build one target. A rejected value is reported at the line of the key its
    message begins with; a missing required key, or a message that names no
    given key, at the group's first line (the section's for its own object)."""

    def line() -> int:
        return next(n for key, (_, n) in rows.items() if not group or _KEYS[key][1] == group)

    required = _REQUIRED.get((section, group))
    if required is not None and required not in rows:
        diags.append(_error(line(), f"{group or section} keys given without {required}"))
        return None
    try:
        return _TARGETS[group or section](**kwargs)
    except ValueError as exc:
        # an EnergyProfile message begins with the field it names, which is its key
        named = rows.get(str(exc).partition(" ")[0])
        diags.append(_error(named[1] if named else line(), str(exc)))
        return None


def _check_world(world: WorldMap, rows: dict[str, tuple[object, int]], diags: list[Diagnostic]) -> None:
    """Positions inside the grid, track shape and gaps, each at its key's line."""
    where: dict[tuple[str, object], tuple[str, int]] = {}
    for key, (value, line) in rows.items():
        _, group, name, shape, _ = _KEYS[key]
        where[group, name] = key, line
        if isinstance(name, tuple) or shape not in ("cell", "cells"):
            continue
        for cell in (value,) if shape == "cell" else value:
            if not world.in_grid(cell):
                diags.append(_error(line, f"{key} cell {cell} is outside the grid"))
    st = world.station
    if st is None:
        return
    if st.track:
        key, line = where["station", "track"]
        if st.track[-1] != st.pos:
            diags.append(_error(line, f"{key} must end at {where['station', 'pos'][0]}"))
        for a, b in zip(st.track, st.track[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                diags.append(_error(line, f"{key} cells {a} and {b} are not adjacent"))
    for cell in st.gaps:
        if cell not in st.track:
            key, line = where["station", "gaps"]
            diags.append(_error(line, f"{key} cell {cell} is not on the track"))


def _sorted(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=lambda d: (d.line, d.column, d.severity, d.message))


# ---------------------------------------------------------------------------
# validation


def _reach(start: str, nexts: dict[str, list[str]]) -> set[str]:
    """The nodes reached from `start` in one or more steps; `nexts` maps a node
    to the nodes one step on, and a node it does not hold ends a path."""
    reached: set[str] = set()
    frontier = [start]
    while frontier:
        for node in nexts.get(frontier.pop(), ()):
            if node not in reached:
                reached.add(node)
                frontier.append(node)
    return reached


def _validate(
    scenario: ScenarioDef, weight_lines: dict[tuple[str, str], int]
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    machines = scenario.machines

    entries = [m for m in machines if m.is_entry]
    if not entries:
        diags.append(_error(1, "no entry machine declared"))
    elif len(entries) > 1:
        for m in entries[1:]:
            diags.append(_error(m.line, f"multiple entry machines: '{m.name}'"))

    seen: dict[str, int] = {}
    for m in machines:
        if m.name in seen:
            diags.append(_error(m.line, f"duplicate machine name '{m.name}'"))
        seen[m.name] = m.line

    by_name = {m.name: m for m in machines}
    options_of: dict[str, set[str]] = {}  # choice node name -> its options, over all machines
    referenced: set[str] = set()

    for m in machines:
        state_names: dict[str, int] = {}
        for st in m.states:
            if st.name in state_names:
                diags.append(_error(st.line, f"duplicate state name '{st.name}'"))
            state_names[st.name] = st.line
        exit_names: dict[str, int] = {}
        for exit_name, _tag in m.exits:
            if exit_name in exit_names:
                diags.append(_error(m.line, f"duplicate exit name '{exit_name}'"))
            if exit_name in state_names:
                diags.append(_error(m.line, f"exit '{exit_name}' clashes with a state name"))
            exit_names[exit_name] = m.line

        finals = m.final_state_names()
        if m.state(m.initial) is None:
            diags.append(_error(m.line, f"unresolved reference '{m.initial}'"))

        for st in m.states:
            if st.kind == KIND_CHOICE:
                options_of.setdefault(st.name, set()).update(st.options)
                if len(st.options) < 2:
                    diags.append(_error(st.line, "choice requires >=2 options"))
                dup = {o for o in st.options if st.options.count(o) > 1}
                for o in sorted(dup):
                    diags.append(_error(st.line, f"duplicate choice option '{o}'"))
                for o in st.options:
                    if o not in state_names:
                        diags.append(_error(st.line, f"unresolved reference '{o}'"))
            if st.kind == KIND_COMPOSITE:
                referenced.add(st.machine)
                inner = by_name.get(st.machine)
                if inner is None:
                    diags.append(_error(st.line, f"unresolved reference '{st.machine}'"))
                else:
                    handled = {tr.event for tr in st.transitions}
                    unconditional = {tr.event for tr in st.transitions if tr.guard is None}
                    inner_exits = {name for name, _ in inner.exits}
                    for tr in st.transitions:
                        if tr.event not in inner_exits:
                            diags.append(
                                _error(
                                    tr.line,
                                    f"arm event '{tr.event}' is not an exit of machine '{inner.name}'",
                                )
                            )
                    for exit_name in sorted(inner_exits - handled):
                        diags.append(
                            _error(
                                st.line,
                                f"exit '{exit_name}' of machine '{inner.name}' is not handled",
                            )
                        )
                    for exit_name in sorted((inner_exits & handled) - unconditional):
                        diags.append(
                            _warning(
                                st.line,
                                f"exit '{exit_name}' of machine '{inner.name}' is handled only conditionally",
                            )
                        )
                    if not inner.exits:
                        diags.append(
                            _error(st.line, f"machine '{inner.name}' is used as a sub-machine but declares no exit")
                        )
            for tr in st.transitions:
                if tr.guard is not None and tr.guard not in GUARD_NAMES:
                    diags.append(_error(tr.line, f"unknown guard '{tr.guard}'"))
                if tr.target.startswith(EXIT_PREFIX):
                    if tr.target[len(EXIT_PREFIX):] not in exit_names:
                        diags.append(
                            _error(tr.line, f"unresolved reference '{tr.target}'")
                        )
                elif tr.target == TARGET_FINAL:
                    if not finals:
                        diags.append(
                            _error(tr.line, f"machine '{m.name}' has no final state")
                        )
                    elif len(finals) > 1:
                        diags.append(
                            _error(tr.line, "ambiguous 'final' target; name the final state")
                        )
                else:
                    if tr.target not in state_names:
                        diags.append(
                            _error(tr.line, f"unresolved reference '{tr.target}'")
                        )

        # reachability inside this machine; a `final` target is the first final state
        if m.state(m.initial) is not None:
            final = {TARGET_FINAL: finals[0]} if finals else {}
            nexts = {  # in reverse, so that the first declaration of a name wins
                st.name: [*st.options, *(final.get(tr.target, tr.target) for tr in st.transitions)]
                for st in reversed(m.states)
            }
            reached = {m.initial} | _reach(m.initial, nexts)
            for st in m.states:
                if st.name not in reached:
                    diags.append(_warning(st.line, f"unreachable state '{st.name}'"))

    # composition must be acyclic
    colors: dict[str, int] = {}

    def visit(name: str, stack: list[str]) -> None:
        colors[name] = 1
        m = by_name.get(name)
        if m is not None:
            for st in m.states:
                if st.kind == KIND_COMPOSITE and st.machine in by_name:
                    if colors.get(st.machine, 0) == 1:
                        cycle = " -> ".join(stack + [name, st.machine])
                        diags.append(
                            _error(st.line, f"machine composition cycle: {cycle}")
                        )
                    elif colors.get(st.machine, 0) == 0:
                        visit(st.machine, stack + [name])
        colors[name] = 2

    for m in machines:
        if colors.get(m.name, 0) == 0:
            visit(m.name, [])

    _check_auto_cycles(machines, by_name, diags)

    for m in machines:
        if not m.is_entry and m.name not in referenced:
            diags.append(_warning(m.line, f"machine '{m.name}' is never used"))

    for (node, option), (w_pos, w_neg) in scenario.seed_weights.items():
        line = weight_lines[node, option]
        if not (0.0 <= w_pos <= 1.0 and 0.0 <= w_neg <= 1.0):
            diags.append(_error(line, f"weight out of [0,1] for {node}.{option}"))
        if node not in options_of:
            diags.append(_warning(line, f"weight {node}.{option}: '{node}' is not a choice node"))
        elif option not in options_of[node]:
            diags.append(
                _warning(line, f"weight {node}.{option}: '{option}' is not an option of '{node}'")
            )

    return diags


def _check_auto_cycles(
    machines: tuple[MachineDef, ...], by_name: dict[str, MachineDef], diags: list[Diagnostic]
) -> None:
    """Report cycles among the moves a run-to-completion drain makes without
    an event: `auto` arms, choice options, and a sub-machine that crosses an
    exit as soon as it is entered, into the composite's arm for that exit.

    A move is certain when it is a state's first `auto` arm and unguarded, or
    the first arm for an exit its sub-machine always crosses at once, and
    unguarded. A cycle of certain moves never settles; any other cycle
    settles only if a guard or a choice breaks it. Each is a warning at the
    line of the cycle's first arm; a drain that does turn forever raises
    `MachineStuckError` when the scenario runs.
    """
    graphs: dict[str, dict[str, list[tuple[str, int, bool]]]] = {}
    summaries: dict[str, tuple[set[str], str | None]] = {}

    def graph(m: MachineDef) -> dict[str, list[tuple[str, int, bool]]]:
        """Each state that has moves -> its moves (target, line, certain); a
        target is a state, a final or `exit.X`."""
        moves = graphs.get(m.name)
        if moves is None:
            moves = graphs[m.name] = {}
            for st in m.states:
                if st.kind == KIND_CHOICE:
                    moves[st.name] = [(o, st.line, False) for o in st.options]
                elif st.kind == KIND_COMPOSITE:
                    crossed, certain_exit = summary(st.machine)
                    if crossed:
                        firsts: dict[str, TransitionDef] = {}
                        moves[st.name] = [
                            (tr.target, tr.line, tr.event == certain_exit
                             and firsts.setdefault(tr.event, tr) is tr and tr.guard is None)
                            for tr in st.transitions if tr.event in crossed
                        ]
                else:
                    for tr in st.transitions:
                        if tr.event == RESERVED_EVENT:
                            autos = moves.setdefault(st.name, [])
                            autos.append((tr.target, tr.line, not autos and tr.guard is None))
        return moves

    def certain_walk(moves, state: str | None, stop) -> tuple[list[str], str | None]:
        """The states passed on certain moves from `state`, and the first one not passed."""
        path: list[str] = []
        while state in moves and state not in stop and state not in path:
            path.append(state)
            state = next((t for t, _, certain in moves[state] if certain), None)
        return path, state

    def summary(name: str) -> tuple[set[str], str | None]:
        """Exits machine `name` may cross at once from its initial, and the one it always crosses."""
        if name not in summaries:
            summaries[name] = (set(), None)  # stands in while a composition cycle recurses
            m = by_name.get(name)
            moves = {} if m is None else graph(m)
            if any(t.startswith(EXIT_PREFIX) for ms in moves.values() for t, _, _ in ms):
                reached = _reach(m.initial, {s: [t for t, _, _ in ms] for s, ms in moves.items()})
                _, end = certain_walk(moves, m.initial, ())
                summaries[name] = (
                    {t[len(EXIT_PREFIX):] for t in reached if t.startswith(EXIT_PREFIX)},
                    end[len(EXIT_PREFIX):] if end is not None and end.startswith(EXIT_PREFIX) else None,
                )
        return summaries[name]

    for m in machines:
        moves = graph(m)
        # a cycle needs a move back to a state declared no later than its own
        order = {state: i for i, state in enumerate(moves)}
        if all(order.get(t, i + 1) > i for i, ms in enumerate(moves.values()) for t, _, _ in ms):
            continue

        never_settles: set[str] = set()
        done: set[str] = set()
        for start in moves:
            path, state = certain_walk(moves, start, done)
            done.update(path)
            if state in path:
                cycle = path[path.index(state):]
                never_settles.update(cycle)
                line = min(ln for s in cycle for t, ln, certain in moves[s] if certain)
                names = " -> ".join(cycle + [cycle[0]])
                diags.append(_warning(line, f"unguarded auto cycle {names} never settles"))

        nexts = {s: [t for t, _, _ in ms] for s, ms in moves.items()}
        reach = {start: _reach(start, nexts) for start in moves}
        warned: set[str] = set()
        for state in moves:
            if state in warned or state not in reach[state]:
                continue
            loop = [s for s in moves if s in reach[state] and state in reach[s]]
            warned.update(loop)
            if never_settles.isdisjoint(loop):
                line = min(ln for s in loop for t, ln, _ in moves[s] if t in loop)
                diags.append(
                    _warning(line, f"auto cycle through {', '.join(loop)} may never settle")
                )


# ---------------------------------------------------------------------------
# serialization


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    text = f"{v:.9f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _fmt_cell(cell) -> str:
    return f"{cell[0]} {cell[1]}"


def _fmt_arm(tr: TransitionDef) -> str:
    arm = f"{tr.target} on {tr.event}"
    if tr.guard is not None:
        arm += f" if {tr.guard}"
    return arm


def _section_lines(section: str, obj) -> list[str]:
    """The [world] or [energy] section of `obj` in table order; empty cell lists are left out."""
    lines = [f"[{section}]"]
    for key, (sec, group, name, shape, _) in _KEYS.items():
        if sec != section:
            continue
        target = getattr(obj, group) if group else obj
        if target is None:  # no station, or no beacon
            continue
        if isinstance(name, tuple):
            value = tuple(getattr(target, n) for n in name)
        else:
            value = getattr(target, name)
        if shape == "num":
            lines.append(f"{key} = {_fmt_num(value)}")
        elif shape == "int":
            lines.append(f"{key} = {value}")
        elif shape == "cell":
            lines.append(f"{key} = {_fmt_cell(value)}")
        elif value:
            cells = sorted(value) if isinstance(value, frozenset) else value
            lines.append(f"{key} = " + " ".join(_fmt_cell(c) for c in cells))
    return lines


def serialize_scenario(scenario: ScenarioDef) -> str:
    """Render canonical DSL text; parsing it back yields an equal scenario."""
    lines: list[str] = []
    for m in scenario.machines:
        header = f"[machine {m.name} entry]" if m.is_entry else f"[machine {m.name}]"
        lines.append(header)
        lines.append(f"initial -> {m.initial}")
        for st in m.states:
            if st.kind == KIND_FINAL:
                lines.append(f"final {st.name}")
            elif st.kind == KIND_CHOICE:
                lines.append(f"choice {st.name} : " + " | ".join(st.options))
            elif st.kind == KIND_COMPOSITE:
                arms = ", ".join(_fmt_arm(tr) for tr in st.transitions)
                lines.append(f"submachine {st.name} = {st.machine} -> {arms}")
            else:
                if st.transitions:
                    arms = ", ".join(_fmt_arm(tr) for tr in st.transitions)
                    lines.append(f"state {st.name} -> {arms}")
                else:
                    lines.append(f"state {st.name}")
        for exit_name, tag in m.exits:
            lines.append(f"exit {exit_name} ({tag})")
        lines.append("")

    lines += _section_lines("world", scenario.world)
    lines.append("")
    lines += _section_lines("energy", scenario.energy_profile)

    if scenario.seed_weights:
        lines.append("")
        lines.append("[weights]")
        for (node, option) in sorted(scenario.seed_weights):
            w_pos, w_neg = scenario.seed_weights[(node, option)]
            lines.append(f"{node}.{option} = {_fmt_num(w_pos)} {_fmt_num(w_neg)}")

    return "\n".join(lines) + "\n"
