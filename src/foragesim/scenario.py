"""Scenario definition language: parsing, validation, canonical text output.

A scenario bundles everything one experiment needs: the hierarchical state
machines the robot runs, the grid world it moves in, its energy profile, and
seed weights for the choice nodes. The format is line oriented (a line ends
at LF, CR LF or a lone CR, and nowhere else); `#` starts a comment and
sections open with a bracketed header:

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
from typing import NamedTuple

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
IDENT_RE = re.compile(_ID + "$")  # a DSL name (node, option, state, ...)
_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.([0-9]+))?")  # not `\d`, which takes any script's digits

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
# takes a cell apart (grid is a size, not a position). A shape is a row of
# `_SHAPES`, and a bound applies to every number of the value.
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
    for f in (name if isinstance(name, tuple) else (name,))
    if f not in _TARGETS[group or section]._field_defaults
}


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    text = f"{v:.9f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _fmt_cell(cell) -> str:
    return f"{cell[0]} {cell[1]}"


# Every value shape -> (what its numbers must be; its reader, from the numbers
# to the value or None when they do not fit, where `x % 1 == 0` says x is
# integral; its writer, empty for no cells; the grid cells a value names)
_SHAPES = {
    "num": ("exactly one number", lambda v: v[0] if len(v) == 1 else None, _fmt_num, lambda _: ()),
    "int": ("exactly one integer", lambda v: int(v[0]) if len(v) == 1 and v[0] % 1 == 0 else None,
            str, lambda _: ()),
    "cell": ("two integer coordinates",
             lambda v: (int(v[0]), int(v[1])) if len(v) == 2 and v[0] % 1 == v[1] % 1 == 0 else None,
             _fmt_cell, lambda cell: (cell,)),
    "cells": ("an even list of integer coordinates",
              lambda v: tuple(zip(map(int, v[::2]), map(int, v[1::2])))
              if len(v) % 2 == 0 and all(x % 1 == 0 for x in v) else None,
              lambda cells: " ".join(map(_fmt_cell, sorted(cells) if isinstance(cells, frozenset) else cells)),
              lambda cells: cells),
}


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


def _error(line: int, message: str) -> Diagnostic:
    return Diagnostic("error", line, 1, message)


def _warning(line: int, message: str) -> Diagnostic:
    return Diagnostic("warning", line, 1, message)


class ScenarioError(Exception):
    """Parse or validation failure; carries the sorted diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(str(d) for d in self.diagnostics[:5])
        if len(self.diagnostics) > 5:
            summary += f"; ... {len(self.diagnostics) - 5} more"
        super().__init__(summary)


def _eq_but_last(a, b):
    """`__eq__` of a record that leaves its last field (a line or a name) out;
    its `__ne__` is `object.__ne__`, which negates it (tuple's compares all)."""
    return a[:-1] == b[:-1] if type(b) is type(a) else NotImplemented


class TransitionDef(NamedTuple):
    event: str
    target: str  # state name, "exit.NAME", or "final"
    guard: str | None = None
    line: int = 0

    __eq__, __ne__, __hash__ = _eq_but_last, object.__ne__, None


class StateDef(NamedTuple):
    name: str
    kind: str = KIND_SIMPLE
    machine: str | None = None  # composite only
    options: tuple[str, ...] = ()  # choice only
    transitions: tuple[TransitionDef, ...] = ()
    line: int = 0

    __eq__, __ne__, __hash__ = _eq_but_last, object.__ne__, None


class MachineDef(NamedTuple):
    name: str
    initial: str
    states: tuple[StateDef, ...] = ()
    exits: tuple[tuple[str, str], ...] = ()  # (exit name, success|failure)
    is_entry: bool = False
    line: int = 0

    __eq__, __ne__, __hash__ = _eq_but_last, object.__ne__, None


def declared(m: MachineDef) -> tuple[dict[str, StateDef], dict[str, str], list[str]]:
    """Machine `m`'s states and exit tags by name, the first declaration of a
    name winning, and its final states' names in declaration order."""
    return ({st.name: st for st in reversed(m.states)}, dict(reversed(m.exits)),
            [st.name for st in m.states if st.kind == KIND_FINAL])


def machines_by_name(machines) -> dict[str, MachineDef]:
    """`machines` by name in declaration order, the first declaration of a name winning."""
    named: dict[str, MachineDef] = {}
    for m in machines:
        named.setdefault(m.name, m)
    return named


class _ScenarioFields(NamedTuple):
    machines: tuple[MachineDef, ...]
    world: WorldMap
    energy_profile: EnergyProfile
    seed_weights: dict[tuple[str, str], tuple[float, float]]
    name: str = "scenario"


class ScenarioDef(_ScenarioFields):
    # a subclass, so that it has the `__dict__` that `statemachine.start_instance`
    # keeps the scenario's resolved chart in
    __eq__, __ne__, __hash__ = _eq_but_last, object.__ne__, None

    def entry_machine(self) -> MachineDef:
        for m in self.machines:
            if m.is_entry:
                return m
        raise ValueError("no entry machine declared")

    def event_vocabulary(self) -> frozenset[str]:
        return frozenset(tr.event for m in self.machines for st in m.states for tr in st.transitions
                         if tr.event != RESERVED_EVENT)


# ---------------------------------------------------------------------------
# parsing


def decode_text(data: bytes) -> str:
    """A `.scn` file's or a weights CSV's text: UTF-8, less one leading U+FEFF
    (byte-order mark). Bytes that are not UTF-8 raise `ScenarioError` with one
    error at their line, lines ending where the parser ends them."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # `exc.object` is the bytes after the mark
        line = len((exc.object[: exc.start] + b"?").splitlines())
        raise ScenarioError([_error(line, "not UTF-8 text")]) from None


def read_number(token: str) -> float:
    """The value of a DSL number, the one reader of numbers in a `.scn` and a
    weights CSV: a plain decimal, at most nine fractional digits, finite as a
    double; `-0` reads as 0.0. Anything else raises `ValueError`."""
    m = _NUMBER_RE.fullmatch(token)
    if m is not None and len(m.group(1) or "") > 9:
        raise ValueError(f"more than 9 fractional digits in {token!r}")
    value = float(token) + 0.0 if m is not None else math.inf  # `+ 0.0` reads -0 as 0.0
    if not math.isfinite(value):  # not a number, or too large for a double
        raise ValueError(f"bad number {token!r}")
    return value


def _parse_number(token: str, lineno: int, diags: list[Diagnostic]) -> float | None:
    try:
        return read_number(token)
    except ValueError as exc:
        diags.append(_error(lineno, str(exc)))
        return None


def _check_ident(token: str, lineno: int, diags: list[Diagnostic]) -> bool:
    if not IDENT_RE.match(token):
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


_HEADER_RE = re.compile(
    rf"^\[\s*(?:machine\s+(?P<machine>{_ID})(?P<entry>\s+entry)?|(?P<section>world|energy|weights))\s*\]$"
)
# a [weights] line is a key/value line whose key is `node.option`
_KV_RE = re.compile(rf"^(?P<key>{_ID}(?:\.{_ID})*)\s*=\s*(?P<values>.+)$")

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
    machines: list[dict] = []  # each machine's MachineDef fields, as parsed
    # section -> key -> (value, or None when it was rejected; line)
    given: dict[str, dict[str, tuple[object, int]]] = {"world": {}, "energy": {}}
    weights: dict[tuple[str, str], tuple[float, float]] = {}
    weight_lines: dict[tuple[str, str], int] = {}
    # "machine" (the last of `machines`) | "world" | "energy" | "weights"
    section: str | None = None
    seen_sections: set[str] = set()

    # not str.splitlines, which also ends a line at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue

        if line.startswith("["):
            m = _HEADER_RE.match(line)
            section = None
            if m is None:
                diags.append(_error(lineno, f"bad section header {line!r}"))
            elif m.group("section") is not None:
                section = m.group("section")
                if section in seen_sections:
                    diags.append(_error(lineno, f"duplicate [{section}] section"))
                seen_sections.add(section)
            elif _check_ident(m.group("machine"), lineno, diags):
                machines.append({
                    "name": m.group("machine"), "initial": None, "states": [], "exits": [],
                    "is_entry": m.group("entry") is not None, "line": lineno,
                })
                section = "machine"
            continue

        if section is None:
            diags.append(_error(lineno, "statement outside any section"))
            continue

        if section == "machine":
            _parse_machine_stmt(line, lineno, machines[-1], diags)
            continue
        m = _KV_RE.match(line)
        if section != "weights":
            if m is None:
                diags.append(_error(lineno, f"bad key/value line {line!r}"))
                continue
            key = m.group("key")
            values: list[float | None] = []
            for tok in m.group("values").split():
                values.append(_parse_number(tok, lineno, diags))
                if values[-1] is None:
                    break
            if None in values:
                continue
            if key not in _KEYS or _KEYS[key][0] != section:
                diags.append(_error(lineno, f"unknown {section} key {key!r}"))
                continue
            if key in given[section]:
                diags.append(_error(lineno, f"duplicate key {key!r}"))
                continue
            given[section][key] = (_convert(key, values, lineno, diags), lineno)
        else:
            if m is None or m.group("key").count(".") != 1:
                diags.append(_error(lineno, f"bad weight line {line!r}"))
                continue
            toks = m.group("values").split()
            if len(toks) != 2:
                diags.append(_error(lineno, "weight line needs exactly two numbers"))
                continue
            pair = [_parse_number(t, lineno, diags) for t in toks]
            if None in pair:
                continue
            key = tuple(m.group("key").split("."))
            if key in weights:
                diags.append(_error(lineno, f"duplicate weight entry {m.group('key')}"))
                continue
            weights[key] = (pair[0], pair[1])
            weight_lines[key] = lineno

    machine_defs = []
    for machine in machines:
        if machine["initial"] is None:
            diags.append(_error(machine["line"], f"machine '{machine['name']}' has no initial"))
        else:
            machine.update(states=tuple(machine["states"]), exits=tuple(machine["exits"]))
            machine_defs.append(MachineDef(**machine))
    world = _build_section("world", given["world"], diags)
    if world is not None:
        _check_world(world, given["world"], diags)
    energy = _build_section("energy", given["energy"], diags)

    if len(machine_defs) < len(machines) or world is None or energy is None:
        scenario = None
    else:
        scenario = ScenarioDef(
            machines=tuple(machine_defs),
            world=world,
            energy_profile=energy,
            seed_weights=weights,
            name=name,
        )
        _validate(scenario, weight_lines, diags)
    return scenario, sorted(diags, key=lambda d: (d.line, d.severity, d.message))


def _parse_machine_stmt(line: str, lineno: int, machine: dict, diags: list[Diagnostic]) -> None:
    word, *rest = line.split(maxsplit=1)  # any run of whitespace ends the word
    if word not in _STMTS:
        diags.append(_error(lineno, f"unknown statement {word!r}"))
        return
    pattern, kind = _STMTS[word]
    m = pattern.match(rest[0] if rest else "")
    if m is None:
        diags.append(_error(lineno, f"bad {word} statement {line!r}"))
        return
    if word == "initial" and machine["initial"] is not None:
        diags.append(_error(lineno, f"machine '{machine['name']}' has multiple initials"))
        return
    got = m.groupdict()
    name, ref, arms = got["name"], got.get("ref"), got.get("arms")
    options = tuple([o.strip() for o in got["options"].split("|")]) if "options" in got else ()
    for n in (name, ref, *options):
        if n is not None and not _check_ident(n, lineno, diags):
            return
    if word == "initial":
        machine["initial"] = name
    elif word == "exit":
        machine["exits"].append((name, got["tag"]))
    else:
        machine["states"].append(StateDef(
            name=name, kind=kind, machine=ref, options=options,
            transitions=_parse_arms(arms, lineno, diags) if arms else (), line=lineno,
        ))


def _convert(key: str, values: list[float], lineno: int, diags: list[Diagnostic]):
    """Read a key's numbers by its shape and check its bound; None after an error."""
    _, _, _, shape, bound = _KEYS[key]
    needs, read, _, _ = _SHAPES[shape]
    value = read(values)
    if value is None:
        diags.append(_error(lineno, f"{key} needs {needs}"))
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
    that no key sets keeps its default. A section without keys is
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
        if isinstance(name, tuple):  # a size, not a position
            continue
        for cell in _SHAPES[shape][3](value):
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


def _loops(nexts: dict[str, list[str]]) -> list[list[str]]:
    """The cycles of `nexts` (see `_reach`): each largest set of its nodes
    that all reach one another and themselves, listed in `nexts` order, the
    sets in the order of their first node. Tarjan's strongly connected
    components in one pass; its walk waits on a list, not the call stack,
    since a chain of moves may be as long as any input."""
    index: dict[str, int] = {}  # node -> its place in the walk's order of discovery
    low: dict[str, int] = {}  # node -> the least index it reaches among open nodes
    root: dict[str, str] = {}  # closed node -> the first node of its set found
    open_nodes: list[str] = []
    for start in nexts:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        open_nodes.append(start)
        walk = [(start, iter(nexts[start]))]
        while walk:
            node, ahead = walk[-1]
            for nxt in ahead:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    open_nodes.append(nxt)
                    walk.append((nxt, iter(nexts.get(nxt, ()))))
                    break
                if nxt not in root:
                    low[node] = min(low[node], index[nxt])
            else:
                walk.pop()
                if walk:
                    low[walk[-1][0]] = min(low[walk[-1][0]], low[node])
                if low[node] == index[node]:
                    while node not in root:
                        root[open_nodes.pop()] = node
    sets: dict[str, list[str]] = {}
    for node in nexts:
        sets.setdefault(root[node], []).append(node)
    return [nodes for nodes in sets.values() if len(nodes) > 1 or nodes[0] in nexts[nodes[0]]]


def _repeats(items, key) -> list:
    """The items whose key an earlier item already has, in order."""
    seen: set = set()
    repeats = []
    for item in items:
        k = key(item)
        if k in seen:
            repeats.append(item)
        seen.add(k)
    return repeats


def _validate(
    scenario: ScenarioDef, weight_lines: dict[tuple[str, str], int], diags: list[Diagnostic]
) -> None:
    machines = scenario.machines

    entries = [m for m in machines if m.is_entry]
    if not entries:
        diags.append(_error(1, "no entry machine declared"))
    for m in entries[1:]:
        diags.append(_error(m.line, f"multiple entry machines: '{m.name}'"))

    for m in _repeats(machines, lambda m: m.name):
        diags.append(_error(m.line, f"duplicate machine name '{m.name}'"))

    named = machines_by_name(machines)
    options_of: dict[str, set[str]] = {}  # choice node name -> its options, over all machines

    for m in machines:
        for st in _repeats(m.states, lambda st: st.name):
            diags.append(_error(st.line, f"duplicate state name '{st.name}'"))
        for exit_name, _ in _repeats(m.exits, lambda ex: ex[0]):
            diags.append(_error(m.line, f"duplicate exit name '{exit_name}'"))
        # what a name in this machine may refer to: its states, and `exit.X` for each exit
        states, exits, finals = declared(m)
        targets = {*states, *(EXIT_PREFIX + name for name in exits)}
        for exit_name, _ in m.exits:
            if exit_name in targets:  # an exit name has no dot, so only a state's matches
                diags.append(_error(m.line, f"exit '{exit_name}' clashes with a state name"))

        if m.initial not in targets:
            diags.append(_error(m.line, f"unresolved reference '{m.initial}'"))
        else:  # reachability inside this machine; a `final` target is the first final state
            final = {TARGET_FINAL: finals[0]} if finals else {}
            nexts = {
                name: [*st.options, *(final.get(tr.target, tr.target) for tr in st.transitions)]
                for name, st in states.items()
            }
            reached = {m.initial} | _reach(m.initial, nexts)
            for st in m.states:
                if st.name not in reached:
                    diags.append(_warning(st.line, f"unreachable state '{st.name}'"))

        for st in m.states:
            if st.kind == KIND_CHOICE:
                options_of.setdefault(st.name, set()).update(st.options)
                if len(st.options) < 2:
                    diags.append(_error(st.line, "choice requires >=2 options"))
                for o in sorted(set(_repeats(st.options, str))):
                    diags.append(_error(st.line, f"duplicate choice option '{o}'"))
                for o in st.options:
                    if o not in targets:
                        diags.append(_error(st.line, f"unresolved reference '{o}'"))
            if st.kind == KIND_COMPOSITE:
                inner = named.get(st.machine)
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
                if tr.target == TARGET_FINAL:
                    if not finals:
                        diags.append(
                            _error(tr.line, f"machine '{m.name}' has no final state")
                        )
                    elif len(finals) > 1:
                        diags.append(
                            _error(tr.line, "ambiguous 'final' target; name the final state")
                        )
                elif tr.target not in targets:
                    diags.append(_error(tr.line, f"unresolved reference '{tr.target}'"))

    # composition must be acyclic: one walk, on a stack of (machine name, its
    # states left), lists each machine when it is done, its sub-machines first
    order: list[MachineDef] = []
    done: dict[str, bool] = {}  # machine name -> whether the walk is done with it
    for m in named.values():
        if m.name in done:
            continue
        done[m.name] = False
        stack = [(m.name, iter(m.states))]
        while stack:
            name, states = stack[-1]
            for st in states:
                if st.kind == KIND_COMPOSITE and st.machine in named:
                    if st.machine not in done:
                        done[st.machine] = False
                        stack.append((st.machine, iter(named[st.machine].states)))
                        break
                    if not done[st.machine]:
                        cycle = " -> ".join([n for n, _ in stack] + [st.machine])
                        diags.append(_error(st.line, f"machine composition cycle: {cycle}"))
            else:
                stack.pop()
                done[name] = True
                order.append(named[name])

    _check_auto_cycles(order, diags)

    referenced = {st.machine for m in machines for st in m.states if st.kind == KIND_COMPOSITE}
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


def _check_auto_cycles(order: list[MachineDef], diags: list[Diagnostic]) -> None:
    """Report cycles among the moves a run-to-completion drain makes without
    an event: `auto` arms, choice options, and a sub-machine that crosses an
    exit as soon as it is entered, into the composite's arm for that exit.

    `order` holds the machines once each, a sub-machine before the machines
    that hold it (`_validate`'s composition walk), so one pass knows the exits
    each sub-machine crosses at once. A sub-machine that comes later, one that
    was still open on the walk in a composition cycle, crosses no exit.

    A move is certain when it is a state's first `auto` arm and unguarded, or
    the first arm for an exit its sub-machine always crosses at once, and
    unguarded. A cycle of certain moves never settles; any other cycle
    settles only if a guard or a choice breaks it. Each is a warning at the
    line of the cycle's first arm; a drain that does turn forever raises
    `MachineStuckError` when the scenario runs.
    """
    # machine name -> the `exit.X` targets it may reach at once from its
    # initial, and where its certain moves from there end (the exit it always
    # crosses, if that is one); a machine that crosses no exit has no entry
    summaries: dict[str, tuple[set[str], str | None]] = {}

    def certain_walk(moves, state: str | None, stop) -> tuple[list[str], str | None]:
        """The states passed on certain moves from `state`, and the first one not passed."""
        path: dict[str, None] = {}  # in order, and a state is tested in one lookup
        while state in moves and state not in stop and state not in path:
            path[state] = None
            state = next((t for t, _, certain in moves[state] if certain), None)
        return list(path), state

    for m in order:
        # each state that has moves -> its moves (target, line, certain); a
        # target is a state, a final or `exit.X`
        moves: dict[str, list[tuple[str, int, bool]]] = {}
        for st in m.states:
            if st.kind == KIND_CHOICE:
                moves[st.name] = [(o, st.line, False) for o in st.options]
            elif st.kind == KIND_COMPOSITE:
                if st.machine in summaries:
                    crossed, end = summaries[st.machine]
                    firsts: dict[str, TransitionDef] = {}
                    moves[st.name] = [
                        (tr.target, tr.line, EXIT_PREFIX + tr.event == end
                         and firsts.setdefault(tr.event, tr) is tr and tr.guard is None)
                        for tr in st.transitions if EXIT_PREFIX + tr.event in crossed
                    ]
            else:
                for tr in st.transitions:
                    if tr.event == RESERVED_EVENT:
                        autos = moves.setdefault(st.name, [])
                        autos.append((tr.target, tr.line, not autos and tr.guard is None))

        if any(t.startswith(EXIT_PREFIX) for ms in moves.values() for t, _, _ in ms):
            reached = _reach(m.initial, {s: [t for t, _, _ in ms] for s, ms in moves.items()})
            crossed = {t for t in reached if t.startswith(EXIT_PREFIX)}
            if crossed:
                summaries[m.name] = crossed, certain_walk(moves, m.initial, ())[1]

        # a cycle needs a move back to a state declared no later than its own
        rank = {state: i for i, state in enumerate(moves)}
        if all(rank.get(t, i + 1) > i for i, ms in enumerate(moves.values()) for t, _, _ in ms):
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

        for loop in _loops({s: [t for t, _, _ in ms] for s, ms in moves.items()}):
            if never_settles.isdisjoint(loop):
                members = set(loop)
                line = min(ln for s in loop for t, ln, _ in moves[s] if t in members)
                diags.append(
                    _warning(line, f"auto cycle through {', '.join(loop)} may never settle")
                )


# ---------------------------------------------------------------------------
# serialization


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
        text = _SHAPES[shape][2](value)
        if text:
            lines.append(f"{key} = {text}")
    return lines


def serialize_scenario(scenario: ScenarioDef) -> str:
    """Render canonical DSL text; parsing it back yields an equal scenario."""
    lines: list[str] = []
    for m in scenario.machines:
        header = f"[machine {m.name} entry]" if m.is_entry else f"[machine {m.name}]"
        lines.append(header)
        lines.append(f"initial -> {m.initial}")
        for st in m.states:
            arms = ", ".join(_fmt_arm(tr) for tr in st.transitions)
            if st.kind == KIND_FINAL:
                lines.append(f"final {st.name}")
            elif st.kind == KIND_CHOICE:
                lines.append(f"choice {st.name} : " + " | ".join(st.options))
            elif st.kind == KIND_COMPOSITE:
                lines.append(f"submachine {st.name} = {st.machine} -> {arms}")
            elif arms:
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
        for (node, option), (w_pos, w_neg) in sorted(scenario.seed_weights.items()):
            lines.append(f"{node}.{option} = {_fmt_num(w_pos)} {_fmt_num(w_neg)}")

    return "\n".join(lines) + "\n"
