"""Seeded scenario texts for the benchmark workloads.

Every input the simulator receives is `.scn` text built here from the
workload seed and the scenario snapshots in `bases/` (copies of the four
built-ins, kept here so that a later edit to a built-in does not change the
benchmark's inputs). The built-ins never tie their seed weights, so
`select_option` never draws from the rng on them and every seed replays the
same lives; the variants below move the start cell, scale drain, lower the
initial battery and write tied seed weights, so the seed reaches the rng.

This module does not import foragesim: set-up time is measured from the
first foragesim import, after the generator is loaded.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

BASES_DIR = Path(__file__).resolve().parent / "bases"
STATION, WIRELESS, DUAL, LAB = "station_only", "wireless_only", "dual_source", "learning_lab"
RATE_KEYS = ("rate.idle", "rate.move", "rate.sense", "rate.process")

_CHOICE_RE = re.compile(r"^choice\s+(\w+)\s*:\s*(.+)$", re.M)

# ROADMAP item 2's known-bad input: validates clean, then `run` exceeds the
# run-to-completion drain limit and dies with MachineStuckError.
AUTO_CYCLE_TEXT = """\
[machine top entry]
initial -> spin_a
state spin_a -> spin_b on auto
state spin_b -> spin_a on auto

[world]
grid = 8 8
robot.start = 2 2
"""


@dataclass
class Item:
    """One scenario text plus how the workload runs it."""

    label: str
    text: str
    seed: int = 0
    steps: int = 0
    episodes: int = 0
    # One of ROADMAP item 2's known-bad inputs: a failure on it is counted but
    # does not make the run incorrect, and it stays out of the output digest,
    # which fixing the defect will change.
    known_bad: bool = False
    cli: tuple[str, ...] = ()  # scenario_cli: the `python -m foragesim` verbs it also goes through


def base_text(name: str) -> str:
    return (BASES_DIR / f"{name}.scn").read_text()


def fmt(value: float) -> str:
    """Plain decimal with at most six fractional digits (the DSL allows nine)."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def get_key(text: str, key: str) -> list[str]:
    m = re.search(rf"^{re.escape(key)}\s*=\s*([^#\n]+)", text, re.M)
    if m is None:
        raise KeyError(key)
    return m.group(1).split()


def set_key(text: str, section: str, key: str, value: str) -> str:
    """Replace `key` in `[section]`, or append it at the end of the section."""
    lines = text.splitlines()
    header = f"[{section}]"
    if header not in (line.strip() for line in lines):
        lines += ["", header]
    start = next(i for i, line in enumerate(lines) if line.strip() == header)
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].lstrip().startswith("[")),
        len(lines),
    )
    new = f"{key} = {value}"
    for i in range(start + 1, end):
        if lines[i].split("#")[0].split("=")[0].strip() == key:
            lines[i] = new
            break
    else:
        at = end
        while at > start + 1 and not lines[at - 1].strip():
            at -= 1
        lines.insert(at, new)
    return "\n".join(lines) + "\n"


def choice_nodes(text: str) -> list[tuple[str, list[str]]]:
    return [
        (m.group(1), [opt.strip() for opt in m.group(2).split("|")])
        for m in _CHOICE_RE.finditer(text)
    ]


def _weight(rng: random.Random) -> str:
    return fmt(rng.randrange(11) / 10)


def variant(
    base: str,
    rng: random.Random,
    drain: tuple[float, float],
    tie_p: float,
    battery: tuple[float, float] | None = None,
    jitter: int = 2,
    offset: tuple[int, int] = (0, 0),
) -> str:
    """A seeded variant of a base scenario.

    Moves the start cell by `offset` plus up to `jitter` cells on each axis
    (clamped to the grid), scales every drain rate by one multiplier drawn
    from `drain`, optionally sets `battery_initial` to a fraction of capacity
    drawn from `battery`, and with probability `tie_p` per choice node gives
    all its options one random weight pair, which makes `select_option` draw
    from the rng; other nodes keep the base weights.
    """
    text = base_text(base)
    width, height = (int(v) for v in get_key(text, "grid"))
    x, y = (int(v) for v in get_key(text, "robot.start"))
    start = (
        min(width - 1, max(0, x + offset[0] + rng.randint(-jitter, jitter))),
        min(height - 1, max(0, y + offset[1] + rng.randint(-jitter, jitter))),
    )
    text = set_key(text, "world", "robot.start", f"{start[0]} {start[1]}")
    mult = round(rng.uniform(*drain), 2)
    for key in RATE_KEYS:
        text = set_key(text, "energy", key, fmt(float(get_key(text, key)[0]) * mult))
    if battery is not None:
        capacity = float(get_key(text, "battery_capacity")[0])
        initial = round(capacity * rng.uniform(*battery), 2)
        text = set_key(text, "energy", "battery_initial", fmt(initial))
    for node, options in choice_nodes(text):
        if rng.random() < tie_p:
            pair = f"{_weight(rng)} {_weight(rng)}"
            for option in options:
                text = set_key(text, "weights", f"{node}.{option}", pair)
    return text


def mirror(text: str) -> str:
    """The same scenario with every choice node's options in reverse order.

    On a tie `select_option` picks an option by its index, so with the same
    simulation seed a tied node picks the other option: a variant and its
    mirror cover both branches of each first tied choice.
    """
    return _CHOICE_RE.sub(
        lambda m: f"choice {m.group(1)} : " + " | ".join(
            opt.strip() for opt in reversed(m.group(2).split("|"))),
        text,
    )


def _sim_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 20)


def mc_quiet(seed: int) -> list[Item]:
    """Two mild variants each of station_only, wireless_only and dual_source.

    station_only keeps its untied weights: a tie there picks the track path
    half the time, which fails from every start near the base one and kills
    the robot, and this workload is about lives that survive.
    """
    rng = random.Random(f"mc_quiet/{seed}")
    items = []
    for base in (STATION, WIRELESS, DUAL):
        for k in range(2):
            text = variant(base, rng, drain=(0.8, 1.25), tie_p=0.0 if base == STATION else 0.5)
            items.append(Item(f"{base}#{k}", text, _sim_seed(rng), steps=3000, episodes=3))
    return items


def trace_run(seed: int) -> list[Item]:
    """One long life on a mild variant of each built-in."""
    rng = random.Random(f"trace_run/{seed}")
    items = []
    for base in (STATION, WIRELESS, DUAL, LAB):
        # learning_lab ships a nearly empty battery; fill it so the life is long.
        # A station_only tie is deadly (see mc_quiet), and every life here
        # should reach the horizon.
        battery = (0.6, 1.0) if base == LAB else None
        tie_p = 0.0 if base == STATION else 0.5
        text = variant(base, rng, drain=(0.8, 1.25), tie_p=tie_p, battery=battery)
        items.append(Item(base, text, _sim_seed(rng), steps=15000, episodes=1))
    return items


# start offsets of the hungry learning_lives variants, one per design
_LEARN_OFFSETS = ((-3, 0), (0, 3), (3, 0), (0, -3))


def learning_lives(seed: int) -> list[Item]:
    """learning_lab as shipped plus hungry variants of dual_source and station_only.

    Each base gets four designs, from mild (1x drain, 30% battery) to starved
    (4x drain, 5% battery), each with its own moved start and every choice
    node tied. The seed draws the drain and battery within a narrow band
    around each design, the tied weights and the simulation seed, and each
    variant runs beside its mirror; so each seed meets a different rng path
    while the share of early deaths, and with it the cost of a pass, stays
    alike from seed to seed.
    """
    rng = random.Random(f"learning_lives/{seed}")
    items = [Item(LAB, base_text(LAB), _sim_seed(rng), steps=400, episodes=6)]
    designs = len(_LEARN_OFFSETS)
    for base in (DUAL, STATION):
        for k, offset in enumerate(_LEARN_OFFSETS):
            level = (k + 0.4 + 0.2 * rng.random()) / designs
            drain = 1.0 + 3.0 * level
            battery = 0.3 - 0.25 * level
            text = variant(base, rng, drain=(drain, drain), tie_p=1.0,
                                 battery=(battery, battery), jitter=0, offset=offset)
            sim_seed = _sim_seed(rng)
            items.append(Item(f"{base}#{k}", text, sim_seed, steps=400, episodes=6))
            items.append(Item(f"{base}#{k}m", mirror(text), sim_seed, steps=400, episodes=6))
    return items


def _corrupt(text: str, rng: random.Random) -> str:
    """Break one line in a way the validator must report (exit 1)."""
    kind = rng.randrange(3)
    if kind == 0:
        return set_key(text, "world", "grid", f"{rng.randrange(8, 30)} x{rng.randrange(8, 30)}")
    if kind == 1:
        return set_key(text, "energy", f"rate.{rng.choice(['hover', 'spin', 'glow'])}", "0.1")
    return re.sub(r"^initial -> \w+", f"initial -> missing_{rng.randrange(100)}", text, count=1, flags=re.M)


def scenario_cli(seed: int) -> list[Item]:
    """The scenario corpus: built-ins, variants, invalid texts and known-bad inputs."""
    rng = random.Random(f"scenario_cli/{seed}")
    bases = (STATION, WIRELESS, DUAL, LAB)
    items = [Item(base, base_text(base)) for base in bases]
    for base in bases:
        for k in range(2):
            text = variant(base, rng, drain=(0.8, 2.0), tie_p=0.5)
            items.append(Item(f"{base}#{k}", text, _sim_seed(rng), steps=300))
    for k in range(2):
        text = variant(rng.choice(bases), rng, drain=(1.0, 1.0), tie_p=0.0)
        items.append(Item(f"invalid#{k}", _corrupt(text, rng)))
    # ROADMAP item 2's other known-bad input: a seed weight naming no choice
    # node is accepted silently (it should at least warn).
    text = variant(WIRELESS, rng, drain=(0.8, 1.25), tie_p=0.5)
    orphan = set_key(text, "weights", "proximity.charge", f"{_weight(rng)} {_weight(rng)}")
    items.append(Item("orphan_weight", orphan, _sim_seed(rng), steps=300, known_bad=True))
    items.append(Item("auto_cycle", AUTO_CYCLE_TEXT, _sim_seed(rng), steps=300, known_bad=True))

    # `run` goes to a wireless_only or dual_source variant, which lives
    # through the short horizon; `validate` to any variant.
    run_picks = [f"{rng.choice((WIRELESS, DUAL))}#0", "orphan_weight", "auto_cycle"]
    validate_picks = [f"{rng.choice(bases)}#1", "invalid#0", "auto_cycle"]
    for item in items:
        item.cli = tuple(v for v, picks in (("validate", validate_picks), ("run", run_picks))
                         if item.label in picks)
    return items


GENERATORS = {
    "mc_quiet": mc_quiet,
    "trace_run": trace_run,
    "learning_lives": learning_lives,
    "scenario_cli": scenario_cli,
}
