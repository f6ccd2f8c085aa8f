"""4-connected grid world: charging-station cues and the wireless beacon field.

Cells are integer (x, y) with x growing east and y growing south. Movement is
one cell per step with no obstacles; directional ties always break in
N, E, S, W order. Every detection radius is multiplied by the caller's sensor
gain, so a draining battery can only shrink what the robot perceives.
"""

from __future__ import annotations

import math
from typing import NamedTuple

Cell = tuple[int, int]

# unit steps N, E, S, W: the tie-break priority order
_STEPS: tuple[Cell, ...] = ((0, -1), (1, 0), (0, 1), (-1, 0))

FOLLOW_PROGRESSING = "progressing"
FOLLOW_ARRIVED = "arrived"
FOLLOW_LOST = "lost"

CUE_IR = "ir"
CUE_TRACK = "track"


class _StationFields(NamedTuple):
    pos: Cell
    ir_radius: float = 8.0
    track: tuple[Cell, ...] = ()
    charge_rate: float = 5.0
    gaps: frozenset[Cell] = frozenset()


class StationSpec(_StationFields):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` makes a set too

    def __new__(cls, *args, **kwargs):
        st = super().__new__(cls, *args, **kwargs)
        # gaps are a set, whichever collection of cells they are given as
        return super().__new__(cls, *st[:4], frozenset(st.gaps))

    def track_cells(self) -> tuple[Cell, ...]:
        """Track cells that are actually detectable (gaps removed)."""
        gaps = self.gaps
        return tuple([c for c in self.track if c not in gaps])


class BeaconSpec(NamedTuple):
    pos: Cell
    tx_power: float = 4.0
    d0: float = 3.0
    resonance_radius: float = 2.0
    poll_radius: float = 8.0
    i_min: float = 1.0


class WorldMap(NamedTuple):
    width: int
    height: int
    robot_start: Cell = (0, 0)
    station: StationSpec | None = None
    beacon: BeaconSpec | None = None

    def in_grid(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height


class CueReading(NamedTuple):
    ir_detected: bool = False
    track_detected: bool = False


def intensity_at(world: WorldMap, pos: Cell) -> float:
    """Beacon field strength at `pos`: tx_power * (d0 / (d0 + d))^2."""
    if world.beacon is None:
        return 0.0
    b = world.beacon
    d = math.dist(pos, b.pos)
    ratio = b.d0 / (b.d0 + d)
    return b.tx_power * ratio * ratio


def coupling_efficiency(world: WorldMap, pos: Cell) -> float:
    """Resonant coupling factor in [0, 1], zero outside the resonance radius."""
    if world.beacon is None:
        return 0.0
    b = world.beacon
    d = math.dist(pos, b.pos)
    if d > b.resonance_radius:
        return 0.0
    return 1.0 / (1.0 + (d / b.resonance_radius) ** 2)


def poll_beacon(world: WorldMap, pos: Cell, gain: float) -> float | None:
    """Polling response: field strength when in gain-scaled poll range, else None."""
    if world.beacon is None:
        return None
    b = world.beacon
    if math.dist(pos, b.pos) > b.poll_radius * gain:
        return None
    return intensity_at(world, pos)


def detect_station_cues(world: WorldMap, pos: Cell, gain: float) -> CueReading:
    """Sense the station's IR signal and track path from the current cell.

    IR is detected within the gain-scaled IR radius (inclusive); the track is
    detected within one gain-scaled cell of its nearest non-gap cell.
    """
    st = world.station
    if st is None:
        return CueReading()
    # the nearest cell's distance, each cell's taken once (a tie-break among
    # equidistant cells would not change it)
    near = min([math.dist(pos, c) for c in st.track_cells()], default=None)
    return CueReading(math.dist(pos, st.pos) <= st.ir_radius * gain,
                      near is not None and near <= 1.0 * gain)


def _climb(world: WorldMap, pos: Cell, score) -> Cell:
    """One 4-neighbour step to the in-grid neighbour scoring highest, strictly
    above `pos`, or `pos` itself; ties break in N, E, S, W order."""
    best, best_score = pos, score(pos)
    for dx, dy in _STEPS:
        nxt = (pos[0] + dx, pos[1] + dy)
        if world.in_grid(nxt):
            s = score(nxt)
            if s > best_score:
                best, best_score = nxt, s
    return best


def step_follow(world: WorldMap, pos: Cell, cue: str, gain: float = 1.0) -> tuple[Cell, str]:
    """Advance one cell along a detected cue toward the station.

    IR moves greedily toward the station position; track moves along the
    declared polyline (stepping to the nearest track cell first when off it).
    Returns `arrived` at the station cell, `lost` when the cue is no longer
    detected after the move, otherwise `progressing`.
    """
    st = world.station
    if st is None:
        return pos, FOLLOW_LOST
    if pos == st.pos:
        return pos, FOLLOW_ARRIVED

    if cue == CUE_IR:
        target = st.pos
    elif cue == CUE_TRACK:
        if pos in st.track:
            idx = st.track.index(pos)
            target = st.track[min(idx + 1, len(st.track) - 1)]
        else:
            cells = st.track_cells()
            if not cells:
                return pos, FOLLOW_LOST
            target = min(cells, key=lambda c: (math.dist(pos, c), c))
    else:
        raise ValueError(f"unknown cue {cue!r}")
    # greedy: a step strictly nearer to `target` (negating a distance is exact)
    nxt = _climb(world, pos, lambda c: -math.dist(c, target))

    if nxt == st.pos:
        return nxt, FOLLOW_ARRIVED
    after = detect_station_cues(world, nxt, gain)
    still = after.ir_detected if cue == CUE_IR else after.track_detected
    return nxt, (FOLLOW_PROGRESSING if still else FOLLOW_LOST)


def step_seek_intensity(world: WorldMap, pos: Cell) -> Cell:
    """Climb the beacon field one cell, or stay put at a local maximum."""
    return _climb(world, pos, lambda c: intensity_at(world, c))
