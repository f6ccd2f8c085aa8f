"""4-connected grid world: charging-station cues and the wireless beacon field.

Cells are integer (x, y) with x growing east and y growing south. Movement is
one cell per step with no obstacles; directional ties always break in
N, E, S, W order. Every detection radius is multiplied by the caller's sensor
gain, so a draining battery can only shrink what the robot perceives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Cell = tuple[int, int]

# heading -> unit step, in tie-break priority order
_STEPS: tuple[tuple[str, Cell], ...] = (
    ("N", (0, -1)),
    ("E", (1, 0)),
    ("S", (0, 1)),
    ("W", (-1, 0)),
)

FOLLOW_PROGRESSING = "progressing"
FOLLOW_ARRIVED = "arrived"
FOLLOW_LOST = "lost"

CUE_IR = "ir"
CUE_TRACK = "track"


@dataclass(frozen=True)
class StationSpec:
    pos: Cell
    ir_radius: float = 8.0
    track: tuple[Cell, ...] = ()
    charge_rate: float = 5.0
    gaps: frozenset[Cell] = frozenset()

    def __post_init__(self) -> None:
        # gaps are a set, whichever collection of cells they are given as
        object.__setattr__(self, "gaps", frozenset(self.gaps))

    def track_cells(self) -> tuple[Cell, ...]:
        """Track cells that are actually detectable (gaps removed)."""
        return tuple(c for c in self.track if c not in self.gaps)


@dataclass(frozen=True)
class BeaconSpec:
    pos: Cell
    tx_power: float = 4.0
    d0: float = 3.0
    resonance_radius: float = 2.0
    poll_radius: float = 8.0
    i_min: float = 1.0


@dataclass(frozen=True)
class WorldMap:
    width: int
    height: int
    robot_start: Cell = (0, 0)
    station: StationSpec | None = None
    beacon: BeaconSpec | None = None

    def in_grid(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height


@dataclass(frozen=True)
class RobotPose:
    pos: Cell
    heading: str = "N"


@dataclass(frozen=True)
class CueReading:
    ir_detected: bool = False
    ir_bearing: str | None = None
    track_detected: bool = False
    nearest_track: Cell | None = None


def _dist(a: Cell, b: Cell) -> float:
    return math.dist(a, b)


def _bearing(src: Cell, dst: Cell) -> str:
    """Compass direction of the dominant axis from src to dst."""
    dx = dst[0] - src[0]
    dy = dst[1] - src[1]
    if abs(dy) >= abs(dx):
        return "N" if dy < 0 else "S"
    return "E" if dx > 0 else "W"


def intensity_at(world: WorldMap, pos: Cell) -> float:
    """Beacon field strength at `pos`: tx_power * (d0 / (d0 + d))^2."""
    if world.beacon is None:
        return 0.0
    b = world.beacon
    d = _dist(pos, b.pos)
    ratio = b.d0 / (b.d0 + d)
    return b.tx_power * ratio * ratio


def coupling_efficiency(world: WorldMap, pos: Cell) -> float:
    """Resonant coupling factor in [0, 1], zero outside the resonance radius."""
    if world.beacon is None:
        return 0.0
    b = world.beacon
    d = _dist(pos, b.pos)
    if d > b.resonance_radius:
        return 0.0
    return 1.0 / (1.0 + (d / b.resonance_radius) ** 2)


def poll_beacon(world: WorldMap, pose: RobotPose, gain: float) -> float | None:
    """Polling response: field strength when in gain-scaled poll range, else None."""
    if world.beacon is None:
        return None
    b = world.beacon
    if _dist(pose.pos, b.pos) > b.poll_radius * gain:
        return None
    return intensity_at(world, pose.pos)


def detect_station_cues(world: WorldMap, pose: RobotPose, gain: float) -> CueReading:
    """Sense the station's IR signal and track path from the current cell.

    IR is detected within the gain-scaled IR radius (inclusive); the track is
    detected within one gain-scaled cell of its nearest non-gap cell.
    """
    st = world.station
    if st is None:
        return CueReading()
    ir_detected = _dist(pose.pos, st.pos) <= st.ir_radius * gain
    bearing = _bearing(pose.pos, st.pos) if ir_detected else None
    nearest = None
    track_detected = False
    cells = st.track_cells()
    if cells:
        nearest = min(cells, key=lambda c: (_dist(pose.pos, c), c))
        track_detected = _dist(pose.pos, nearest) <= 1.0 * gain
    return CueReading(
        ir_detected=ir_detected,
        ir_bearing=bearing,
        track_detected=track_detected,
        nearest_track=nearest if track_detected else None,
    )


def _greedy_step(world: WorldMap, pos: Cell, goal: Cell) -> tuple[Cell, str]:
    """One 4-neighbour step strictly reducing distance to `goal` (N,E,S,W ties)."""
    best = pos
    best_d = _dist(pos, goal)
    heading = "N"
    for name, (dx, dy) in _STEPS:
        nxt = (pos[0] + dx, pos[1] + dy)
        if not world.in_grid(nxt):
            continue
        d = _dist(nxt, goal)
        if d < best_d:
            best, best_d, heading = nxt, d, name
    return best, heading


def step_follow(
    world: WorldMap, pose: RobotPose, cue: str, gain: float = 1.0
) -> tuple[RobotPose, str]:
    """Advance one cell along a detected cue toward the station.

    IR moves greedily toward the station position; track moves along the
    declared polyline (stepping to the nearest track cell first when off it).
    Returns `arrived` at the station cell, `lost` when the cue is no longer
    detected after the move, otherwise `progressing`.
    """
    st = world.station
    if st is None:
        return pose, FOLLOW_LOST
    if pose.pos == st.pos:
        return pose, FOLLOW_ARRIVED

    if cue == CUE_IR:
        nxt, heading = _greedy_step(world, pose.pos, st.pos)
    elif cue == CUE_TRACK:
        if pose.pos in st.track:
            idx = st.track.index(pose.pos)
            target = st.track[min(idx + 1, len(st.track) - 1)]
        else:
            cells = st.track_cells()
            if not cells:
                return pose, FOLLOW_LOST
            target = min(cells, key=lambda c: (_dist(pose.pos, c), c))
        nxt, heading = _greedy_step(world, pose.pos, target)
    else:
        raise ValueError(f"unknown cue {cue!r}")

    new_pose = RobotPose(pos=nxt, heading=heading)
    if nxt == st.pos:
        return new_pose, FOLLOW_ARRIVED
    after = detect_station_cues(world, new_pose, gain)
    still = after.ir_detected if cue == CUE_IR else after.track_detected
    return new_pose, (FOLLOW_PROGRESSING if still else FOLLOW_LOST)


def step_seek_intensity(world: WorldMap, pose: RobotPose) -> RobotPose:
    """Climb the beacon field one cell, or stay put at a local maximum."""
    best_pos = pose.pos
    best_i = intensity_at(world, pose.pos)
    heading = pose.heading
    for name, (dx, dy) in _STEPS:
        nxt = (pose.pos[0] + dx, pose.pos[1] + dy)
        if not world.in_grid(nxt):
            continue
        i = intensity_at(world, nxt)
        if i > best_i:
            best_pos, best_i, heading = nxt, i, name
    if best_pos == pose.pos:
        return pose
    return RobotPose(pos=best_pos, heading=heading)
