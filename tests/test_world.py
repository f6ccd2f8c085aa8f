import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foragesim.scenarios import BUILTIN_NAMES, builtin_scenario
from foragesim.world import (
    CUE_IR,
    CUE_TRACK,
    FOLLOW_ARRIVED,
    FOLLOW_LOST,
    FOLLOW_PROGRESSING,
    BeaconSpec,
    CueReading,
    StationSpec,
    WorldMap,
    coupling_efficiency,
    detect_station_cues,
    intensity_at,
    poll_beacon,
    step_follow,
    step_seek_intensity,
)


def beacon_world(width=16, height=16, pos=(8, 8), **kw):
    return WorldMap(width=width, height=height, beacon=BeaconSpec(pos=pos, **kw))


def station_world(pos=(2, 2), track=(), **kw):
    return WorldMap(
        width=16, height=12,
        station=StationSpec(pos=pos, track=tuple(track), **kw),
    )


class TestIntensity:
    def test_full_power_on_beacon_cell(self):
        w = beacon_world(tx_power=4.0, d0=3.0)
        assert intensity_at(w, (8, 8)) == 4.0

    def test_quarter_power_at_d0(self):
        w = beacon_world(tx_power=4.0, d0=3.0)
        assert intensity_at(w, (11, 8)) == pytest.approx(1.0)

    def test_strictly_decreasing_with_distance(self):
        w = beacon_world(tx_power=4.0, d0=3.0)
        values = [intensity_at(w, (8 + d, 8)) for d in range(8)]
        assert all(a > b > 0 for a, b in zip(values, values[1:]))

    def test_no_beacon_means_zero_field(self):
        w = WorldMap(width=4, height=4)
        assert intensity_at(w, (1, 1)) == 0.0


class TestCoupling:
    def test_unity_on_beacon_cell(self):
        w = beacon_world(resonance_radius=2.0)
        assert coupling_efficiency(w, (8, 8)) == 1.0

    def test_half_at_resonance_radius(self):
        w = beacon_world(resonance_radius=2.0)
        assert coupling_efficiency(w, (10, 8)) == pytest.approx(0.5)

    def test_zero_outside_radius(self):
        w = beacon_world(resonance_radius=2.0)
        assert coupling_efficiency(w, (11, 8)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(x=st.integers(min_value=0, max_value=15), y=st.integers(min_value=0, max_value=15))
    def test_everywhere_in_unit_interval(self, x, y):
        w = beacon_world(resonance_radius=3.5)
        assert 0.0 <= coupling_efficiency(w, (x, y)) <= 1.0


class TestPoll:
    def test_signal_next_to_beacon(self):
        w = beacon_world(poll_radius=8.0)
        assert poll_beacon(w, (9, 8), gain=1.0) > 0

    def test_out_of_range_is_none(self):
        w = beacon_world(pos=(0, 8), poll_radius=8.0)
        assert poll_beacon(w, (9, 8), gain=1.0) is None

    def test_gain_halves_effective_radius(self):
        w = beacon_world(pos=(0, 8), poll_radius=8.0)
        assert poll_beacon(w, (8, 8), gain=1.0) is not None
        assert poll_beacon(w, (8, 8), gain=0.5) is None


class TestStationCues:
    def test_on_track_cell_detects_track(self):
        w = station_world(track=[(2, 4), (2, 3), (2, 2)])
        cues = detect_station_cues(w, (2, 4), gain=1.0)
        assert cues.track_detected

    def test_ir_radius_is_inclusive(self):
        w = station_world(ir_radius=5.0)
        cues = detect_station_cues(w, (7, 2), gain=1.0)  # d exactly 5
        assert cues.ir_detected

    def test_far_from_everything_detects_nothing(self):
        w = station_world(ir_radius=3.0, track=[(2, 3), (2, 2)])
        cues = detect_station_cues(w, (14, 11), gain=1.0)
        assert not cues.ir_detected and not cues.track_detected

    def test_gap_cells_are_invisible(self):
        w = WorldMap(
            width=16, height=12,
            station=StationSpec(
                pos=(2, 2),
                track=((2, 5), (2, 4), (2, 3), (2, 2)),
                gaps=frozenset({(2, 4)}),
            ),
        )
        cues = detect_station_cues(w, (3, 4), gain=1.0)
        # adjacent only to the gap cell, which does not count
        assert cues.track_detected is False


def _nearest_rule(world, pos, gain):
    """The cue reading by the nearest track cell under the (distance, cell)
    tie-break, as `detect_station_cues` once chose it."""
    st = world.station
    if st is None:
        return CueReading()
    track_detected = False
    cells = st.track_cells()
    if cells:
        nearest = min(cells, key=lambda c: (math.dist(pos, c), c))
        track_detected = math.dist(pos, nearest) <= 1.0 * gain
    return CueReading(ir_detected=math.dist(pos, st.pos) <= st.ir_radius * gain,
                      track_detected=track_detected)


class TestNearestTrackCell:
    """`detect_station_cues` reads each track cell's distance once and takes
    the least; it must give the nearest-cell rule's reading everywhere."""

    @staticmethod
    def _stations(world):
        # the shipped station, and one whose track is the grid's inner corners
        # and the middle of its top side, so that many cells lie equally far
        # from two or more track cells
        w, h = world.width, world.height
        square = ((1, 1), (w - 2, 1), (1, h - 2), (w - 2, h - 2), (w // 2, 1))
        stations = [StationSpec(pos=(1, 1), ir_radius=3.0, track=square)]
        if world.station is not None:
            stations.append(world.station)
        for st in list(stations):
            stations.append(st._replace(gaps=st.track[::2]))  # every other cell a gap
            stations.append(st._replace(gaps=st.track))  # nothing to detect
        return stations

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_cell_of_each_builtin_grid(self, name):
        world = builtin_scenario(name).world
        seen = set()
        for station in [None, *self._stations(world)]:
            where = world._replace(station=station)
            for cell in ((x, y) for x in range(world.width) for y in range(world.height)):
                for gain in (0.0, 0.2, 1.0):
                    got = detect_station_cues(where, cell, gain)
                    assert got == _nearest_rule(where, cell, gain)
                    assert [type(v) for v in got] == [bool, bool]
                    seen.add((gain, got.track_detected))
                if station is not None and station.track_cells():
                    dists = sorted(math.dist(cell, c) for c in station.track_cells())
                    seen.add(("tied", len(dists) > 1 and dists[0] == dists[1]))
        assert {(g, True) for g in (0.0, 0.2, 1.0)} <= seen
        assert ("tied", True) in seen


class TestFollow:
    def test_adjacent_ir_step_arrives(self):
        w = station_world()
        pose, status = step_follow(w, (3, 2), CUE_IR)
        assert status == FOLLOW_ARRIVED
        assert pose == (2, 2)

    def test_mid_track_advances_along_polyline(self):
        w = station_world(track=[(2, 5), (2, 4), (2, 3), (2, 2)])
        pose, status = step_follow(w, (2, 4), CUE_TRACK)
        assert status == FOLLOW_PROGRESSING
        assert pose == (2, 3)

    def test_track_step_onto_station_arrives(self):
        w = station_world(track=[(2, 3), (2, 2)])
        pose, status = step_follow(w, (2, 3), CUE_TRACK)
        assert status == FOLLOW_ARRIVED

    def test_off_track_step_moves_to_nearest_track_cell(self):
        w = station_world(track=[(2, 5), (2, 4), (2, 3), (2, 2)])
        pose, status = step_follow(w, (3, 5), CUE_TRACK)
        assert pose == (2, 5)
        assert status == FOLLOW_PROGRESSING

    def test_gain_drop_loses_ir_after_step(self):
        # detected at the old gain, but the step leaves it outside the new range
        w = station_world(ir_radius=10.0)
        pose, status = step_follow(w, (12, 2), CUE_IR, gain=0.5)
        assert pose == (11, 2)
        assert status == FOLLOW_LOST

    def test_wide_track_gap_loses_the_path(self):
        w = WorldMap(
            width=16, height=12,
            station=StationSpec(
                pos=(2, 1),
                track=((2, 8), (2, 7), (2, 6), (2, 5), (2, 4), (2, 3), (2, 2), (2, 1)),
                gaps=frozenset({(2, 6), (2, 5), (2, 4)}),
            ),
        )
        pose, status = step_follow(w, (2, 6), CUE_TRACK)
        assert pose == (2, 5)  # marches into the gap
        assert status == FOLLOW_LOST


class TestSeekIntensity:
    def test_moves_toward_beacon_due_east(self):
        w = beacon_world(pos=(12, 8))
        pose = step_seek_intensity(w, (8, 8))
        assert pose == (9, 8)

    def test_stays_on_beacon_cell(self):
        w = beacon_world(pos=(8, 8))
        pose = (8, 8)
        assert step_seek_intensity(w, pose) is pose

    def test_ties_prefer_north_first(self):
        # equidistant N and S neighbours; N wins by priority
        w = beacon_world(pos=(4, 8))
        pose = step_seek_intensity(w, (8, 8))
        assert pose == (7, 8)  # W strictly reduces distance, no tie here
        w2 = beacon_world(pos=(8, 8))
        pose2 = step_seek_intensity(w2, (10, 10))
        # N (10,9) and W (9,10) are equidistant from (8,8); N is checked first
        assert pose2 == (10, 9)

    def test_converges_from_every_cell_of_small_grid(self):
        w = beacon_world(width=12, height=9, pos=(3, 5))
        for x in range(12):
            for y in range(9):
                pose = (x, y)
                for _ in range(12 + 9):
                    if pose == (3, 5):
                        break
                    nxt = step_seek_intensity(w, pose)
                    assert intensity_at(w, nxt) > intensity_at(w, pose)
                    pose = nxt
                assert pose == (3, 5)

    def test_no_beacon_means_stay_put(self):
        w = WorldMap(width=6, height=6)
        pose = (3, 3)
        assert step_seek_intensity(w, pose) is pose
