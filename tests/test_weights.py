import csv
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foragesim.weights import (
    WeightEntry,
    WeightTable,
    WeightsFileError,
    load_weights,
    record_outcome,
    save_weights,
    select_option,
)

SIGNAL_VS_TRACK = {
    ("decision_flow", "follow_ir_signal"): (0.8, 0.1),
    ("decision_flow", "follow_track_path"): (0.2, 0.7),
}


class TestSelect:
    def test_clear_leader_wins(self):
        table = WeightTable(SIGNAL_VS_TRACK)
        rng = random.Random(0)
        options = ["follow_ir_signal", "follow_track_path"]
        assert select_option(table, "decision_flow", options, rng) == "follow_ir_signal"

    def test_within_tolerance_lower_negative_wins(self):
        table = WeightTable(
            {
                ("discover", "engage"): (0.8, 0.7),
                ("discover", "poll"): (0.75, 0.4),
            }
        )
        rng = random.Random(0)
        assert select_option(table, "discover", ["engage", "poll"], rng) == "poll"

    def test_all_zero_picks_uniformly_but_reproducibly(self):
        table = WeightTable()
        options = ["a", "b"]
        first = select_option(table, "n", options, random.Random(42))
        again = select_option(table, "n", options, random.Random(42))
        assert first == again
        seen = {select_option(table, "n", options, random.Random(seed)) for seed in range(50)}
        assert seen == {"a", "b"}

    def test_exact_negative_tie_randomizes(self):
        table = WeightTable({("n", "a"): (0.5, 0.2), ("n", "b"): (0.45, 0.2)})
        seen = {select_option(table, "n", ["a", "b"], random.Random(s)) for s in range(50)}
        assert seen == {"a", "b"}

    def test_near_tie_on_negative_is_not_random(self):
        table = WeightTable({("n", "a"): (0.5, 0.21), ("n", "b"): (0.45, 0.2)})
        assert select_option(table, "n", ["a", "b"], random.Random(0)) == "b"

    def test_empty_options_raise(self):
        with pytest.raises(ValueError):
            select_option(WeightTable(), "n", [], random.Random(0))

    def test_tolerance_boundary_is_inclusive(self):
        table = WeightTable({("n", "a"): (0.8, 0.5), ("n", "b"): (0.7, 0.1)})
        # exactly 0.1 apart: both are candidates, so b wins on negatives
        assert select_option(table, "n", ["a", "b"], random.Random(0)) == "b"

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=0.6),
                st.floats(min_value=0, max_value=1),
            ),
            min_size=2,
            max_size=4,
        ),
        shift=st.floats(min_value=0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_argmax_invariant_under_common_shift(self, w, shift, seed):
        assume(all(wp + shift <= 1.0 for wp, _ in w))
        options = [f"o{i}" for i in range(len(w))]
        base = WeightTable({("n", o): pair for o, pair in zip(options, w)})
        shifted = WeightTable(
            {("n", o): (wp + shift, wn) for o, (wp, wn) in zip(options, w)}
        )
        a = select_option(base, "n", options, random.Random(seed))
        b = select_option(shifted, "n", options, random.Random(seed))
        assert a == b


class TestRecord:
    def test_failure_halves_positive_weight(self):
        table = WeightTable({("n", "a"): (0.8, 0.0)})
        assert record_outcome(table, "n", "a", success=False).w_pos == 0.4

    def test_success_averages_toward_one(self):
        table = WeightTable({("n", "a"): (0.8, 0.0)})
        assert record_outcome(table, "n", "a", success=True).w_pos == pytest.approx(0.9)

    def test_three_successes_from_zero(self):
        table = WeightTable()
        for _ in range(3):
            entry = record_outcome(table, "n", "a", success=True)
        assert entry.w_pos == pytest.approx(0.875)
        assert entry.successes == 3

    def test_counters_track_attempts(self):
        table = WeightTable()
        record_outcome(table, "n", "a", success=True)
        record_outcome(table, "n", "a", success=False)
        e = table.get("n", "a")
        assert (e.successes, e.failures) == (1, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        w0=st.floats(min_value=0, max_value=1),
        outcomes=st.lists(st.booleans(), max_size=60),
    )
    def test_weights_stay_in_unit_interval(self, w0, outcomes):
        table = WeightTable({("n", "a"): (w0, 1 - w0)})
        for success in outcomes:
            e = record_outcome(table, "n", "a", success)
            assert 0.0 <= e.w_pos <= 1.0
            assert 0.0 <= e.w_neg <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        w0=st.floats(min_value=0, max_value=1),
        k=st.integers(min_value=1, max_value=30),
    )
    def test_streak_closed_forms(self, w0, k):
        ups = WeightTable({("n", "a"): (w0, 0.0)})
        downs = WeightTable({("n", "a"): (w0, 0.0)})
        for _ in range(k):
            up = record_outcome(ups, "n", "a", success=True)
            down = record_outcome(downs, "n", "a", success=False)
        assert abs(up.w_pos - (1 - (1 - w0) / 2**k)) <= 1e-12
        assert abs(down.w_pos - w0 / 2**k) <= 1e-12


class TestPersistence:
    def test_round_trip(self, tmp_path):
        table = WeightTable(SIGNAL_VS_TRACK)
        record_outcome(table, "decision_flow", "follow_ir_signal", success=True)
        path = tmp_path / "w.csv"
        save_weights(table, path)
        assert load_weights(path) == table

    def test_nine_decimal_digits_in_file(self, tmp_path):
        table = WeightTable(SIGNAL_VS_TRACK)
        path = tmp_path / "w.csv"
        save_weights(table, path)
        assert "0.800000000" in path.read_text()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "w.csv"
        save_weights(WeightTable(SIGNAL_VS_TRACK), path)
        before = path.read_bytes()
        real_writer = csv.writer

        class FailsAfterHeader:
            def __init__(self, fh):
                self._writer = real_writer(fh)
                self._rows = 0

            def writerow(self, row):
                if self._rows == 1:
                    raise OSError("disk full")
                self._rows += 1
                self._writer.writerow(row)

        monkeypatch.setattr(csv, "writer", FailsAfterHeader)
        table = WeightTable(SIGNAL_VS_TRACK)
        record_outcome(table, "decision_flow", "follow_ir_signal", success=False)
        with pytest.raises(OSError, match="disk full"):
            save_weights(table, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file_warns_and_zeroes(self, tmp_path):
        with pytest.warns(UserWarning, match="zero table"):
            table = load_weights(tmp_path / "absent.csv")
        assert table.entries == {}

    def test_out_of_range_weight_reports_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "node,option,w_pos,w_neg,successes,failures\nn,a,1.5,0.0,0,0\n"
        )
        with pytest.raises(WeightsFileError, match="line 2: weight out of range"):
            load_weights(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "node,option,w_pos,w_neg,successes,failures\nn,a,0.5,0.0,0,0\nn,b,oops,0,0,0\n"
        )
        with pytest.raises(WeightsFileError, match="line 3"):
            load_weights(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("nope\n")
        with pytest.raises(WeightsFileError, match="line 1"):
            load_weights(path)
