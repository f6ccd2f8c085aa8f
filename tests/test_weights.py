import csv
import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foragesim.weights import (
    _TOL_EPS,
    TOLERANCE,
    WeightEntry,
    WeightTable,
    WeightsFileError,
    load_weights,
    record_outcome,
    save_weights,
    select_option,
    _clamp01,
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


_WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(0, 1074).map(lambda k: 0.5**k),
    st.floats(min_value=0.0, max_value=1.0),
)


def _near(pool):
    """A weight from `pool`, moved by nothing, by the tolerance either way or
    by a few ulps, so that options tie, nearly tie or sit on the boundary."""
    return st.builds(
        lambda w, shift, ulps: _clamp01(_ulps(w + shift, ulps)),
        st.sampled_from(pool),
        st.sampled_from([0.0, 0.0, TOLERANCE, -TOLERANCE, TOLERANCE + 1e-12, -TOLERANCE - 1e-12]),
        st.integers(-2, 2),
    )


def _ulps(w, n):
    for _ in range(abs(n)):
        w = math.nextafter(w, math.copysign(math.inf, n))
    return w


@st.composite
def _choice_entries(draw):
    """2-4 options' (w_pos, w_neg), drawn near a few shared weights: tied,
    near-tied, subnormal, 0 and 1 alike."""
    pool = draw(st.lists(_WEIGHT, min_size=1, max_size=3))
    pair = st.tuples(_near(pool), _near(pool))
    return draw(st.lists(pair, min_size=2, max_size=4))


class _Draws:
    """An rng that notes every draw and returns `value` modulo its stop."""

    def __init__(self, value=0):
        self.stops = []
        self.value = value

    def randrange(self, stop):
        self.stops.append(stop)
        return self.value % stop


def _by_the_rule(table, node, options, rng):
    """`select_option`'s rule step by step: the candidates within tolerance
    of the best success weight, then those of them with the least failure
    weight, then a draw among those."""
    entries = [table.get(node, o) for o in options]
    best = max(e.w_pos for e in entries)
    cands = [i for i, e in enumerate(entries) if best - e.w_pos <= TOLERANCE + _TOL_EPS]
    if len(cands) == 1:
        return options[cands[0]]
    min_neg = min(entries[i].w_neg for i in cands)
    tied = [i for i in cands if entries[i].w_neg == min_neg]
    if len(tied) == 1:
        return options[tied[0]]
    return options[tied[rng.randrange(len(tied))]]


class TestSelectByTheRule:
    """`select_option` takes its candidates in one pass; it must pick as the
    rule does, step by step, and make the same draws."""

    @settings(max_examples=300, deadline=None)
    @given(entries=_choice_entries(), absent=st.sets(st.integers(0, 3)), value=st.integers(0, 3))
    def test_same_pick_and_draws_as_the_rule(self, entries, absent, value):
        options = [f"o{i}" for i in range(len(entries))]
        table = WeightTable({("n", o): pair for i, (o, pair) in enumerate(zip(options, entries))
                             if i not in absent})
        got, want = _Draws(value), _Draws(value)
        assert select_option(table, "n", options, got) == _by_the_rule(table, "n", options, want)
        assert got.stops == want.stops


class TestPickWithoutDraw:
    """The lemma a nonvolatile batch copies lives by (`sim.run_monte_carlo`):
    an option picked without a draw is still picked, without a draw, after
    any number of successes on it."""

    @settings(max_examples=400, deadline=None)
    @given(entries=_choice_entries(), successes=st.integers(1, 50))
    def test_successes_keep_the_pick(self, entries, successes):
        options = [f"o{i}" for i in range(len(entries))]
        table = WeightTable({("n", o): pair for o, pair in zip(options, entries)})
        rng = _Draws()
        picked = select_option(table, "n", options, rng)
        assume(not rng.stops)
        for _ in range(successes):
            record_outcome(table, "n", picked, success=True)
            assert select_option(table, "n", options, rng) == picked
            assert rng.stops == []

    def test_tied_tables_draw(self):
        # the property is not vacuous: such tables do reach the rng
        table = WeightTable({("n", "a"): (0.5, 0.5), ("n", "b"): (0.5 + TOLERANCE, 0.5)})
        rng = _Draws()
        select_option(table, "n", ["a", "b"], rng)
        assert rng.stops == [2]


class TestDirectUpdate:
    """record_outcome builds its entry directly; the result is what the
    `_replace` form of the update rules gives, bit for bit."""

    @staticmethod
    def _by_replace(entry, success):
        if success:
            return entry._replace(
                w_pos=_clamp01((entry.w_pos + 1.0) / 2.0),
                w_neg=_clamp01(entry.w_neg / 2.0),
                successes=entry.successes + 1,
            )
        return entry._replace(
            w_pos=_clamp01(entry.w_pos / 2.0),
            w_neg=_clamp01((entry.w_neg + 1.0) / 2.0),
            failures=entry.failures + 1,
        )

    @settings(max_examples=300, deadline=None)
    @given(
        w_pos=_WEIGHT, w_neg=_WEIGHT,
        successes=st.integers(0, 10**9), failures=st.integers(0, 10**9),
        success=st.booleans(),
    )
    def test_bitwise_equal_to_the_replace_form(self, w_pos, w_neg, successes, failures, success):
        entry = WeightEntry(w_pos, w_neg, successes, failures)
        table = WeightTable()
        table.set("n", "a", entry)
        got = record_outcome(table, "n", "a", success)
        want = self._by_replace(entry, success)
        assert (got.w_pos.hex(), got.w_neg.hex()) == (want.w_pos.hex(), want.w_neg.hex())
        assert (got.successes, got.failures) == (want.successes, want.failures)
        assert table.get("n", "a") is got

    def test_absent_keys_stay_zero_after_an_update(self):
        table = WeightTable()
        zero = table.get("n", "b")
        record_outcome(table, "n", "a", success=True)
        record_outcome(table, "n", "c", success=False)
        assert zero == table.get("n", "b") == table.get("m", "x") == WeightEntry()
        assert table.get("n", "a") == WeightEntry(0.5, 0.0, 1, 0)
        with pytest.raises(AttributeError):
            zero.w_pos = 1.0
        assert zero == WeightEntry() and zero.w_pos == 0.0


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

    def test_stale_temporary_file_does_not_break_the_next_save(self, tmp_path):
        # a save killed before its os.replace leaves `w.csv.tmp` with any bytes
        path = tmp_path / "w.csv"
        save_weights(WeightTable(SIGNAL_VS_TRACK), path)
        (tmp_path / "w.csv.tmp").write_bytes(b"node,opt\xff\x00\r\ngarbage")
        table = WeightTable(SIGNAL_VS_TRACK)
        record_outcome(table, "decision_flow", "follow_track_path", success=True)
        save_weights(table, path)
        assert load_weights(path) == table
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

    def test_duplicate_row_reports_the_second_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "node,option,w_pos,w_neg,successes,failures\n"
            "seek,a,0.5,0.0,1,0\nseek,b,0.25,0.0,0,0\nseek,a,0.75,0.0,2,0\n"
        )
        with pytest.raises(WeightsFileError, match=r"^line 4: duplicate row for \(seek, a\)$") as err:
            load_weights(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("rows, message", [
        ('"se\nek",a,0.5,0.5,0,0\n', r"^line 2: bad name 'se\\nek'$"),
        # a quoted field spans lines 2-3; a number with a newline is a bad number
        ('seek,a,"0.5\n",0.5,0,0\nseek,b,2.0,0.5,0,0\n', r"^line 2: bad number '0.5\\n'$"),
    ], ids=["name_spans_lines", "field_spans_lines"])
    def test_errors_name_the_line_the_row_starts_on(self, tmp_path, rows, message):
        path = tmp_path / "w.csv"
        path.write_text("node,option,w_pos,w_neg,successes,failures\n" + rows)
        with pytest.raises(WeightsFileError, match=message):
            load_weights(path)

    @pytest.mark.parametrize("third, message", [
        (b"seek,b,2.0,0.5,0,0", "line 3: weight out of range"),
        (b"se\xffek,b,0.5,0.5,0,0", "line 3: not UTF-8 text"),
    ], ids=["bad_weight", "bad_byte"])
    def test_lone_cr_line_ends_number_lines_one_way(self, tmp_path, third, message):
        # a lone "\r" ends a line for the csv reader and for the UTF-8 check alike
        path = tmp_path / "w.csv"
        path.write_bytes(b"node,option,w_pos,w_neg,successes,failures\rseek,a,0.5,0.5,0,0\r"
                         + third + b"\r")
        with pytest.raises(WeightsFileError, match=f"^{message}$"):
            load_weights(path)

    def test_byte_order_mark_loads_the_same_table(self, tmp_path):
        table = WeightTable(SIGNAL_VS_TRACK)
        record_outcome(table, "decision_flow", "follow_ir_signal", success=True)
        path = tmp_path / "w.csv"
        save_weights(table, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_weights(path) == table

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_bad_byte_after_a_byte_order_mark_is_on_the_same_line(self, tmp_path, bom):
        path = tmp_path / "w.csv"
        path.write_bytes(bom + b"node,option,w_pos,w_neg,successes,failures\n"
                               b"seek,a,0.5,0.5,0,0\nse\xffek,b,0.5,0.5,0,0\n")
        with pytest.raises(WeightsFileError, match="^line 3: not UTF-8 text$"):
            load_weights(path)

    # each loaded with `float`/`int` before; the DSL rejects each weight form
    @pytest.mark.parametrize("row, message", [
        ("seek,a,0.1_0,0.5,0,0", "bad number '0.1_0'"),
        ("seek,a, 0.5 ,0.5,0,0", "bad number ' 0.5 '"),
        ("seek,a,0.5,1_0,0,0", "bad number '1_0'"),
        ("seek,a,+0.5,0.5,0,0", "bad number '+0.5'"),
        ("seek,a,1e-1,0.5,0,0", "bad number '1e-1'"),
        ("seek,a,.5,0.5,0,0", "bad number '.5'"),
        ("seek,a,0.5,0.1234567891,0,0", "more than 9 fractional digits in '0.1234567891'"),
        ('seek,a,"0.5\n",0.5,0,0', "bad number '0.5\\n'"),
        ('seek,a,"0.5\r\n",0.5,0,0', "bad number '0.5\\r\\n'"),
        ("seek,a,0.5,0.5,+3,0", "bad counter '+3'"),
        ("seek,a,0.5,0.5,0,1_0", "bad counter '1_0'"),
        ("seek,a,0.5,0.5, 3,0", "bad counter ' 3'"),
        ("seek,a,0.5,0.5,3.0,0", "bad counter '3.0'"),
        ("seek,a,0.5,0.5,-1,0", "bad counter '-1'"),
        ("seek,a,0.5,0.5,\u0663,0", "bad counter '\u0663'"),
        ("seek,a,\uff11,0.5,0,0", "bad number '\uff11'"),
        ("seek,a,0.5,\u0660.\u0662,0,0", "bad number '\u0660.\u0662'"),
        ("seek,a,0.5,0.5,0,", "bad counter ''"),
        ('"seek\n",a,0.5,0.5,0,0', "bad name 'seek\\n'"),
    ])
    def test_only_dsl_numbers_load(self, tmp_path, row, message):
        path = tmp_path / "w.csv"
        path.write_text("node,option,w_pos,w_neg,successes,failures\nn,b,0.5,0.5,1,2\n" + row + "\n",
                        encoding="utf-8", newline="")
        with pytest.raises(WeightsFileError, match=f"^{re.escape('line 3: ' + message)}$"):
            load_weights(path)

    def test_every_saved_file_loads(self, tmp_path):
        table = WeightTable()
        for i, w in enumerate([0.0, 1.0, 1e-10, 0.1 + 0.2, 0.5**40, 1 - 1e-12]):
            table.set("n", f"o{i}", WeightEntry(w, 1.0 - w, i * 10**12, i))
        path = tmp_path / "w.csv"
        save_weights(table, path)
        loaded = load_weights(path)
        assert {k: (e.successes, e.failures) for k, e in loaded.entries.items()} == {
            k: (e.successes, e.failures) for k, e in table.entries.items()}
        for key, entry in loaded.entries.items():
            assert (entry.w_pos, entry.w_neg) == (
                float(f"{table.entries[key].w_pos:.9f}"), float(f"{table.entries[key].w_neg:.9f}"))

    def test_negative_zero_loads_as_zero(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("node,option,w_pos,w_neg,successes,failures\nseek,a,-0.000000000,-0,0,0\n")
        entry = load_weights(path).get("seek", "a")
        assert (math.copysign(1.0, entry.w_pos), math.copysign(1.0, entry.w_neg)) == (1.0, 1.0)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("nope\n")
        with pytest.raises(WeightsFileError, match="line 1"):
            load_weights(path)

    @pytest.mark.parametrize("content", [b"", b"\xef\xbb\xbf"], ids=["empty", "bom_only"])
    def test_an_empty_file_has_a_bad_header(self, tmp_path, content):
        # not a table: loading it must not give an all-zero one
        path = tmp_path / "w.csv"
        path.write_bytes(content)
        with pytest.raises(WeightsFileError, match="^line 1: bad header$") as caught:
            load_weights(path)
        assert caught.value.line == 1

    @pytest.mark.parametrize("newline", ["", "\n", "\r\n"])
    def test_a_header_alone_is_an_empty_table(self, tmp_path, newline):
        path = tmp_path / "w.csv"
        path.write_text("node,option,w_pos,w_neg,successes,failures" + newline, newline="")
        assert load_weights(path) == WeightTable()
