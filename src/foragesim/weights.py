"""Reinforcement weights for choice nodes: selection rule and feedback updates.

Each (node, option) pair carries a success weight and a failure weight, both
in [0, 1], plus attempt counters. Selection keeps every option whose success
weight sits within tolerance of the leader, prefers the lowest failure weight
among those, and only draws at random on an exact tie (which covers the
all-zero cold start). Feedback averages the current weight with the binary
outcome, so a miss halves the success weight.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple, Protocol, TextIO

from .scenario import IDENT_RE, ScenarioError, decode_text, read_number

TOLERANCE = 0.1
# absorbs representation error when grid-valued weights differ by exactly 0.1
_TOL_EPS = 1e-12

WEIGHTS_CSV_HEADER = ("node", "option", "w_pos", "w_neg", "successes", "failures")


class WeightsFileError(ValueError):
    """Malformed weights CSV; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class WeightEntry(NamedTuple):
    w_pos: float = 0.0
    w_neg: float = 0.0
    successes: int = 0
    failures: int = 0


# what an absent key reads as; entries are frozen, so one instance serves all
_ZERO = WeightEntry()


class WeightTable:
    """Mutable map of (node, option) -> WeightEntry; absent entries read as zeros."""

    __slots__ = ("entries",)

    def __init__(self, seeds: dict[tuple[str, str], tuple[float, float]] | None = None):
        self.entries = {}
        for (node, option), (w_pos, w_neg) in (seeds or {}).items():
            self.set(node, option, WeightEntry(w_pos=w_pos, w_neg=w_neg))

    def get(self, node: str, option: str) -> WeightEntry:
        return self.entries.get((node, option), _ZERO)

    def set(self, node: str, option: str, entry: WeightEntry) -> None:
        if not (0.0 <= entry.w_pos <= 1.0 and 0.0 <= entry.w_neg <= 1.0):
            raise ValueError(f"weight out of range for ({node}, {option})")
        self.entries[(node, option)] = entry

    def snapshot(self) -> dict[tuple[str, str], WeightEntry]:
        return dict(self.entries)

    def __eq__(self, other):
        return self.entries == other.entries if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"WeightTable(entries={self.entries!r})"


class Rng(Protocol):
    """What `select_option` draws from: a `random.Random`, or anything with its `randrange`.

    `randrange` must stay the only call made on it: a volatile Monte Carlo
    batch replays each life's seed as `random.Random(seed).randrange(stop)`
    per draw to find the lives it can copy (`sim.run_monte_carlo`).
    """

    def randrange(self, stop: int, /) -> int: ...


def select_option(
    table: WeightTable,
    node: str,
    options: list[str] | tuple[str, ...],
    rng: Rng,
) -> str:
    """Pick one option for `node` by the stored weights.

    Keeps every option whose success weight is within TOLERANCE of the best,
    then takes the lowest failure weight among them (both in one pass over
    the entries, each read with one lookup); an exact tie there is broken
    uniformly at random by `rng.randrange(len(tied))`. Nothing else of
    `rng` is used, so it may be anything with `randrange`, and it is not
    touched when there is no tie.
    """
    if not options:
        raise ValueError("empty option list")
    get = table.entries.get
    entries = [get((node, o), _ZERO) for o in options]
    best, within = max([e.w_pos for e in entries]), TOLERANCE + _TOL_EPS
    tied, least = [], None  # the candidates with the least failure weight so far
    for i, (w_pos, w_neg, _, _) in enumerate(entries):
        if best - w_pos <= within:
            if least is None or w_neg < least:
                tied, least = [i], w_neg
            elif w_neg == least:
                tied.append(i)
    if len(tied) == 1:
        return options[tied[0]]
    return options[tied[rng.randrange(len(tied))]]


def record_outcome(table: WeightTable, node: str, option: str, success: bool) -> WeightEntry:
    """Fold one binary outcome into the entry and return the updated entry.

    Success: w_pos <- (w_pos + 1)/2 and w_neg <- w_neg/2.
    Failure: w_pos <- w_pos/2 and w_neg <- (w_neg + 1)/2.
    Both rules map [0, 1] into itself; the clamp turns a -0.0 into 0.0, and
    maps any value, NaN included, into [0, 1], so the entry is stored without
    `WeightTable.set`'s range check.
    """
    key = (node, option)
    e = table.entries.get(key, _ZERO)
    if success:
        updated = WeightEntry(
            _clamp01((e.w_pos + 1.0) / 2.0), _clamp01(e.w_neg / 2.0), e.successes + 1, e.failures
        )
    else:
        updated = WeightEntry(
            _clamp01(e.w_pos / 2.0), _clamp01((e.w_neg + 1.0) / 2.0), e.successes, e.failures + 1
        )
    table.entries[key] = updated
    return updated


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


@contextmanager
def replacing(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Write `path` safely against a process kill (not power loss: nothing
    calls `fsync`): yield a text file opened beside it as `path.tmp`, which
    replaces `path` when the block ends. A block that fails part way removes
    the temporary file and leaves `path` as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_weights(table: WeightTable, path: str | Path) -> None:
    """Write the table as CSV, weights at nine decimal digits, sorted rows.

    The write goes through `replacing`, so one that fails part way leaves
    the previous file as it was.
    """
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEIGHTS_CSV_HEADER)
        for (node, option) in sorted(table.entries):
            e = table.entries[(node, option)]
            writer.writerow(
                [node, option, f"{e.w_pos:.9f}", f"{e.w_neg:.9f}", e.successes, e.failures]
            )


def load_weights(path: str | Path) -> WeightTable:
    """Read a weights CSV; a missing file yields a fresh zero table with a warning.

    The bytes are decoded as a `.scn` file's are (`scenario.decode_text`:
    UTF-8, one leading byte-order mark dropped). Weights are read as the DSL
    reads numbers (`scenario.read_number`), and counters are plain ASCII
    digits, so a `+`, `_`, an exponent or space around a value is an error.
    A malformed row, a node or option that is not a DSL identifier, or a
    second row for the same (node, option), raises `WeightsFileError` at the
    file line on which the row starts; an empty file has a bad header at
    line 1, and a header alone is an empty table.
    """
    path = Path(path)
    table = WeightTable()
    if not path.exists():
        warnings.warn(f"weights file {path} not found; starting from a zero table")
        return table
    try:
        text = decode_text(path.read_bytes())
    except ScenarioError as exc:  # lines end as for the reader below
        [diag] = exc.diagnostics
        raise WeightsFileError(diag.message, diag.line) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    next_line = 1  # a quoted field may span lines, so a row starts after the last one read
    for row in reader:
        lineno, next_line = next_line, reader.line_num + 1
        if lineno == 1:
            if tuple(row) != WEIGHTS_CSV_HEADER:
                raise WeightsFileError("bad header", lineno)
            continue
        if not row:
            continue
        if len(row) != 6:
            raise WeightsFileError(f"expected 6 fields, got {len(row)}", lineno)
        node, option = row[0], row[1]
        for name in (node, option):
            if not IDENT_RE.fullmatch(name):
                raise WeightsFileError(f"bad name {name!r}", lineno)
        if (node, option) in table.entries:
            raise WeightsFileError(f"duplicate row for ({node}, {option})", lineno)
        try:
            w_pos, w_neg = read_number(row[2]), read_number(row[3])
            successes, failures = _read_counter(row[4]), _read_counter(row[5])
        except ValueError as exc:
            raise WeightsFileError(str(exc), lineno) from None
        if not (0.0 <= w_pos <= 1.0 and 0.0 <= w_neg <= 1.0):
            raise WeightsFileError("weight out of range", lineno)
        table.entries[(node, option)] = WeightEntry(w_pos, w_neg, successes, failures)
    if next_line == 1:  # no row at all, so no header either
        raise WeightsFileError("bad header", 1)
    return table


def _read_counter(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"bad counter {token!r}")
    return int(token)
