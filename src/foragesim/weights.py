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
import os
import random
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

TOLERANCE = 0.1
# absorbs representation error when grid-valued weights differ by exactly 0.1
_TOL_EPS = 1e-12

WEIGHTS_CSV_HEADER = ("node", "option", "w_pos", "w_neg", "successes", "failures")


class WeightsFileError(ValueError):
    """Malformed weights CSV; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class WeightEntry:
    w_pos: float = 0.0
    w_neg: float = 0.0
    successes: int = 0
    failures: int = 0


@dataclass
class WeightTable:
    """Mutable map of (node, option) -> WeightEntry; absent entries read as zeros."""

    entries: dict[tuple[str, str], WeightEntry]

    def __init__(self, seeds: dict[tuple[str, str], tuple[float, float]] | None = None):
        self.entries = {}
        for (node, option), (w_pos, w_neg) in (seeds or {}).items():
            self.set(node, option, WeightEntry(w_pos=w_pos, w_neg=w_neg))

    def get(self, node: str, option: str) -> WeightEntry:
        return self.entries.get((node, option), WeightEntry())

    def set(self, node: str, option: str, entry: WeightEntry) -> None:
        if not (0.0 <= entry.w_pos <= 1.0 and 0.0 <= entry.w_neg <= 1.0):
            raise ValueError(f"weight out of range for ({node}, {option})")
        self.entries[(node, option)] = entry

    def snapshot(self) -> dict[tuple[str, str], WeightEntry]:
        return dict(self.entries)


def select_option(
    table: WeightTable,
    node: str,
    options: list[str] | tuple[str, ...],
    rng: random.Random,
) -> str:
    """Pick one option for `node` by the stored weights.

    Keeps every option whose success weight is within TOLERANCE of the best,
    then takes the lowest failure weight among them; an exact tie there is
    broken uniformly at random with `rng`.
    """
    if not options:
        raise ValueError("empty option list")
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


def record_outcome(table: WeightTable, node: str, option: str, success: bool) -> WeightEntry:
    """Fold one binary outcome into the entry and return the updated entry.

    Success: w_pos <- (w_pos + 1)/2 and w_neg <- w_neg/2.
    Failure: w_pos <- w_pos/2 and w_neg <- (w_neg + 1)/2.
    Both rules are contractions, so the [0, 1] clamp never has to act.
    """
    entry = table.get(node, option)
    if success:
        updated = replace(
            entry,
            w_pos=_clamp01((entry.w_pos + 1.0) / 2.0),
            w_neg=_clamp01(entry.w_neg / 2.0),
            successes=entry.successes + 1,
        )
    else:
        updated = replace(
            entry,
            w_pos=_clamp01(entry.w_pos / 2.0),
            w_neg=_clamp01((entry.w_neg + 1.0) / 2.0),
            failures=entry.failures + 1,
        )
    table.set(node, option, updated)
    return updated


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def save_weights(table: WeightTable, path: str | Path) -> None:
    """Write the table as CSV, weights at nine decimal digits, sorted rows.

    The rows go to a temporary file beside `path` that then replaces it, so a
    write that fails part way leaves the previous file as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(WEIGHTS_CSV_HEADER)
            for (node, option) in sorted(table.entries):
                e = table.entries[(node, option)]
                writer.writerow(
                    [node, option, f"{e.w_pos:.9f}", f"{e.w_neg:.9f}", e.successes, e.failures]
                )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_weights(path: str | Path) -> WeightTable:
    """Read a weights CSV; a missing file yields a fresh zero table with a warning."""
    path = Path(path)
    table = WeightTable()
    if not path.exists():
        warnings.warn(f"weights file {path} not found; starting from a zero table")
        return table
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if tuple(row) != WEIGHTS_CSV_HEADER:
                    raise WeightsFileError("bad header", lineno)
                continue
            if not row:
                continue
            if len(row) != 6:
                raise WeightsFileError(f"expected 6 fields, got {len(row)}", lineno)
            node, option = row[0], row[1]
            try:
                w_pos, w_neg = float(row[2]), float(row[3])
                successes, failures = int(row[4]), int(row[5])
            except ValueError as exc:
                raise WeightsFileError(f"bad number: {exc}", lineno) from None
            if not (0.0 <= w_pos <= 1.0 and 0.0 <= w_neg <= 1.0):
                raise WeightsFileError("weight out of range", lineno)
            if successes < 0 or failures < 0:
                raise WeightsFileError("negative counter", lineno)
            table.entries[(node, option)] = WeightEntry(w_pos, w_neg, successes, failures)
    return table
