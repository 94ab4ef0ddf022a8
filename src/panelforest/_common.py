"""Small helpers shared across modules."""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = ["star_code", "fmt4", "write_csv", "segment_starts", "segment_ids", "is_integer",
           "is_number", "count_problem"]


def is_integer(value) -> bool:
    """True for an int or numpy integer; a bool is a switch, not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def count_problem(value, name: str, minimum: int) -> str | None:
    """The problem with `value` as the count or seed `name`, or None when it
    is an integer >= `minimum`: the one check, and message, every count has."""
    if is_integer(value) and value >= minimum:
        return None
    return f"{name} must be an integer >= {minimum}, got {value!r}"


def is_number(value) -> bool:
    """True for an int, a float or a real numpy number; not for a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def star_code(p: float) -> str:
    """Significance stars: *** p<=0.01, ** p<=0.05, * p<=0.10, else empty."""
    if p is None or math.isnan(p):
        return ""
    if p <= 0.01:
        return "***"
    if p <= 0.05:
        return "**"
    if p <= 0.10:
        return "*"
    return ""


def fmt4(v) -> str:
    """Display form of a table value: 4 decimals, "n/a" for NaN, "" for
    None, and str() of anything that is not a number."""
    if v is None:
        return ""
    try:
        f = float(v)
    except (TypeError, ValueError):
        return str(v)
    return "n/a" if math.isnan(f) else f"{f:.4f}"


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write one CSV artifact (UTF-8), creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def segment_starts(codes: np.ndarray) -> np.ndarray:
    """Start offset of each run of equal codes, followed by len(codes).

    On rows sorted by entity, segment g spans rows
    ``starts[g]:starts[g + 1]``, in the entities' sorted order.
    """
    codes = np.asarray(codes)
    change = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    return np.concatenate(([0], change, [len(codes)])) if len(codes) else np.zeros(1, int)


def segment_ids(codes: np.ndarray) -> np.ndarray:
    """Run number of every element (0, 1, ...): on entity-sorted rows, the
    codes ``np.unique(codes, return_inverse=True)`` gives, without a sort."""
    starts = segment_starts(codes)
    return np.repeat(np.arange(len(starts) - 1), np.diff(starts))
