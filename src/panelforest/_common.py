"""Small helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["star_code", "segment_starts", "segment_ids"]


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
