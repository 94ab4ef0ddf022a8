"""Hierarchical, order-independent random stream derivation.

Every stochastic component in the package draws from a stream derived from
a master seed plus a path of labels (tree index, variable name, permutation
index, ...).  Streams depend only on (master_seed, path), never on the order
in which they are created, so serial and parallel execution produce
identical results.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ._common import is_integer

__all__ = ["seed_sequence", "derive_seed", "stream"]


def _as_uint(part) -> int:
    """Map a path component to a non-negative integer, stably across runs."""
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"path components must be non-negative, got {part}")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"unsupported path component type: {type(part).__name__}")


def seed_sequence(master_seed: int, *path) -> np.random.SeedSequence:
    """SeedSequence for the stream at `path` under `master_seed`, an
    integer >= 0: a fractional seed would reuse its integer part's stream."""
    if not is_integer(master_seed) or master_seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {master_seed!r}")
    key = tuple(_as_uint(p) for p in path)
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)


def derive_seed(master_seed: int, *path) -> int:
    """63-bit integer seed for the stream at `path` (for APIs taking ints)."""
    words = seed_sequence(master_seed, *path).generate_state(2, dtype=np.uint32)
    return (int(words[0]) | (int(words[1]) << 32)) & (2**63 - 1)


def stream(master_seed: int, *path) -> np.random.Generator:
    """Generator for the stream at `path` under `master_seed`."""
    return np.random.default_rng(seed_sequence(master_seed, *path))
