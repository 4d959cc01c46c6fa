"""Deterministic random-number streams.

All randomness in the package flows through Philox (counter-based) generators
derived from a root seed plus a named path, e.g. ``stream(seed, "train", loop)``.
Distinct paths give statistically independent streams, so batch work can be
fanned out without changing results.
"""

from __future__ import annotations

import zlib

import numpy as np


def _path_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part)
    return zlib.crc32(str(part).encode("utf-8"))


def _is_int(v) -> bool:
    """An int or a numpy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def stream(seed: int, *path) -> np.random.Generator:
    """Philox generator for (seed, path); path parts are ints or names, the seed a non-negative integer."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer; got {seed!r}")
    key = tuple(_path_part(p) for p in path)
    seq = np.random.SeedSequence(int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))
