"""Deterministic seed derivation for reproducible parallel Monte Carlo.

Every simulation unit (sample i of a run, grid point j, study row r) gets its
own integer seed derived from a master seed and an index key. Results are
therefore independent of evaluation order and of how work is split across
processes. This module is the only one that builds seed sequences and bit
generators, so every draw gets its generator one way.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput


def _seed_words(master_seed: int, key: tuple) -> np.ndarray:
    """The 128-bit child seed of (master_seed, key) as four 32-bit words, low
    word first, which is how ``SeedSequence`` reads an integer."""
    if master_seed < 0:
        raise InvalidInput(f"master seed must be a non-negative integer, got {master_seed}")
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return ss.generate_state(4, np.uint32)[[2, 3, 0, 1]]


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive a 128-bit child seed from a master seed and an index tuple."""
    return int.from_bytes(_seed_words(master_seed, key).astype("<u4").tobytes(), "little")


def spawn_rng(master_seed: int, *key: int) -> np.random.Generator:
    """The generator ``np.random.default_rng(derive_seed(master_seed, *key))``,
    built from the seed's words without the round trip through an integer (a
    zero high word hashes as the padding of a shorter integer would)."""
    words = _seed_words(master_seed, key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
