"""Deterministic seed derivation for reproducible parallel Monte Carlo.

Every simulation unit (sample i of a run, grid point j, study row r) gets its
own integer seed derived from a master seed and an index key. Results are
therefore independent of evaluation order and of how work is split across
processes.
"""

from __future__ import annotations

import numpy as np


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive a 128-bit child seed from a master seed and an index tuple."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    a, b = ss.generate_state(2, np.uint64)
    return (int(a) << 64) | int(b)


def spawn_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator seeded by ``derive_seed(master_seed, *key)``."""
    return np.random.default_rng(derive_seed(master_seed, *key))
