"""Deterministic seed derivation and fold assignment.

All randomness in a run flows from one root seed. Stage- and task-level
seeds are derived by hashing a label, so adding or reordering stages never
perturbs the streams of the others.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .errors import ConfigError


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a child seed from ``root_seed`` and a stable string label."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_seed(seed: int) -> int:
    """A seed for np.random.default_rng, which takes only non-negative integers."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def assign_folds(unit_ids: Sequence[str], n_folds: int, seed: int) -> np.ndarray:
    """Seeded balanced folds of ``unit_ids``: each id's fold as int64, in the order given.

    Fold sizes differ by at most one. An id's fold depends only on the
    sorted id set, n_folds, and the seed, never on input order.
    """
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    n = len(unit_ids)
    if len(set(unit_ids)) != n:
        raise ConfigError("unit ids must be unique for fold assignment")
    if n_folds > n:
        raise ConfigError(
            f"too few units for {n_folds} folds: have {n}"
        )
    rng = np.random.default_rng(check_seed(seed))
    # ranked[j]: the position of the j-th smallest id by Python's sort (a numpy string
    # sort drops trailing NULs). The pos-th id of a seeded shuffle takes fold pos % n_folds.
    ranked = np.array(sorted(range(n), key=unit_ids.__getitem__), dtype=np.int64)
    folds = np.empty(n, dtype=np.int64)
    folds[ranked[rng.permutation(n)]] = np.arange(n) % n_folds
    return folds
