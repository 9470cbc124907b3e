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


def assign_folds(unit_ids: Sequence[str], n_folds: int, seed: int) -> dict[str, int]:
    """Seeded balanced fold assignment keyed by unit id.

    Fold sizes differ by at most one. The assignment depends only on the
    sorted id set, n_folds, and the seed, never on input order.
    """
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    ids = sorted(set(unit_ids))
    if len(ids) != len(unit_ids):
        raise ConfigError("unit ids must be unique for fold assignment")
    if n_folds > len(ids):
        raise ConfigError(
            f"too few units for {n_folds} folds: have {len(ids)}"
        )
    rng = np.random.default_rng(check_seed(seed))
    order = rng.permutation(len(ids))
    return {ids[j]: int(pos % n_folds) for pos, j in enumerate(order)}
