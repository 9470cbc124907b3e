"""Reductions over a short axis, one slice at a time in index order."""

import numpy as np


def reduce_in_order(op: np.ufunc, a: np.ndarray, axis: int | tuple[int, ...] = -1) -> np.ndarray:
    """Fold ``op`` (np.add, np.maximum) over ``axis``, or over axes last first, in index order.

    np.sum adds a contiguous axis in order only while it is shorter than 8,
    so its rounding depends on the length; and over a short axis a numpy
    reduction is much slower than a few elementwise ops.
    """
    if isinstance(axis, tuple):
        for ax in sorted((ax % a.ndim for ax in axis), reverse=True):
            a = reduce_in_order(op, a, ax)
        return a
    lead = (slice(None),) * (axis % a.ndim)
    out = np.array(a[lead + (0,)])  # a 0-d array, not a scalar, when a is 1-d
    for j in range(1, a.shape[axis]):
        op(out, a[lead + (j,)], out=out)
    return out
