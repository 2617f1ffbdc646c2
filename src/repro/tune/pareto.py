"""Exact vectorized Pareto-frontier extraction (minimization).

The tuner's objective vectors are tiny tuples — (time, energy, EDP) —
over up to tens of thousands of priced configurations, of which only a
few dozen survive.  So the extraction never builds the n x n dominance
matrix: rows are sorted lexicographically, which puts every row's
dominators before it, and each block of rows is tested only against
itself and the non-dominated rows of the earlier blocks.  The cost is
O(n log n) for the sort plus O(n x (frontier + block)) comparisons,
instead of O(n^2).

The result depends only on the set of rows, never their order, and
duplicated frontier points all survive (neither strictly dominates the
other): permuting the input rows permutes the mask identically.
"""

from __future__ import annotations

import numpy as np

#: Rows per dominance block.  Each block is compared with the frontier
#: found so far and with itself, so the block term of the cost is
#: ``_BLOCK`` comparisons per row.
_BLOCK = 256


def _covered(by: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``out[i, j]`` is true when ``by[j] <= rows[i]`` on every column.

    Looping over the few columns keeps every temporary two-dimensional;
    a NaN compares false, so a row holding one neither covers nor is
    covered.
    """
    out = np.ones((len(rows), len(by)), dtype=bool)
    for col in range(rows.shape[1]):
        out &= by[:, col] <= rows[:, col, None]
    return out


def pareto_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of ``objectives``.

    All columns are minimized.  Row ``a`` dominates row ``b`` when
    ``a <= b`` on every objective and ``a < b`` on at least one;
    a row survives iff no other row dominates it.  Exact (no epsilon),
    deterministic, and order-independent — identical rows either all
    survive or all fall together.

    >>> import numpy as np
    >>> pareto_mask(np.array([[1.0, 4.0], [2.0, 2.0], [3.0, 3.0]]))
    array([ True,  True, False])
    """
    points = np.asarray(objectives, dtype=float)
    if points.ndim != 2:
        raise ValueError(
            f"objectives must be a 2-D (points x objectives) array, "
            f"got shape {points.shape}"
        )
    n, k = points.shape
    if n == 0 or k == 0:
        return np.ones(n, dtype=bool)
    # A dominator is <= everywhere and differs somewhere, so it sorts
    # strictly before the row it dominates.
    order = np.lexsort(points.T[::-1])
    ordered = points[order]
    # Equal rows never dominate each other and share every verdict, so
    # only the first of each run of equal rows is tested.
    first = np.ones(n, dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    distinct = ordered[first]
    # Between distinct rows, "<= everywhere" already means dominance.
    keep = np.empty(len(distinct), dtype=bool)
    frontier = distinct[:0]
    for start in range(0, len(distinct), _BLOCK):
        block = distinct[start:start + _BLOCK]
        within = _covered(block, block)
        np.fill_diagonal(within, False)
        # A row dominated from an earlier block is dominated by a
        # frontier row of an earlier block too (dominance is
        # transitive), so those blocks' dominated rows can be dropped.
        survive = ~(within.any(axis=1)
                    | _covered(frontier, block).any(axis=1))
        keep[start:start + len(block)] = survive
        frontier = np.concatenate([frontier, block[survive]])
    mask = np.empty(n, dtype=bool)
    mask[order] = keep[np.cumsum(first) - 1]
    return mask


def pareto_indices(objectives: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows, in input order."""
    return np.flatnonzero(pareto_mask(objectives))
