"""Brute-force oracle for pixpoint.nn.points.knn_indices.

Distances come from coordinate differences, not from the Gram-matrix
expansion the library uses, and each row is ordered by (distance, index)
with np.lexsort: ties go to the lower index, as knn_indices promises.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 256  # rows per block; bounds memory at _CHUNK x N distances


def knn_oracle(positions: np.ndarray, k: int) -> np.ndarray:
    """(N, min(k, N)) neighbour indices, each row sorted ascending."""
    n = positions.shape[0]
    k_eff = min(k, n)
    out = np.empty((n, k_eff), dtype=np.int64)
    for start in range(0, n, _CHUNK):
        block = positions[start : start + _CHUNK]
        d2 = ((block[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
        index = np.broadcast_to(np.arange(n), d2.shape)
        order = np.lexsort((index, d2), axis=1)[:, :k_eff]
        out[start : start + block.shape[0]] = np.sort(order, axis=1)
    return out


def mismatched_rows(positions: np.ndarray, k: int, table: np.ndarray) -> np.ndarray:
    """Indices of the rows where `table` differs from the oracle."""
    expected = knn_oracle(positions, k)
    if table.shape != expected.shape:
        return np.arange(positions.shape[0])
    return np.flatnonzero((table != expected).any(axis=1))
