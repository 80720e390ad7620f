"""Point-cloud encoder: per-point MLP, kNN max aggregation, post MLP.

The neighbourhood of a point always contains the point itself (distance
zero). Neighbour sets are canonical: ties in distance are broken by the
lower point index and each row of the index table is sorted ascending, so
the forward pass is exactly permutation-equivariant and the max-backward
routes gradient to the lowest-index maximizer.

The exact search works on row blocks of KNN_BLOCK_ROWS points, so its
memory is KNN_BLOCK_ROWS x N distances, not N x N. point_forward takes the
neighbour table from its caller. Stage 2 measures neighbours in the
voxelised scan's own frame, before rotation: it searches each distinct
scan once for a wider table ordered by (distance, index) and reads the
neighbours of the points that survive dropout from it (knn_from_table).

point_forward returns features only at the requested rows. The per-point
MLP runs on every point, because neighbours read its output; the max
aggregation and the output MLP run at the rows only. Stage 2 asks for the
points its loss samples, encode_points for all of them.
"""

from __future__ import annotations

import numpy as np

from ..geometry import PointCloud
from .params import EncoderParams3D


KNN_BLOCK_ROWS = 256


def knn_indices(positions: np.ndarray, k: int, by_distance: bool = False) -> np.ndarray:
    """(N, k_eff) nearest-neighbour indices per point, k_eff = min(k, N).

    Euclidean distances on positions, ties to the lower index. Rows are
    sorted by ascending index, or by (distance, index) when by_distance.
    """
    n = positions.shape[0]
    k_eff = min(k, n)
    sq = (positions**2).sum(axis=1)
    nb = np.empty((n, k_eff), dtype=np.int64)
    for start in range(0, n, KNN_BLOCK_ROWS):
        stop = min(start + KNN_BLOCK_ROWS, n)
        rows = np.arange(stop - start)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (positions[start:stop] @ positions.T)
        np.maximum(d2, 0.0, out=d2)
        d2[rows, rows + start] = 0.0
        part = np.argpartition(d2, k_eff - 1, axis=1)[:, :k_eff]
        kth = d2[rows[:, None], part].max(axis=1)
        ambiguous = np.flatnonzero((d2 <= kth[:, None]).sum(axis=1) > k_eff)
        block = np.sort(part, axis=1)
        for i in ambiguous:
            cand = np.flatnonzero(d2[i] <= kth[i])
            order = np.lexsort((cand, d2[i, cand]))
            block[i] = np.sort(cand[order[:k_eff]])
        if by_distance:
            order = np.lexsort((block, d2[rows[:, None], block]), axis=1)
            block = np.take_along_axis(block, order, axis=1)
        nb[start:stop] = block
    return nb


def knn_from_table(
    table: np.ndarray, index_map: np.ndarray, positions: np.ndarray, k: int
) -> np.ndarray:
    """knn_indices(positions[index_map >= 0], k), read from a wider table.

    table is knn_indices(positions, k_wide, by_distance=True). index_map
    sends each point to its row among the survivors, -1 if dropped, and
    keeps their order, so (distance, index) order carries over and the
    first k_eff survivors of a surviving row are its exact neighbours. If
    any row has fewer, the survivors are searched afresh.
    """
    survivors = np.flatnonzero(index_map >= 0)
    k_eff = min(k, survivors.size)
    cand = index_map[table[survivors]]
    alive = cand >= 0
    if (alive.sum(axis=1) < k_eff).any():
        return knn_indices(positions[survivors], k)
    take = alive & (np.cumsum(alive, axis=1) <= k_eff)
    return np.sort(cand[take].reshape(-1, k_eff), axis=1)


def _check_rows(rows: np.ndarray, n: int) -> None:
    if rows.ndim != 1 or rows.size == 0 or not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"rows must be a nonempty 1-D integer array, got {rows.dtype} {rows.shape}")
    if rows.min() < 0 or rows.max() >= n or np.unique(rows).size != rows.size:
        raise ValueError(f"rows must be unique and within [0, {n})")


def point_forward(
    params: EncoderParams3D,
    positions: np.ndarray,
    colors: np.ndarray,
    nb: np.ndarray,
    rows: np.ndarray,
):
    """Forward pass over the (N, k_eff) neighbour table nb, as knn_indices
    gives it, evaluated at the unique point indices rows; returns
    (features (len(rows), D), cache for backward)."""
    _check_rows(rows, positions.shape[0])
    x = np.concatenate([positions, colors], axis=1)
    h1 = np.maximum(x @ params.w1.T + params.b1, 0.0)
    h2 = np.maximum(h1 @ params.w2.T + params.b2, 0.0)
    nb_rows = nb[rows]
    gathered = h2[nb_rows]  # (R, k_eff, 32)
    agg = gathered.max(axis=1)
    arg = gathered.argmax(axis=1)  # first maximum = lowest neighbour index
    c = np.concatenate([h2[rows], agg], axis=1)
    g1 = np.maximum(c @ params.v1.T + params.d1, 0.0)
    out = g1 @ params.v2.T + params.d2
    winners = np.take_along_axis(nb_rows, arg, axis=1)  # (R, 32) source row per channel
    cache = {"x": x, "h1": h1, "h2": h2, "rows": rows, "winners": winners, "c": c, "g1": g1}
    return out, cache


def point_backward(params: EncoderParams3D, cache: dict, grad_out: np.ndarray) -> dict:
    """Gradients of every tensor from grad_out, (len(rows), D): the
    gradient of the rows point_forward returned."""
    x, h1, h2, rows, winners, c, g1 = (
        cache["x"],
        cache["h1"],
        cache["h2"],
        cache["rows"],
        cache["winners"],
        cache["c"],
        cache["g1"],
    )
    width = h2.shape[1]

    grad_g1 = grad_out @ params.v2
    grad_g1 *= g1 > 0.0
    grad_v2 = grad_out.T @ g1
    grad_d2 = grad_out.sum(axis=0)
    grad_c = grad_g1 @ params.v1
    grad_v1 = grad_g1.T @ c
    grad_d1 = grad_g1.sum(axis=0)

    grad_h2 = np.zeros_like(h2)
    grad_h2[rows] = grad_c[:, :width]  # rows are unique
    cols = np.broadcast_to(np.arange(width), winners.shape)
    np.add.at(grad_h2, (winners.ravel(), cols.ravel()), grad_c[:, width:].ravel())

    grad_h2 *= h2 > 0.0
    grad_h1 = grad_h2 @ params.w2
    grad_w2 = grad_h2.T @ h1
    grad_b2 = grad_h2.sum(axis=0)
    grad_h1 *= h1 > 0.0
    grad_w1 = grad_h1.T @ x
    grad_b1 = grad_h1.sum(axis=0)
    return {
        "w1": grad_w1,
        "b1": grad_b1,
        "w2": grad_w2,
        "b2": grad_b2,
        "v1": grad_v1,
        "d1": grad_d1,
        "v2": grad_v2,
        "d2": grad_d2,
    }


def encode_points(params: EncoderParams3D, cloud: PointCloud) -> np.ndarray:
    """Per-point features (N, D); permuting input points permutes rows."""
    if len(cloud) < 1:
        raise ValueError("cloud must contain at least one point")
    nb = knn_indices(cloud.positions, params.k)
    out, _ = point_forward(params, cloud.positions, cloud.colors, nb, np.arange(len(cloud)))
    return out
