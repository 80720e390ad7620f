"""Point-cloud encoder: per-point MLP, kNN max aggregation, post MLP.

The neighbourhood of a point always contains the point itself (distance
zero). Neighbour sets are canonical: ties in distance are broken by the
lower point index and each row of the index table is sorted ascending, so
the forward pass is exactly permutation-equivariant and the max-backward
routes gradient to the lowest-index maximizer.

knn_indices is an exact uniform-grid search: each point takes its
candidates from the 3x3x3 cells around its own and keeps the nearest only
when a distance certificate proves that no point outside those cells is as
near; the few other points are searched against all N. It works on row
blocks of KNN_BLOCK_ROWS points, so its memory is at most KNN_BLOCK_ROWS x N
distances, not N x N; on voxelised scans a block meets a few hundred
candidates. Given rows, it searches only the blocks of those points.
Stage 2 measures neighbours in the voxelised scan's own frame, before
rotation: it searches each distinct scan once, at the points a slot can
sample, for a wider table ordered by (distance, index), and reads from it
the neighbours among the survivors of dropout of the points a slot picks
(knn_from_table).

point_forward takes the neighbour table of the requested rows only and
returns features only there. The per-point MLP runs on the rows and their
neighbours, the max aggregation and the output MLP on the rows. Stage 2
asks for the points its loss samples, which are the scan's own z-buffer
winners that survive dropout; encode_points asks for all of them.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInput, check_count
from ..geometry import PointCloud
from .params import EncoderParams3D


# rows per block: fewer rows gather fewer candidate cells per row, more
# rows spread the per-block overhead; 64 was fastest on voxelised scans
KNN_BLOCK_ROWS = 64

_EPS = np.finfo(np.float64).eps
# (27, 3) cell offsets of a 3x3x3 block, each coordinate in {-1, 0, 1}
_OFFSETS = np.stack(np.meshgrid(*[np.arange(-1, 2)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)


def knn_indices(positions: np.ndarray, k: int, by_distance: bool = False, rows=None) -> np.ndarray:
    """(N, k_eff) nearest-neighbour indices per point, k_eff = min(k, N);
    with rows (unique point indices), (len(rows), k_eff): the rows of
    those points, in that order.

    Squared distances are summed from coordinate differences, ties go to
    the lower index. Rows are sorted by ascending index, or by (distance,
    index) when by_distance.

    Points are hashed to cubic cells of side h, a little more than the
    largest distance from one of up to KNN_BLOCK_ROWS evenly strided rows
    to its k-th neighbour (at least its 2nd), and sorted by cell. Each
    block of KNN_BLOCK_ROWS cell-sorted rows is compared with the points of
    the 3x3x3 cells around each of its rows. A row is final when its k-th
    squared distance lies strictly below its squared distance to those
    faces of its own 3x3x3 cells that have occupied cells beyond them.
    Every point not compared is then strictly farther than the k-th, so it
    could neither enter the row nor win a tie, and the row equals the
    exhaustive answer. The margin is shrunk to cover the rounding of the
    cell coordinates and of the squared distances. It is at least one cell
    side, so on a lattice every row whose k-th distance is the sampled one
    is final. Rows that are not final (outliers, sparse regions, clouds of
    exact copies) are compared with all N points.
    Either way a block holds at most KNN_BLOCK_ROWS x N distances. With
    rows, h and the cells still come from the whole cloud, and only the
    blocks of the requested points are searched.
    """
    positions = np.asarray(positions, dtype=np.float64)
    _check_search(positions, k)
    n = positions.shape[0]
    if rows is None:
        rows = np.arange(n)
    else:
        rows = np.asarray(rows)
        _check_rows(rows, n)
    k_eff = min(k, n)
    nb = np.empty((rows.size, k_eff), dtype=np.int64)
    slot = np.full(n, -1, dtype=np.int64)  # point -> its row of nb, -1 if not asked for
    slot[rows] = np.arange(rows.size)
    rest = _grid_search(positions, k_eff, by_distance, slot, nb) if n else rows
    for start in range(0, rest.size, KNN_BLOCK_ROWS):
        blk = rest[start : start + KNN_BLOCK_ROWS]
        nb[slot[blk]] = _nearest(positions, blk, np.arange(n), k_eff, by_distance)[0]
    return nb


def _check_search(positions: np.ndarray, k: int) -> None:
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise InvalidInput(f"positions must be (N, 3), got {positions.shape}")
    if not np.isfinite(positions).all():
        raise InvalidInput("positions must be finite")
    check_count("k", k, 1)


def _grid_search(positions, k_eff: int, by_distance: bool, slot, nb) -> np.ndarray:
    """Fill nb[slot[p]] for each point p asked for (slot[p] >= 0) that the
    cell grid certifies; return the others."""
    n = positions.shape[0]
    # h: the largest distance of a sampled row to its k-th neighbour, at
    # least the second, as the first of a row is itself
    sample = np.arange(0, n, -(-n // KNN_BLOCK_ROWS))
    k_h = min(max(k_eff, 2), n)
    kth = np.partition(_sq_dists(positions[sample], positions), k_h - 1, axis=1)[:, k_h - 1]
    # a little wider than the largest sampled k-th distance: on a lattice
    # most rows' k-th distance equals it exactly, and a row on a cell face
    # lies exactly one cell side from the faces around it, so cells of
    # exactly that side would fail the strict certificate for all of them
    h = np.sqrt(kth.max()) * (1.0 + 2.0**-10)
    if not h > 0.0:  # each sampled row has k_h - 1 or more exact copies
        return np.flatnonzero(slot >= 0)
    s = (positions - positions.min(axis=0)) / h  # cell units, >= 0
    q = np.floor(s)

    # Cell keys count only the occupied coordinates of each axis, so they
    # stay below N**3 however far a point lies (ravel_multi_index raises
    # rather than wrap), and no grid of extent/h cells is allocated.
    axes, ranks = zip(*(np.unique(q[:, a], return_inverse=True) for a in range(3)))
    dims = tuple(u.size for u in axes)
    key = np.ravel_multi_index(ranks, dims)
    order = np.argsort(key, kind="stable")
    cells, starts, cell_of = np.unique(key[order], return_index=True, return_inverse=True)
    ends = np.append(starts[1:], n)

    # (C, 27) cell ids of the 3x3x3 block around each cell, -1 if empty
    steps = []
    for u, r in zip(axes, np.unravel_index(cells, dims)):
        adjacent = np.append(np.diff(u) == 1.0, False)  # u[i + 1] == u[i] + 1
        below = np.where(adjacent[r - 1], r - 1, -1)  # adjacent[-1] is False
        steps.append(np.stack([below, r, np.where(adjacent[r], r + 1, -1)], axis=1))
    near = [step[:, _OFFSETS[:, a] + 1] for a, step in enumerate(steps)]
    near_key = np.ravel_multi_index([np.maximum(r, 0) for r in near], dims)
    nbr = np.minimum(np.searchsorted(cells, near_key), cells.size - 1)
    nbr[(np.minimum.reduce(near) < 0) | (cells[nbr] != near_key)] = -1

    # Squared distance from each row to the faces of its 3x3x3 block with
    # occupied cells beyond them (cell coordinates start at 0). A computed
    # s is within about eps * s of exact and a computed squared distance
    # within 3 eps; the slack in cells and the factor 1 - 8 eps cover both
    # and the rounding of the bound itself.
    t = s - q
    lower = np.where(q >= 2.0, 1.0 + t, np.inf)
    upper = np.where(q + 2.0 <= q.max(axis=0), 2.0 - t, np.inf)
    margin = np.minimum(lower, upper).min(axis=1) - 2.0 * _EPS * (s.max() + 2.0)
    bound = np.where(margin > 0.0, (h * margin) ** 2 * (1.0 - 8.0 * _EPS), -1.0)

    asked = np.flatnonzero(slot[order] >= 0)  # positions in order of the points asked for
    rest = []
    for start in range(0, asked.size, KNN_BLOCK_ROWS):
        at = asked[start : start + KNN_BLOCK_ROWS]
        blk = order[at]
        searched = np.unique(nbr[cell_of[at]])
        searched = searched[searched >= 0]
        # the rows of the searched cells, each cell a contiguous run of order
        lens = ends[searched] - starts[searched]
        cand = order[np.repeat(starts[searched] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]
        if cand.size < k_eff:
            rest.append(blk)
            continue
        got, kth = _nearest(positions, blk, cand, k_eff, by_distance)
        final = kth < bound[blk]
        nb[slot[blk[final]]] = got[final]
        rest.append(blk[~final])
    return np.concatenate(rest)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances, summed over x, y, z in that order."""
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 *= d2
    for axis in (1, 2):
        diff = np.subtract.outer(a[:, axis], b[:, axis])
        diff *= diff
        d2 += diff
    return d2


def _nearest(positions: np.ndarray, rows: np.ndarray, cand: np.ndarray, k_eff: int, by_distance: bool):
    """The k_eff points of cand nearest each of rows, by (distance, index),
    ordered as knn_indices orders them; with each row's k-th squared distance."""
    d2 = _sq_dists(positions[rows], positions[cand])
    part = np.argpartition(d2, k_eff - 1, axis=1)[:, :k_eff]
    r = np.arange(rows.size)[:, None]
    kth = d2[r, part].max(axis=1)
    for i in np.flatnonzero((d2 <= kth[:, None]).sum(axis=1) > k_eff):
        tied = np.flatnonzero(d2[i] <= kth[i])
        part[i] = tied[np.lexsort((cand[tied], d2[i, tied]))[:k_eff]]
    idx = cand[part]
    if not by_distance:
        return np.sort(idx, axis=1), kth
    order = np.lexsort((idx, d2[r, part]), axis=1)
    return np.take_along_axis(idx, order, axis=1), kth


def knn_from_table(
    table: np.ndarray, table_rows: np.ndarray, index_map: np.ndarray, positions: np.ndarray, k: int, points
) -> np.ndarray:
    """knn_indices(positions[index_map >= 0], k, rows=index_map[points]),
    read from a wider table: the neighbours, among the survivors, of the
    surviving points.

    table is knn_indices(positions, k_wide, by_distance=True, rows=table_rows)
    with table_rows sorted and holding every point of points. index_map
    sends each point to its row among the survivors, -1 if dropped, and
    keeps their order, so (distance, index) order carries over and the
    first k_eff survivors of a row are its exact neighbours. If any of the
    points has fewer, the survivors are searched afresh at those points.
    """
    points = np.asarray(points)
    at = np.minimum(np.searchsorted(table_rows, points), table_rows.size - 1)
    if (table_rows[at] != points).any() or (index_map[points] < 0).any():
        raise InvalidInput("points must be rows of the table that survive")
    survivors = np.flatnonzero(index_map >= 0)
    k_eff = min(k, survivors.size)
    cand = index_map[table[at]]
    alive = cand >= 0
    if (alive.sum(axis=1) < k_eff).any():
        return knn_indices(positions[survivors], k, rows=index_map[points])
    take = alive & (np.cumsum(alive, axis=1) <= k_eff)
    return np.sort(cand[take].reshape(-1, k_eff), axis=1)


def _check_rows(rows: np.ndarray, n: int) -> None:
    if rows.ndim != 1 or rows.size == 0 or not np.issubdtype(rows.dtype, np.integer):
        raise InvalidInput(f"rows must be a nonempty 1-D integer array, got {rows.dtype} {rows.shape}")
    if rows.min() < 0 or rows.max() >= n or np.unique(rows).size != rows.size:
        raise InvalidInput(f"rows must be unique and within [0, {n})")


def point_forward(
    params: EncoderParams3D,
    positions: np.ndarray,
    colors: np.ndarray,
    nb: np.ndarray,
    rows: np.ndarray,
):
    """Forward pass at the unique point indices rows, whose neighbour table
    nb (len(rows), k_eff) is as knn_indices gives it; returns (features
    (len(rows), D), cache for backward). The per-point MLP runs only at
    rows and their neighbours."""
    _check_rows(rows, positions.shape[0])
    if nb.ndim != 2 or nb.shape[0] != rows.size:
        raise InvalidInput(f"nb must have one row per point of rows, got {nb.shape}")
    needed = np.zeros(positions.shape[0], dtype=bool)
    needed[rows] = True
    needed[nb] = True
    # a point's row among the needed ones is monotone in its index, so the
    # first maximum is still the lowest neighbour index
    local = np.cumsum(needed) - 1
    at, nb_at = local[rows], local[nb]
    x = np.concatenate([positions[needed], colors[needed]], axis=1)
    h1 = np.maximum(x @ params.w1.T + params.b1, 0.0)
    h2 = np.maximum(h1 @ params.w2.T + params.b2, 0.0)
    # max over the k_eff neighbour slots in one pass; a slot wins a channel
    # only where it is strictly above the running maximum, so ties keep the
    # first maximum, the lowest neighbour index
    agg = h2[nb_at[:, 0]]
    winners = np.repeat(nb_at[:, :1], h2.shape[1], axis=1)  # (R, 32) source row per channel
    for slot in nb_at.T[1:]:
        v = h2[slot]
        np.copyto(winners, slot[:, None], where=v > agg)
        np.maximum(agg, v, out=agg)
    c = np.concatenate([h2[at], agg], axis=1)
    g1 = np.maximum(c @ params.v1.T + params.d1, 0.0)
    out = g1 @ params.v2.T + params.d2
    cache = {"x": x, "h1": h1, "h2": h2, "at": at, "winners": winners, "c": c, "g1": g1}
    return out, cache


def point_backward(params: EncoderParams3D, cache: dict, grad_out: np.ndarray) -> dict:
    """Gradients of every tensor from grad_out, (len(rows), D): the
    gradient of the rows point_forward returned."""
    x, h1, h2, at, winners, c, g1 = (
        cache["x"],
        cache["h1"],
        cache["h2"],
        cache["at"],
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
    grad_h2[at] = grad_c[:, :width]  # rows are unique
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
        raise InvalidInput("cloud must contain at least one point")
    nb = knn_indices(cloud.positions, params.k)
    out, _ = point_forward(params, cloud.positions, cloud.colors, nb, np.arange(len(cloud)))
    return out
