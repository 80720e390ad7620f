"""Temperature-scaled contrastive objective with analytic gradients.

Per query i with positive p_i and negative set {n_j}:

    L_i = -log  exp(q_i . p_i / tau) /
                ( exp(q_i . p_i / tau) + sum_j exp(q_i . n_j / tau) )

and the reported loss is the sum over queries. Rows of every input must
be unit-norm (dot product = cosine). Evaluation subtracts the row maximum
before exponentiating, so |logits| up to 1/tau stay finite at any
temperature in (0, 1].

Negative-set modes (LossConfig.negatives):
    ALL_IN_BATCH   the other queries and the other queries' positives;
                   a query never scores against itself, and its own
                   positive appears once (as the positive term).
    OTHER_QUERIES  only the other queries; positives never act as
                   negatives (the point-only regime of stage 2).
    integer K      an explicit pool of K rows shared by every query;
                   pass `exclude_columns` when pool rows alias a query's
                   own embedding or positive.

Gradients are exact for all inputs, including the flow into negatives
that alias other queries' embeddings.

Queries are evaluated in row blocks of _CHUNK. Excluded cells (the self
column, the own-positive column, exclude_columns entries) are held as
(row, column) index pairs, not as dense masks, and each block's
similarities, logits, exponentials and softmax coefficients are computed
in place in one (C, K) buffer: excluded cells are set to -inf before the
row maximum, so exponentiating zeroes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadTemperature, NotNormalized

ALL_IN_BATCH = "all_in_batch"
OTHER_QUERIES = "other_queries"

UNIT_TOL = 1e-6
_CHUNK = 1024


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.4
    negatives: object = ALL_IN_BATCH  # sentinel or explicit pool size K

    def __post_init__(self):
        if isinstance(self.negatives, str):
            if self.negatives not in (ALL_IN_BATCH, OTHER_QUERIES):
                raise ValueError(f"unknown negatives mode {self.negatives!r}")
        elif int(self.negatives) < 1:
            raise ValueError(f"explicit negative count must be >= 1, got {self.negatives}")


@dataclass
class LossOutput:
    total: float
    per_query: np.ndarray
    grad_queries: np.ndarray
    grad_positives: np.ndarray
    grad_negatives: np.ndarray | None  # None unless an explicit pool was passed
    mean_positive_sim: float
    mean_negative_sim: float

    @property
    def alignment_gap(self) -> float:
        return self.mean_positive_sim - self.mean_negative_sim


def check_unit_rows(arr: np.ndarray, what: str = "embeddings") -> None:
    if arr.ndim != 2:
        raise NotNormalized(f"{what} must be a 2-D row matrix, got shape {arr.shape}")
    err = np.abs(np.linalg.norm(arr, axis=1) - 1.0)
    if err.size and err.max() > UNIT_TOL:
        raise NotNormalized(f"{what} row {int(err.argmax())} off unit norm by {err.max():.2e}")


def _excluded_cells(exclude_columns, n: int, k_pool: int) -> np.ndarray:
    """Sorted flat cells row * k_pool + column that exclude_columns names.

    Negative entries are padding; a column named twice in one row counts once.
    """
    excl = np.asarray(exclude_columns)
    if excl.ndim != 2 or excl.shape[0] != n or not np.issubdtype(excl.dtype, np.integer):
        raise ValueError(
            f"exclude_columns must be an integer (N, E) array with N = {n}, "
            f"got {excl.dtype} {excl.shape}"
        )
    rows, slots = np.nonzero(excl >= 0)
    cols = excl[rows, slots].astype(np.int64)
    if cols.size and cols.max() >= k_pool:
        raise ValueError(f"exclude_columns names column {cols.max()} of a {k_pool}-column pool")
    return np.unique(rows * k_pool + cols)


def info_nce(
    queries: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray | None = None,
    cfg: LossConfig = LossConfig(),
    exclude_columns: np.ndarray | None = None,
) -> LossOutput:
    """Evaluate the loss and its gradients for one batch.

    queries/positives are (N, M) with matched rows. `negatives` is required
    exactly when cfg.negatives is an explicit count. `exclude_columns`
    (N, E) marks pool columns a query must not score against (-1 padding);
    it is only meaningful for an explicit pool.
    """
    if not 0.0 < cfg.tau <= 1.0:
        raise BadTemperature(f"temperature must be in (0,1], got {cfg.tau}")
    queries = np.asarray(queries, dtype=np.float64)
    positives = np.asarray(positives, dtype=np.float64)
    if queries.shape != positives.shape:
        raise ValueError(f"queries {queries.shape} and positives {positives.shape} differ")
    n = queries.shape[0]
    if n == 0:
        raise ValueError("need at least one query")
    check_unit_rows(queries, "queries")
    check_unit_rows(positives, "positives")

    explicit = not isinstance(cfg.negatives, str)
    if explicit:
        if negatives is None:
            raise ValueError("explicit negative count set but no pool passed")
        negatives = np.asarray(negatives, dtype=np.float64)
        check_unit_rows(negatives, "negatives")
        if negatives.shape[0] != int(cfg.negatives):
            raise ValueError(
                f"pool has {negatives.shape[0]} rows, config says {cfg.negatives}"
            )
        pool = negatives
        pos_in_pool = False
        if exclude_columns is None:
            excl_keys = np.empty(0, dtype=np.int64)
        else:
            excl_keys = _excluded_cells(exclude_columns, n, pool.shape[0])
    else:
        if negatives is not None:
            raise ValueError(f"{cfg.negatives} mode builds its own pool; do not pass one")
        if exclude_columns is not None:
            raise ValueError("exclude_columns applies only to explicit pools")
        if cfg.negatives == ALL_IN_BATCH:
            pool = np.concatenate([queries, positives], axis=0)
            pos_in_pool = True
        else:
            pool = queries
            pos_in_pool = False

    k_pool = pool.shape[0]
    tau = cfg.tau
    per_query = np.empty(n)
    grad_q = np.zeros_like(queries)
    grad_p = np.zeros_like(positives)
    grad_pool = np.zeros_like(pool)
    pos_sim_sum = 0.0
    neg_sim_sum = 0.0
    neg_count = 0

    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        q = queries[start:stop]
        p = positives[start:stop]
        rows = np.arange(start, stop)
        local = rows - start

        # excluded cells as (row, column) pairs: (dr, dc) leave the
        # denominator, (nr, nc) are not negatives
        if explicit:
            lo, hi = np.searchsorted(excl_keys, (start * k_pool, stop * k_pool))
            dr, dc = np.divmod(excl_keys[lo:hi], k_pool)
            dr -= start
        else:
            dr, dc = local, rows  # self column
        nr, nc = dr, dc
        if pos_in_pool:
            # the own-positive column is the positive term, not a negative
            nr = np.concatenate([local, local])
            nc = np.concatenate([rows, n + rows])

        sims = q @ pool.T  # (C, K); becomes the softmax coefficients in place
        pos_sims = np.einsum("ij,ij->i", q, p)
        pos_sim_sum += float(pos_sims.sum())
        neg_sim_sum += float(sims.sum()) - float(sims[nr, nc].sum())
        neg_count += sims.size - nr.size

        np.divide(sims, tau, out=sims)
        pos_logits = pos_sims / tau
        sims[dr, dc] = -np.inf
        row_max = np.maximum(sims.max(axis=1), pos_logits)
        np.subtract(sims, row_max[:, None], out=sims)
        np.exp(sims, out=sims)  # exp(-inf) = 0 drops the excluded cells
        sum_exp = sims.sum(axis=1)
        if not pos_in_pool:
            sum_exp = sum_exp + np.exp(pos_logits - row_max)
        lse = row_max + np.log(sum_exp)
        per_query[start:stop] = lse - pos_logits

        # softmax coefficients; gradient of L_i w.r.t. each logit
        coeff = np.divide(sims, sum_exp[:, None], out=sims)
        if pos_in_pool:
            coeff[local, n + rows] -= 1.0
            grad_q[start:stop] += coeff @ pool / tau
        else:
            p_pos = np.exp(pos_logits - row_max) / sum_exp
            grad_q[start:stop] += (coeff @ pool + (p_pos - 1.0)[:, None] * p) / tau
            grad_p[start:stop] += (p_pos - 1.0)[:, None] * q / tau
        grad_pool += coeff.T @ q / tau

    if pos_in_pool:
        grad_q += grad_pool[:n]
        grad_p += grad_pool[n:]
        grad_neg = None
    elif explicit:
        grad_neg = grad_pool
    else:  # OTHER_QUERIES: pool aliases the queries
        grad_q += grad_pool
        grad_neg = None

    total = float(per_query.sum())
    if not np.isfinite(total):
        raise FloatingPointError("non-finite loss")  # callers wrap with context
    return LossOutput(
        total=total,
        per_query=per_query,
        grad_queries=grad_q,
        grad_positives=grad_p,
        grad_negatives=grad_neg,
        mean_positive_sim=pos_sim_sum / n,
        mean_negative_sim=neg_sim_sum / max(neg_count, 1),
    )
