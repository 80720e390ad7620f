"""Temperature-scaled contrastive objective with analytic gradients.

Per query i with positive p_i and a pool of negatives {n_j}:

    L_i = -log  exp(q_i . p_i / tau) /
                ( exp(q_i . p_i / tau) + sum_j exp(q_i . n_j / tau) )
        = log(1 + sum_j exp((q_i . n_j - q_i . p_i) / tau))

and the reported loss is the sum over queries. Rows of every input must
be unit-norm (dot product = cosine), so every logit of row i lies below
the bound |q_i| max_j |n_j| / tau, about 1/tau.

The pool is one explicit (K, M) array shared by every query, with K =
LossConfig.negatives. `exclude_columns` names, per query, the pool
columns it must not score against: the columns that alias its own
embedding or its own positive when the pool is drawn from the batch.
The gradient of every input is returned, the pool's included; a caller
whose pool aliases the queries or positives adds grad_negatives back
onto those rows.

Queries are evaluated in row blocks of _CHUNK rows, each in one (C, K)
workspace allocated once per call, not a fresh array per block. Each row
i is shifted by s_i before exponentiating, and the shift is taken inside
the block's GEMM as one extra column, [q / tau, -s] @ [pool, 1].T, so the
block is written as shifted logits and then exponentiated in place: no
pass divides it by tau, takes its row maximum or subtracts one. The
shift is the positive's logit, so the positive's term is exp(0) = 1 and
L_i = (s_i - q_i . p_i / tau) + log(sum_exp) is log(1 + sum), never
negative, and exactly 0 for a row that excludes every column.

A shifted logit is at most the bound less the positive's logit. The
row's K + 1 exponentials stay finite while that gap is below
log(DBL_MAX / (K + 1)), less one for rounding: about 700 at K = 4096.
The gap is at most about 2/tau, so there every row takes the positive's
logit at tau >= 1/350. Far rows, whose gap exceeds that margin, can only
occur at smaller tau; they take their exact row maximum instead, from
one small GEMM over those rows only, and go through the same block code.
So the loss stays finite at any temperature in (0, 1].

Excluded cells are held as (row, column) index pairs, not as dense
masks, and set to -inf in the block, so exponentiating zeroes them. The
exponentials are never normalised in the block; the softmax weights 1 /
sum_exp scale the (C, M) products taken from it, and the positive term of
each query is a row update. The sum of the negative similarities (for
mean_negative_sim) is taken in closed form, sum(queries) . sum(pool)
minus the excluded cells, not from the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadTemperature, InvalidInput, NotNormalized

UNIT_TOL = 1e-6
# rows per loss block: 64 to 256 rows, or a budget of 2**18 cells, timed
# alike on the benchmark's shapes (K = 512 to 4096)
_CHUNK = 128


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.4
    negatives: int = field(kw_only=True)  # rows K of the pool

    def __post_init__(self):
        k = self.negatives
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise InvalidInput(f"negatives must be an int >= 1, got {k!r}")


@dataclass
class LossOutput:
    total: float
    per_query: np.ndarray
    grad_queries: np.ndarray
    grad_positives: np.ndarray
    grad_negatives: np.ndarray
    mean_positive_sim: float
    mean_negative_sim: float

    @property
    def alignment_gap(self) -> float:
        return self.mean_positive_sim - self.mean_negative_sim


def check_unit_rows(arr: np.ndarray, what: str = "embeddings") -> None:
    if arr.ndim != 2:
        raise NotNormalized(f"{what} must be a 2-D row matrix, got shape {arr.shape}")
    err = np.abs(np.linalg.norm(arr, axis=1) - 1.0)
    if err.size and not err.max() <= UNIT_TOL:  # NaN compares False
        raise NotNormalized(f"{what} row {int(err.argmax())} off unit norm by {err.max():.2e}")


def _excluded_cells(exclude_columns, n: int, k_pool: int) -> np.ndarray:
    """Sorted flat cells row * k_pool + column that exclude_columns names.

    Negative entries are padding; a column named twice in one row counts once.
    """
    excl = np.asarray(exclude_columns)
    if excl.ndim != 2 or excl.shape[0] != n or not np.issubdtype(excl.dtype, np.integer):
        raise InvalidInput(
            f"exclude_columns must be an integer (N, E) array with N = {n}, "
            f"got {excl.dtype} {excl.shape}"
        )
    rows, slots = np.nonzero(excl >= 0)
    cols = excl[rows, slots].astype(np.int64)
    if cols.size and cols.max() >= k_pool:
        raise InvalidInput(f"exclude_columns names column {cols.max()} of a {k_pool}-column pool")
    return np.unique(rows * k_pool + cols)


def info_nce(
    queries: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    cfg: LossConfig,
    exclude_columns: np.ndarray | None = None,
) -> LossOutput:
    """Evaluate the loss and its gradients for one batch.

    queries/positives are (N, M) with matched rows; negatives is the
    (cfg.negatives, M) pool. `exclude_columns` (N, E) marks pool columns a
    query must not score against (-1 padding).
    """
    if not 0.0 < cfg.tau <= 1.0:
        raise BadTemperature(f"temperature must be in (0,1], got {cfg.tau}")
    queries = np.asarray(queries, dtype=np.float64)
    positives = np.asarray(positives, dtype=np.float64)
    pool = np.asarray(negatives, dtype=np.float64)
    if queries.shape != positives.shape:
        raise InvalidInput(f"queries {queries.shape} and positives {positives.shape} differ")
    n = queries.shape[0]
    if n == 0:
        raise InvalidInput("need at least one query")
    check_unit_rows(queries, "queries")
    check_unit_rows(positives, "positives")
    check_unit_rows(pool, "negatives")
    if pool.shape != (cfg.negatives, queries.shape[1]):
        raise InvalidInput(
            f"pool is {pool.shape}, config and queries say ({cfg.negatives}, {queries.shape[1]})"
        )

    k_pool, m = pool.shape
    tau = cfg.tau
    # cells that leave the denominator as (row, column) pairs, sorted by row
    if exclude_columns is None:
        dr = dc = np.empty(0, dtype=np.int64)
    else:
        dr, dc = np.divmod(_excluded_cells(exclude_columns, n, k_pool), k_pool)
    pos_sims = np.einsum("ij,ij->i", queries, positives)
    neg_sim_sum = float(queries.sum(axis=0) @ pool.sum(axis=0))
    neg_sim_sum -= float(np.einsum("ij,ij->", queries[dr], pool[dc]))
    neg_count = n * k_pool - dr.size

    pos_logits = pos_sims / tau
    shift = pos_logits.copy()
    # A row's K + 1 exponentials sum to a finite value while its logits lie
    # less than this above the shift (one spare for rounding). Far rows, whose
    # logit bound is further above their positive's logit, shift by their
    # exact maximum logit instead.
    margin = np.log(np.finfo(np.float64).max / (k_pool + 1)) - 1.0
    far = np.flatnonzero((1.0 + UNIT_TOL) ** 2 / tau - pos_logits > margin)
    if far.size:
        logits = (queries[far] / tau) @ pool.T
        in_far = np.isin(dr, far)
        logits[np.searchsorted(far, dr[in_far]), dc[in_far]] = -np.inf
        shift[far] = np.maximum(logits.max(axis=1), pos_logits[far])
    pos_exp = np.exp(pos_logits - shift)  # 1 on every row but the far ones
    sum_exp = pos_exp.copy()

    grad_q = np.zeros_like(queries)
    # held transposed: (q * w).T @ block is a faster GEMM than block.T @ (q * w)
    grad_pool_t = np.zeros((m, k_pool))
    # [q / tau, -shift] @ [pool, 1].T: a block's logits, each row already shifted
    pool_aug = np.ones((k_pool, m + 1))
    pool_aug[:, :m] = pool
    q_aug = np.empty((min(_CHUNK, n), m + 1))
    work = np.empty((min(_CHUNK, n), k_pool))

    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        q = queries[start:stop]
        lo, hi = np.searchsorted(dr, (start, stop))

        qa = q_aug[: stop - start]
        np.divide(q, tau, out=qa[:, :m])
        np.negative(shift[start:stop], out=qa[:, m])
        # shifted logits, then unnormalised exponentials, in place
        ex = np.matmul(qa, pool_aug.T, out=work[: stop - start])
        ex[dr[lo:hi] - start, dc[lo:hi]] = -np.inf
        np.exp(ex, out=ex)  # exp(-inf) = 0 drops the excluded cells
        sum_exp[start:stop] += ex.sum(axis=1)

        # softmax normalisation scales the (C, M) products, not the block
        w = (1.0 / (tau * sum_exp[start:stop]))[:, None]
        grad_q[start:stop] += (ex @ pool) * w
        grad_pool_t += (q * w).T @ ex

    per_query = (shift - pos_logits) + np.log(sum_exp)
    # tau * dL_i / d(q_i . p_i): the positive's softmax weight minus 1
    pos_coeff = pos_exp / sum_exp - 1.0
    grad_q += pos_coeff[:, None] * positives / tau
    grad_p = pos_coeff[:, None] * queries / tau

    total = float(per_query.sum())
    if not np.isfinite(total):
        raise FloatingPointError("non-finite loss")  # callers wrap with context
    return LossOutput(
        total=total,
        per_query=per_query,
        grad_queries=grad_q,
        grad_positives=grad_p,
        grad_negatives=grad_pool_t.T,
        mean_positive_sim=float(pos_sims.sum()) / n,
        mean_negative_sim=neg_sim_sum / max(neg_count, 1),
    )
