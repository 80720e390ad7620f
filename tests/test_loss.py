"""Contrastive loss: closed-form fixtures, properties, gradient certification.

Scalar expectations were computed directly from the loss formula
(log(1 + sum exp((s_j - s_p)/TAU))) and frozen below.
"""

import numpy as np
import pytest
from gradcheck import gradient_check

from pixpoint import loss, pipeline
from pixpoint.errors import InvalidInput, NotNormalized
from pixpoint.loss import TAU, UNIT_TOL, LossConfig, info_nce


def unit_rows(n, m, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def vec2(sim):
    """Unit 2-vector with given dot product against (1, 0)."""
    return np.array([sim, np.sqrt(max(0.0, 1.0 - sim * sim))])


class TestClosedForms:
    def test_single_query_opposite_negative(self):
        # sims: pos = 1, neg = -1, TAU = 0.4 -> L = log(1 + e^-5)
        q = np.array([[1.0, 0.0]])
        out = info_nce(q, q.copy(), np.array([[-1.0, 0.0]]), LossConfig(negatives=1))
        assert out.total == pytest.approx(0.006715348489118068, rel=1e-14)
        assert out.per_query.shape == (1,)

    def test_uniform_similarities_give_n_log_kplus1(self):
        # all similarities equal -> softmax uniform over K+1, L = N log(K+1)
        row = np.array([1.0, 0.0])
        q = np.tile(row, (4, 1))
        pool = np.tile(row, (3, 1))
        out = info_nce(q, q.copy(), pool, LossConfig(negatives=3))
        assert out.total == pytest.approx(5.545177444479562, abs=1e-9)
        assert np.allclose(out.per_query, 1.3862943611198906, atol=1e-9)

    def test_easy_positive(self):
        # pos sim 0.9, eight negatives at 0.1, TAU 0.4 -> log(1 + 8 e^-2)
        q = np.array([[1.0, 0.0]])
        p = vec2(0.9)[None]
        pool = np.tile(vec2(0.1), (8, 1))
        out = info_nce(q, p, pool, LossConfig(negatives=8))
        assert out.total == pytest.approx(0.733656613866626, rel=1e-14)


class TestValidation:
    def test_non_unit_rows_rejected(self):
        q = np.array([[2.0, 0.0]])
        with pytest.raises(NotNormalized):
            info_nce(q, q.copy(), np.array([[1.0, 0.0]]), LossConfig(negatives=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["queries", "positives", "negatives"])
    def test_non_finite_rows_rejected(self, where, bad):
        # a NaN norm error compares False against any tolerance
        args = {"queries": unit_rows(4, 3, 0), "positives": unit_rows(4, 3, 1), "negatives": unit_rows(5, 3, 2)}
        args[where][2, 1] = bad
        with pytest.raises(NotNormalized, match=f"{where} row 2"):
            info_nce(**args, cfg=LossConfig(negatives=5))

    def test_pool_size_must_match_config(self):
        q = unit_rows(2, 4, 0)
        with pytest.raises(InvalidInput):
            info_nce(q, unit_rows(2, 4, 1), unit_rows(5, 4, 2), LossConfig(negatives=3))
        with pytest.raises(InvalidInput):  # rows of another width
            info_nce(q, unit_rows(2, 4, 1), unit_rows(5, 3, 2), LossConfig(negatives=5))

    @pytest.mark.parametrize("bad", [2.5, True, 0, "all_in_batch"])
    def test_config_negatives_must_be_a_positive_int(self, bad):
        with pytest.raises(InvalidInput, match="^negatives must be an int >= 1"):
            LossConfig(negatives=bad)


class TestProperties:
    def test_positive_and_above_lower_bound(self):
        # L_i >= log(1 + K e^{-2/TAU}) for unit vectors
        for seed in range(5):
            q = unit_rows(6, 8, seed)
            p = unit_rows(6, 8, seed + 100)
            pool = unit_rows(10, 8, seed + 200)
            cfg = LossConfig(negatives=10)
            out = info_nce(q, p, pool, cfg)
            bound = np.log(1.0 + 10 * np.exp(-2.0 / TAU))
            assert np.all(out.per_query > 0.0)
            assert np.all(out.per_query >= bound - 1e-12)

    def test_total_is_sum_of_per_query(self):
        out = info_nce(
            unit_rows(5, 8, 1), unit_rows(5, 8, 2), unit_rows(7, 8, 3), LossConfig(negatives=7)
        )
        assert out.total == pytest.approx(out.per_query.sum(), abs=1e-12)

    def test_permutation_of_pool_invariant(self):
        q = unit_rows(4, 8, 4)
        p = unit_rows(4, 8, 5)
        pool = unit_rows(9, 8, 6)
        base = info_nce(q, p, pool, LossConfig(negatives=9)).total
        perm = np.random.default_rng(7).permutation(9)
        shuffled = info_nce(q, p, pool[perm], LossConfig(negatives=9)).total
        assert abs(base - shuffled) < 1e-12

    def test_raising_one_negative_similarity_raises_loss(self):
        q = np.array([[1.0, 0.0]])
        p = vec2(0.8)[None]
        losses = []
        for neg_sim in (-0.5, 0.0, 0.5, 0.9):
            pool = np.vstack([vec2(neg_sim), vec2(-0.2)])
            losses.append(info_nce(q, p, pool, LossConfig(negatives=2)).total)
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_extreme_logits_stay_finite(self):
        # similarities +-1 mean raw logits +-1/TAU
        q = np.array([[1.0, 0.0]])
        p = np.array([[1.0, 0.0]])
        pool = np.array([[-1.0, 0.0], [1.0, 0.0]])
        out = info_nce(q, p, pool, LossConfig(negatives=2))
        assert np.isfinite(out.total)
        assert np.all(np.isfinite(out.grad_queries))


def rows_case(shape, n=40, k=24, m=8, seed=30):
    """Unit rows z, queries z[:n] then their positives z[n:], a pool of
    those rows as indices into z, and the exclude_columns that drop each
    query's own row and own positive from it. The pool shapes are named by
    the negatives each query sees:

    other_queries  the queries (stage 2, points only);
    all_in_batch   the queries, then the positives (stage 2 with pixels);
    explicit       k random rows (stage 1), with more exclude_columns:
                   -1 padding, a row naming one column twice, a column
                   excluded for every query and a row excluding every column.
    """
    z = unit_rows(2 * n, m, seed)
    if shape == "other_queries":
        idx = np.arange(n)
    elif shape == "all_in_batch":
        idx = np.arange(2 * n)
    else:
        idx = np.random.default_rng(seed).choice(2 * n, size=k, replace=False)
    col_of = np.full(2 * n, -1, dtype=np.int64)
    col_of[idx] = np.arange(idx.size)
    excl = np.stack([col_of[:n], col_of[n:]], axis=1)
    if shape == "explicit":
        extra = np.full((n, k), -1, dtype=np.int64)
        extra[:, 0] = k - 1
        extra[3, 1] = extra[3, 0]
        extra[5] = np.arange(k)
        excl = np.hstack([excl, extra])
    return z, idx, excl


def loss_inputs(shape, **kwargs):
    """(queries, positives, pool, exclude_columns) of rows_case(shape)."""
    z, idx, excl = rows_case(shape, **kwargs)
    n = z.shape[0] // 2
    return z[:n], z[n:], z[idx], excl


SHAPES = ["explicit", "all_in_batch", "other_queries"]


def expanded_loss(q, p, negatives):
    """One query's loss from its positive and its negatives, written out."""
    s_pos = q @ p / TAU
    s_neg = negatives @ q / TAU
    return np.log(np.exp(s_pos) + np.exp(s_neg).sum()) - s_pos


class TestBatchModes:
    """The pools both stages build through pipeline._batch_info_nce, against
    the per-query expansion of each."""

    def test_all_in_batch_matches_manual_expansion(self):
        z = unit_rows(6, 6, 10)
        got, _ = pipeline._batch_info_nce(z, slice(0, 6))
        for i in range(3):
            keep = [j for j in range(6) if j != i and j != 3 + i]
            expect = expanded_loss(z[i], z[3 + i], z[keep])
            assert got.per_query[i] == pytest.approx(expect, abs=1e-12)

    def test_other_queries_matches_manual_expansion(self):
        z = unit_rows(8, 6, 12)
        got, _ = pipeline._batch_info_nce(z, slice(0, 4))
        for i in range(4):
            keep = [j for j in range(4) if j != i]
            expect = expanded_loss(z[i], z[4 + i], z[keep])
            assert got.per_query[i] == pytest.approx(expect, abs=1e-12)

    def test_random_subset_matches_manual_expansion(self):
        z = unit_rows(10, 6, 13)
        pool = np.array([7, 0, 4, 9, 2, 5])
        got, _ = pipeline._batch_info_nce(z, pool)
        for i in range(5):
            keep = [j for j in pool if j != i and j != 5 + i]
            expect = expanded_loss(z[i], z[5 + i], z[keep])
            assert got.per_query[i] == pytest.approx(expect, abs=1e-12)

    def test_exclude_columns_drop_pool_entries(self):
        q = unit_rows(2, 6, 14)
        p = unit_rows(2, 6, 15)
        pool = np.vstack([q, unit_rows(2, 6, 16)])
        excl = np.array([[0, -1], [1, -1]])  # each query masks its own alias
        got = info_nce(q, p, pool, LossConfig(negatives=4), exclude_columns=excl)
        for i in range(2):
            keep = [j for j in range(4) if j != i]
            assert got.per_query[i] == pytest.approx(expanded_loss(q[i], p[i], pool[keep]), abs=1e-12)


def chained_loss_fn(idx, excl):
    """Raw (non-unit) rows z -> normalize rows -> info_nce of queries z[:n]
    and positives z[n:] against the pool z[idx].

    Returns a loss_fn suitable for gradient_check: the pool's gradient is
    added back onto its rows and the normalization backward is chained on.
    """

    def normalize(v):
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def norm_backward(raw, grad_z):
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        z = raw / norms
        return (grad_z - z * (grad_z * z).sum(axis=1, keepdims=True)) / norms

    def loss_fn(tensors):
        z = normalize(tensors["z"])
        n = z.shape[0] // 2
        cfg = LossConfig(negatives=idx.size)
        out = info_nce(z[:n], z[n:], z[idx], cfg, exclude_columns=excl)
        grad = np.concatenate([out.grad_queries, out.grad_positives])
        np.add.at(grad, idx, out.grad_negatives)
        return out.total, {"z": norm_backward(tensors["z"], grad)}

    return loss_fn


class TestGradients:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_certified_against_finite_differences(self, shape):
        _, idx, excl = rows_case(shape, n=8, k=7, m=6, seed=20)
        params = {"z": np.random.default_rng(20).normal(size=(16, 6))}
        err = gradient_check(chained_loss_fn(idx, excl), params, rng_seed=21)
        assert err < 1e-4

    @pytest.mark.parametrize("shape", SHAPES)
    def test_certified_across_row_blocks(self, shape, monkeypatch):
        # the softmax normalisation and the positive terms are applied per
        # block; the explicit pool's exclude_columns holds a row that
        # excludes every column
        monkeypatch.setattr(loss, "_CHUNK", 7)  # 40 rows: blocks of 7, last of 5
        z, idx, excl = rows_case(shape)
        fn = chained_loss_fn(idx, excl)
        err = gradient_check(fn, {"z": z}, rng_seed=23, n_coords=1000)  # every coordinate
        assert err < 1e-4

    def test_gradient_descent_on_embeddings_reduces_loss(self):
        _, idx, excl = rows_case("all_in_batch", n=6)
        fn = chained_loss_fn(idx, excl)
        params = {"z": np.random.default_rng(22).normal(size=(12, 8))}
        first, grads = fn(params)
        for _ in range(50):
            loss, grads = fn(params)
            params = {k: v - 0.05 * grads[k] for k, v in params.items()}
        final, _ = fn(params)
        assert final < first


class TestAlignmentStats:
    def test_mean_similarities(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = q.copy()
        pool = np.array([[-1.0, 0.0]])
        out = info_nce(q, p, pool, LossConfig(negatives=1))
        assert out.mean_positive_sim == pytest.approx(1.0)
        assert out.mean_negative_sim == pytest.approx((-1.0 + 0.0) / 2)
        assert out.alignment_gap == pytest.approx(1.5)


def reference_info_nce(queries, positives, negatives, cfg, exclude_columns=None, chunk=1024):
    """The dense-mask evaluation: a (C, K) boolean mask per row block and a
    fresh array per step. Inputs are assumed valid (unit rows, right shapes).
    Returns (total, per_query, grad_q, grad_p, grad_neg, mean_negative_sim).
    """
    pool = negatives
    n = queries.shape[0]
    per_query = np.empty(n)
    grad_q = np.zeros_like(queries)
    grad_p = np.zeros_like(positives)
    grad_pool = np.zeros_like(pool)
    neg_sim_sum = 0.0
    neg_count = 0

    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        q = queries[start:stop]
        p = positives[start:stop]
        local = np.arange(stop - start)

        sims = q @ pool.T
        pos_sims = np.einsum("ij,ij->i", q, p)

        neg_mask = np.zeros(sims.shape, dtype=bool)  # True = not a negative
        if exclude_columns is not None:
            sub = exclude_columns[start:stop]
            for e in range(sub.shape[1]):
                col = sub[:, e]
                ok = col >= 0
                neg_mask[local[ok], col[ok]] = True
        neg_sim_sum += float(sims[~neg_mask].sum())
        neg_count += int((~neg_mask).size - neg_mask.sum())

        logits = sims / TAU
        pos_logits = pos_sims / TAU
        masked = np.where(neg_mask, -np.inf, logits)
        row_max = np.maximum(masked.max(axis=1), pos_logits)
        exp_masked = np.exp(masked - row_max[:, None])
        exp_masked[neg_mask] = 0.0
        sum_exp = exp_masked.sum(axis=1) + np.exp(pos_logits - row_max)
        lse = row_max + np.log(sum_exp)
        per_query[start:stop] = lse - pos_logits

        coeff = exp_masked / sum_exp[:, None]
        p_pos = np.exp(pos_logits - row_max) / sum_exp
        grad_q[start:stop] += (coeff @ pool + (p_pos - 1.0)[:, None] * p) / TAU
        grad_p[start:stop] += (p_pos - 1.0)[:, None] * q / TAU
        grad_pool += coeff.T @ q / TAU

    mean_neg = neg_sim_sum / max(neg_count, 1)
    return float(per_query.sum()), per_query, grad_q, grad_p, grad_pool, mean_neg


class TestAgainstDenseMaskReference:
    """Index-pair exclusion, the reused workspace and the shifted GEMM match
    the dense-mask evaluation to rounding: the logits are q / TAU . n less
    the positive's, not q . n / TAU less the row maximum, and the softmax
    normalisation scales the (C, M) products, not the (C, K) block. The
    block size changes no bit of the losses."""

    def assert_matches(self, got, ref, grad_tol=1e-12):
        total, per_query, grad_q, grad_p, grad_neg, mean_neg = ref
        np.testing.assert_allclose(got.per_query, per_query, rtol=1e-14, atol=0)
        assert got.total == pytest.approx(total, rel=1e-14, abs=0)
        for a, b in ((got.grad_queries, grad_q), (got.grad_positives, grad_p), (got.grad_negatives, grad_neg)):
            assert np.abs(a - b).max(initial=0.0) <= grad_tol
        assert got.mean_negative_sim == pytest.approx(mean_neg, abs=1e-12, rel=0)

    @pytest.mark.parametrize("mode", ["other_queries", "all_in_batch"])
    def test_batch_modes(self, mode):
        q, p, pool, excl = loss_inputs(mode, n=50, seed=40)
        cfg = LossConfig(negatives=pool.shape[0])
        got = info_nce(q, p, pool, cfg, exclude_columns=excl)
        self.assert_matches(got, reference_info_nce(q, p, pool, cfg, excl))

    def test_explicit_pool_without_exclusions(self):
        q, p, pool, _ = loss_inputs("explicit")
        cfg = LossConfig(negatives=pool.shape[0])
        self.assert_matches(info_nce(q, p, pool, cfg), reference_info_nce(q, p, pool, cfg))

    def test_explicit_pool_with_exclude_columns(self):
        q, p, pool, excl = loss_inputs("explicit")
        cfg = LossConfig(negatives=pool.shape[0])
        got = info_nce(q, p, pool, cfg, exclude_columns=excl)
        self.assert_matches(got, reference_info_nce(q, p, pool, cfg, excl))
        # the fully excluded row scores its positive alone
        assert got.per_query[5] == 0.0

    @pytest.mark.parametrize("mode", SHAPES)
    def test_ragged_row_blocks(self, mode, monkeypatch):
        q, p, pool, excl = loss_inputs(mode)
        cfg = LossConfig(negatives=pool.shape[0])
        whole = reference_info_nce(q, p, pool, cfg, excl)
        default = info_nce(q, p, pool, cfg, exclude_columns=excl)
        monkeypatch.setattr(loss, "_CHUNK", 7)  # 40 rows: blocks of 7, last of 5
        got = info_nce(q, p, pool, cfg, exclude_columns=excl)
        self.assert_matches(got, reference_info_nce(q, p, pool, cfg, excl, chunk=7))
        assert np.array_equal(got.per_query, default.per_query)
        assert got.total == default.total
        self.assert_matches(got, whole)

    @pytest.mark.parametrize("mode", SHAPES)
    def test_outputs_share_no_memory(self, mode, monkeypatch):
        workspaces = []
        matmul = np.matmul

        def recorded(*args, out=None):
            if out is not None:
                workspaces.append(out.base)
            return matmul(*args, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        monkeypatch.setattr(loss, "_CHUNK", 7)
        q, p, pool, excl = loss_inputs(mode)
        cfg = LossConfig(negatives=pool.shape[0])
        outs = [info_nce(q, p, pool, cfg, exclude_columns=excl) for _ in range(2)]
        # 6 blocks per call, all in one workspace per call
        assert len(workspaces) == 2 * 6 and len({id(w) for w in workspaces}) == 2
        arrays = [
            a
            for o in outs
            for a in (o.per_query, o.grad_queries, o.grad_positives, o.grad_negatives)
        ]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, w) for w in workspaces)
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])

    def test_malformed_exclude_columns_rejected(self):
        q, p, pool, excl = loss_inputs("explicit")
        cfg = LossConfig(negatives=pool.shape[0])
        for bad in (excl[:-1], excl[:, 0], excl.astype(float), np.where(excl == 0, pool.shape[0], excl)):
            with pytest.raises(InvalidInput):
                info_nce(q, p, pool, cfg, exclude_columns=bad)


def test_no_pool_can_overflow_a_row():
    """A row's shifted logits are at most 2 (1 + UNIT_TOL)^2 / TAU, about 5,
    well below the margin under which its K + 1 exponentials sum to a
    finite value, log(DBL_MAX / (K + 1)) - 1, even for a pool of 2**31
    rows. The row at that bound, every negative at cosine 1 and the
    positive at -1, scores log(1 + K e^(2/TAU))."""
    margin = np.log(np.finfo(np.float64).max / (2**31 + 1)) - 1.0
    assert 2.0 * (1.0 + UNIT_TOL) ** 2 / TAU < margin
    q = np.array([[1.0, 0.0]])
    out = info_nce(q, -q, np.tile(q, (4096, 1)), LossConfig(negatives=4096))
    assert out.per_query[0] == pytest.approx(np.log1p(4096 * np.exp(2.0 / TAU)), rel=1e-14)
    assert np.isfinite(out.grad_queries).all() and np.isfinite(out.grad_negatives).all()


def test_every_row_matches_a_50_digit_evaluation():
    """Every row keeps its relative accuracy at TAU, the fully excluded
    row 5 included, whose loss is exactly 0."""
    mpmath = pytest.importorskip("mpmath")
    q, p, pool, excl = loss_inputs("explicit", n=200, k=150, m=16, seed=3)
    out = info_nce(q, p, pool, LossConfig(negatives=150), exclude_columns=excl)
    with mpmath.workdps(50):
        q, p, pool = (mpmath.matrix(a.tolist()) for a in (q, p, pool))
        sims, tau = q * pool.T, mpmath.mpf(TAU)
        for i in range(len(out.per_query)):
            pos = sum(q[i, j] * p[i, j] for j in range(q.cols))
            drop = set(excl[i].tolist())
            terms = [mpmath.exp((sims[i, j] - pos) / tau) for j in range(pool.rows) if j not in drop]
            exact = mpmath.log1p(mpmath.fsum(terms))
            assert abs(out.per_query[i] - exact) <= 1e-12 * exact, i
    assert out.per_query[5] == 0.0
