"""Contrastive loss: closed-form fixtures, properties, gradient certification.

Scalar expectations were computed directly from the loss formula
(log(1 + sum exp((s_j - s_p)/tau))) and frozen below.
"""

import numpy as np
import pytest

from pixpoint import loss
from pixpoint.errors import BadTemperature, NotNormalized
from pixpoint.loss import ALL_IN_BATCH, OTHER_QUERIES, LossConfig, info_nce
from pixpoint.nn import gradient_check


def unit_rows(n, m, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def vec2(sim):
    """Unit 2-vector with given dot product against (1, 0)."""
    return np.array([sim, np.sqrt(max(0.0, 1.0 - sim * sim))])


class TestClosedForms:
    def test_single_query_opposite_negative(self):
        # sims: pos = 1, neg = -1, tau = 1 -> L = log(1 + e^-2)
        q = np.array([[1.0, 0.0]])
        out = info_nce(q, q.copy(), np.array([[-1.0, 0.0]]), LossConfig(tau=1.0, negatives=1))
        assert out.total == pytest.approx(0.1269280110429726, abs=1e-9)
        assert out.per_query.shape == (1,)

    def test_uniform_similarities_give_n_log_kplus1(self):
        # all similarities equal -> softmax uniform over K+1, L = N log(K+1)
        row = np.array([1.0, 0.0])
        q = np.tile(row, (4, 1))
        pool = np.tile(row, (3, 1))
        out = info_nce(q, q.copy(), pool, LossConfig(tau=0.4, negatives=3))
        assert out.total == pytest.approx(5.545177444479562, abs=1e-9)
        assert np.allclose(out.per_query, 1.3862943611198906, atol=1e-9)

    def test_sharp_temperature_easy_positive(self):
        # pos sim 0.9, eight negatives at 0.1, tau 0.05 -> log(1 + 8 e^-16)
        q = np.array([[1.0, 0.0]])
        p = vec2(0.9)[None]
        pool = np.tile(vec2(0.1), (8, 1))
        out = info_nce(q, p, pool, LossConfig(tau=0.05, negatives=8))
        assert out.total == pytest.approx(9.002809925010186e-07, abs=1e-7)
        assert abs(out.total - 9.002809925010186e-07) < 1e-13


class TestValidation:
    def test_non_unit_rows_rejected(self):
        q = np.array([[2.0, 0.0]])
        with pytest.raises(NotNormalized):
            info_nce(q, q.copy(), np.array([[1.0, 0.0]]), LossConfig(negatives=1))

    def test_bad_temperature(self):
        q = np.array([[1.0, 0.0]])
        for tau in (0.0, -0.1, 1.5):
            with pytest.raises((BadTemperature, ValueError)):
                info_nce(q, q.copy(), np.array([[0.0, 1.0]]), LossConfig(tau=tau, negatives=1))

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
        with pytest.raises(ValueError):
            info_nce(q, unit_rows(2, 4, 1), unit_rows(5, 4, 2), LossConfig(negatives=3))


class TestProperties:
    def test_positive_and_above_lower_bound(self):
        # L_i >= log(1 + K e^{-2/tau}) for unit vectors
        for seed in range(5):
            q = unit_rows(6, 8, seed)
            p = unit_rows(6, 8, seed + 100)
            pool = unit_rows(10, 8, seed + 200)
            cfg = LossConfig(tau=0.4, negatives=10)
            out = info_nce(q, p, pool, cfg)
            bound = np.log(1.0 + 10 * np.exp(-2.0 / 0.4))
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

    def test_loss_shrinks_as_temperature_sharpens(self):
        # positive strictly dominant: colder temperature pushes L toward 0
        q = np.array([[1.0, 0.0]])
        p = vec2(0.9)[None]
        pool = np.vstack([vec2(0.2), vec2(-0.1), vec2(0.4)])
        sharp = info_nce(q, p, pool, LossConfig(tau=0.01, negatives=3)).total
        smooth = info_nce(q, p, pool, LossConfig(tau=0.4, negatives=3)).total
        assert sharp < smooth

    def test_extreme_logits_stay_finite(self):
        # similarities +-1 at tau = 0.01 mean raw logits +-100
        q = np.array([[1.0, 0.0]])
        p = np.array([[1.0, 0.0]])
        pool = np.array([[-1.0, 0.0], [1.0, 0.0]])
        out = info_nce(q, p, pool, LossConfig(tau=0.01, negatives=2))
        assert np.isfinite(out.total)
        assert np.all(np.isfinite(out.grad_queries))


class TestBatchModes:
    def test_all_in_batch_matches_manual_expansion(self):
        q = unit_rows(3, 6, 10)
        p = unit_rows(3, 6, 11)
        got = info_nce(q, p, None, LossConfig(tau=0.4, negatives=ALL_IN_BATCH))
        # manual: per query i the pool is other queries + other positives
        pool_all = np.vstack([q, p])
        for i in range(3):
            keep = [j for j in range(6) if j != i and j != 3 + i]
            s_pos = q[i] @ p[i] / 0.4
            s_neg = pool_all[keep] @ q[i] / 0.4
            expect = np.log(np.exp(s_pos) + np.exp(s_neg).sum()) - s_pos
            assert got.per_query[i] == pytest.approx(expect, abs=1e-12)

    def test_other_queries_matches_manual_expansion(self):
        q = unit_rows(4, 6, 12)
        p = unit_rows(4, 6, 13)
        got = info_nce(q, p, None, LossConfig(tau=0.4, negatives=OTHER_QUERIES))
        for i in range(4):
            keep = [j for j in range(4) if j != i]
            s_pos = q[i] @ p[i] / 0.4
            s_neg = q[keep] @ q[i] / 0.4
            expect = np.log(np.exp(s_pos) + np.exp(s_neg).sum()) - s_pos
            assert got.per_query[i] == pytest.approx(expect, abs=1e-12)

    def test_exclude_columns_drop_pool_entries(self):
        q = unit_rows(2, 6, 14)
        p = unit_rows(2, 6, 15)
        pool = np.vstack([q, unit_rows(2, 6, 16)])
        excl = np.array([[0, -1], [1, -1]])  # each query masks its own alias
        got = info_nce(q, p, pool, LossConfig(negatives=4), exclude_columns=excl)
        for i in range(2):
            keep = [j for j in range(4) if j != i]
            s_pos = q[i] @ p[i] / 0.4
            s_neg = pool[keep] @ q[i] / 0.4
            expect = np.log(np.exp(s_pos) + np.exp(s_neg).sum()) - s_pos
            assert got.per_query[i] == pytest.approx(expect, abs=1e-12)


def chained_loss_fn(mode, k=7, tau=0.4, exclude_columns=None):
    """Raw (non-unit) parameters -> normalize rows -> info_nce.

    Returns a loss_fn suitable for gradient_check: the normalization
    backward is chained onto the loss gradients.
    """

    def normalize(v):
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def norm_backward(raw, grad_z):
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        z = raw / norms
        return (grad_z - z * (grad_z * z).sum(axis=1, keepdims=True)) / norms

    def loss_fn(tensors):
        zq = normalize(tensors["q"])
        zp = normalize(tensors["p"])
        if mode == "explicit":
            zn = normalize(tensors["n"])
            out = info_nce(zq, zp, zn, LossConfig(tau=tau, negatives=k), exclude_columns=exclude_columns)
        else:
            out = info_nce(zq, zp, None, LossConfig(tau=tau, negatives=mode))
        grads = {
            "q": norm_backward(tensors["q"], out.grad_queries),
            "p": norm_backward(tensors["p"], out.grad_positives),
        }
        if mode == "explicit":
            grads["n"] = norm_backward(tensors["n"], out.grad_negatives)
        return out.total, grads

    return loss_fn


class TestGradients:
    @pytest.mark.parametrize("mode", ["explicit", ALL_IN_BATCH, OTHER_QUERIES])
    def test_certified_against_finite_differences(self, mode):
        rng = np.random.default_rng(20)
        params = {"q": rng.normal(size=(5, 6)), "p": rng.normal(size=(5, 6))}
        if mode == "explicit":
            params["n"] = rng.normal(size=(7, 6))
        err = gradient_check(chained_loss_fn(mode), params, rng_seed=21)
        assert err < 1e-4

    @pytest.mark.parametrize("mode", ["explicit", ALL_IN_BATCH, OTHER_QUERIES])
    def test_certified_across_row_blocks(self, mode, monkeypatch):
        # the softmax normalisation and the own-positive terms are applied
        # per block; exclude_columns holds a row that excludes every column
        monkeypatch.setattr(loss, "_CHUNK", 7)  # 40 rows: blocks of 7, last of 5
        q, p, pool, excl = explicit_case()
        params = {"q": q, "p": p}
        if mode == "explicit":
            params["n"] = pool
            fn = chained_loss_fn(mode, k=pool.shape[0], tau=0.2, exclude_columns=excl)
        else:
            fn = chained_loss_fn(mode, tau=0.2)
        err = gradient_check(fn, params, rng_seed=23, n_coords=1000)  # every coordinate
        assert err < 1e-4

    def test_gradient_descent_on_embeddings_reduces_loss(self):
        rng = np.random.default_rng(22)
        raw_q = rng.normal(size=(6, 8))
        raw_p = rng.normal(size=(6, 8))
        fn = chained_loss_fn(ALL_IN_BATCH)
        params = {"q": raw_q, "p": raw_p}
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
    explicit = not isinstance(cfg.negatives, str)
    n = queries.shape[0]
    if explicit:
        pool, pos_in_pool = negatives, False
    elif cfg.negatives == ALL_IN_BATCH:
        pool, pos_in_pool = np.concatenate([queries, positives], axis=0), True
    else:
        pool, pos_in_pool = queries, False
    tau = cfg.tau
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
        rows = np.arange(start, stop)
        local = rows - start

        sims = q @ pool.T
        pos_sims = np.einsum("ij,ij->i", q, p)

        neg_mask = np.zeros(sims.shape, dtype=bool)  # True = not a negative
        if not explicit:
            neg_mask[local, rows] = True
            if pos_in_pool:
                neg_mask[local, n + rows] = True
        elif exclude_columns is not None:
            sub = exclude_columns[start:stop]
            for e in range(sub.shape[1]):
                col = sub[:, e]
                ok = col >= 0
                neg_mask[local[ok], col[ok]] = True
        neg_sim_sum += float(sims[~neg_mask].sum())
        neg_count += int((~neg_mask).size - neg_mask.sum())

        logits = sims / tau
        pos_logits = pos_sims / tau
        denom_mask = neg_mask.copy()
        if pos_in_pool:
            denom_mask[local, n + rows] = False
        masked = np.where(denom_mask, -np.inf, logits)
        row_max = np.maximum(masked.max(axis=1), pos_logits)
        exp_masked = np.exp(masked - row_max[:, None])
        exp_masked[denom_mask] = 0.0
        sum_exp = exp_masked.sum(axis=1)
        if not pos_in_pool:
            sum_exp = sum_exp + np.exp(pos_logits - row_max)
        lse = row_max + np.log(sum_exp)
        per_query[start:stop] = lse - pos_logits

        coeff = exp_masked / sum_exp[:, None]
        if pos_in_pool:
            coeff[local, n + rows] -= 1.0
            grad_q[start:stop] += coeff @ pool / tau
        else:
            p_pos = np.exp(pos_logits - row_max) / sum_exp
            grad_q[start:stop] += (coeff @ pool + (p_pos - 1.0)[:, None] * p) / tau
            grad_p[start:stop] += (p_pos - 1.0)[:, None] * q / tau
        grad_pool += coeff.T @ q / tau

    grad_neg = None
    if pos_in_pool:
        grad_q += grad_pool[:n]
        grad_p += grad_pool[n:]
    elif explicit:
        grad_neg = grad_pool
    else:
        grad_q += grad_pool
    mean_neg = neg_sim_sum / max(neg_count, 1)
    return float(per_query.sum()), per_query, grad_q, grad_p, grad_neg, mean_neg


def explicit_case(n=40, k=24, m=8, seed=30):
    """Queries, positives and a pool whose first rows alias the queries,
    with exclude_columns holding -1 padding, a row naming one column twice,
    a column excluded for every query and a row excluding every column."""
    q = unit_rows(n, m, seed)
    p = unit_rows(n, m, seed + 1)
    pool = np.vstack([q[: k // 2], unit_rows(k - k // 2, m, seed + 2)])
    excl = np.full((n, k + 1), -1, dtype=np.int64)
    for i in range(k // 2):
        excl[i, 0] = i  # own alias
    excl[:, 1] = k - 1  # excluded for every query
    excl[3, 2] = excl[3, 0]  # repeated entry
    excl[5, :k] = np.arange(k)  # every pool column
    return q, p, pool, excl


class TestAgainstDenseMaskReference:
    """Index-pair exclusion, the reused workspace and the block size change
    no bit of the losses. Gradients may differ in the last bits: the softmax
    normalisation scales the (C, M) products, not the (C, K) block."""

    def assert_matches(self, got, ref, grad_tol=1e-12):
        total, per_query, grad_q, grad_p, grad_neg, mean_neg = ref
        assert np.array_equal(got.per_query, per_query)
        assert got.total == total
        for a, b in ((got.grad_queries, grad_q), (got.grad_positives, grad_p)):
            assert np.abs(a - b).max(initial=0.0) <= grad_tol
        if grad_neg is None:
            assert got.grad_negatives is None
        else:
            assert np.abs(got.grad_negatives - grad_neg).max() <= grad_tol
        assert got.mean_negative_sim == pytest.approx(mean_neg, abs=1e-12, rel=0)

    @pytest.mark.parametrize("mode", [OTHER_QUERIES, ALL_IN_BATCH])
    def test_batch_modes(self, mode):
        q, p = unit_rows(50, 8, 40), unit_rows(50, 8, 41)
        cfg = LossConfig(tau=0.3, negatives=mode)
        self.assert_matches(info_nce(q, p, None, cfg), reference_info_nce(q, p, None, cfg))

    def test_explicit_pool_without_exclusions(self):
        q, p, pool, _ = explicit_case()
        cfg = LossConfig(tau=0.2, negatives=pool.shape[0])
        self.assert_matches(info_nce(q, p, pool, cfg), reference_info_nce(q, p, pool, cfg))

    def test_explicit_pool_with_exclude_columns(self):
        q, p, pool, excl = explicit_case()
        cfg = LossConfig(tau=0.2, negatives=pool.shape[0])
        got = info_nce(q, p, pool, cfg, exclude_columns=excl)
        self.assert_matches(got, reference_info_nce(q, p, pool, cfg, excl))
        # the fully excluded row scores its positive alone
        assert got.per_query[5] == 0.0

    @pytest.mark.parametrize("mode", [OTHER_QUERIES, ALL_IN_BATCH, "explicit"])
    def test_ragged_row_blocks(self, mode, monkeypatch):
        q, p, pool, excl = explicit_case()
        if mode == "explicit":
            cfg = LossConfig(tau=0.2, negatives=pool.shape[0])
        else:
            cfg, pool, excl = LossConfig(tau=0.2, negatives=mode), None, None
        whole = reference_info_nce(q, p, pool, cfg, excl)
        monkeypatch.setattr(loss, "_CHUNK", 7)  # 40 rows: blocks of 7, last of 5
        got = info_nce(q, p, pool, cfg, exclude_columns=excl)
        self.assert_matches(got, reference_info_nce(q, p, pool, cfg, excl, chunk=7))
        assert np.array_equal(got.per_query, whole[1])
        self.assert_matches(got, whole)

    @pytest.mark.parametrize("mode", [OTHER_QUERIES, ALL_IN_BATCH, "explicit"])
    def test_outputs_share_no_memory(self, mode, monkeypatch):
        workspaces = []
        matmul = np.matmul

        def recorded(*args, out=None):
            if out is not None:
                workspaces.append(out.base)
            return matmul(*args, out=out)

        monkeypatch.setattr(np, "matmul", recorded)
        monkeypatch.setattr(loss, "_CHUNK", 7)
        q, p, pool, excl = explicit_case()
        if mode == "explicit":
            cfg = LossConfig(tau=0.2, negatives=pool.shape[0])
        else:
            cfg, pool, excl = LossConfig(tau=0.2, negatives=mode), None, None
        outs = [info_nce(q, p, pool, cfg, exclude_columns=excl) for _ in range(2)]
        # 6 blocks per call, all in one workspace per call
        assert len(workspaces) == 2 * 6 and len({id(w) for w in workspaces}) == 2
        arrays = [
            a
            for o in outs
            for a in (o.per_query, o.grad_queries, o.grad_positives, o.grad_negatives)
            if a is not None
        ]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, w) for w in workspaces)
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])

    def test_malformed_exclude_columns_rejected(self):
        q, p, pool, excl = explicit_case()
        cfg = LossConfig(negatives=pool.shape[0])
        for bad in (excl[:-1], excl[:, 0], excl.astype(float), np.where(excl == 0, pool.shape[0], excl)):
            with pytest.raises(ValueError):
                info_nce(q, p, pool, cfg, exclude_columns=bad)
