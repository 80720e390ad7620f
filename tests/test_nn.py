"""Encoder, head, gradient-check, and checkpoint tests.

Forward oracles are straight-line loop reimplementations; gradients are
certified against central finite differences.
"""

import numpy as np
import pytest

from pixpoint.augment import PointDropout, RotationZ, TransformSpec3D, augment_cloud
from pixpoint.errors import DegenerateEmbedding, NonFiniteLoss, ParseError
from pixpoint.geometry import Image, PointCloud
from pixpoint.nn import (
    EncoderParams2D,
    EncoderParams3D,
    HeadParams,
    checkpoint_checksum,
    decode_normalize,
    encode_image,
    encode_images_backward,
    encode_images_forward,
    encode_points,
    gradient_check,
    head_backward,
    head_forward,
    knn_from_table,
    knn_indices,
    load_checkpoint,
    load_model_2d,
    load_model_3d,
    point_backward,
    point_forward,
    save_checkpoint,
    save_model_2d,
    save_model_3d,
)
from pixpoint.nn import points
from pixpoint.nn.conv2d import conv3x3_backward, conv3x3_forward


def conv_oracle(x, w, b):
    """Plain 6-loop 3x3 convolution with zero padding, one image."""
    h, wd, cin = x.shape
    cout = w.shape[0]
    out = np.zeros((h, wd, cout))
    for oy in range(h):
        for ox in range(wd):
            for oc in range(cout):
                acc = b[oc]
                for ic in range(cin):
                    for ky in range(3):
                        for kx in range(3):
                            sy, sx = oy + ky - 1, ox + kx - 1
                            if 0 <= sy < h and 0 <= sx < wd:
                                acc += w[oc, ic, ky, kx] * x[sy, sx, ic]
                out[oy, ox, oc] = acc
    return out


class TestConvEncoder:
    def test_shape_contract(self):
        params = EncoderParams2D.initialize(0)
        img = Image(np.random.default_rng(0).uniform(0, 1, (32, 32, 3)))
        feats = encode_image(params, img)
        assert feats.shape == (32, 32, 16)

    def test_zero_weights_give_zero_features(self):
        params = EncoderParams2D.initialize(0)
        for t in params.tensors().values():
            t[...] = 0.0
        img = Image(np.random.default_rng(1).uniform(0, 1, (8, 8, 3)))
        assert np.all(encode_image(params, img) == 0.0)

    def test_too_small_image_rejected(self):
        params = EncoderParams2D.initialize(0)
        with pytest.raises(ValueError):
            encode_images_forward(params, np.zeros((1, 1, 1, 3)))

    def test_identity_kernel_center_pixel(self):
        # kernel passing channel 0 straight through: center pixel of a 3x3
        # constant image reproduces the input value in feature 0
        w = np.zeros((16, 3, 3, 3))
        w[0, 0, 1, 1] = 1.0
        x = np.full((1, 3, 3, 3), 0.0)
        x[..., 0] = 0.7
        out = conv3x3_forward(x, w, np.zeros(16))
        assert out[0, 1, 1, 0] == pytest.approx(0.7, abs=1e-15)
        assert np.all(out[..., 1:] == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 6, 4))
        w = rng.normal(size=(3, 4, 3, 3))
        b = rng.normal(size=3)
        got = conv3x3_forward(x[None], w, b)[0]
        assert np.allclose(got, conv_oracle(x, w, b), atol=1e-12)

    def test_gradients_certified(self):
        rng = np.random.default_rng(3)
        imgs = rng.uniform(0, 1, size=(2, 6, 6, 3))
        direction = rng.normal(size=(2, 6, 6, 16))

        def loss_fn(tensors):
            params = EncoderParams2D.from_tensors(tensors)
            feats, cache = encode_images_forward(params, imgs)
            loss = float((feats * direction).sum() + 0.5 * (feats**2).sum())
            grads = encode_images_backward(params, cache, direction + feats)
            return loss, grads

        params = EncoderParams2D.initialize(4)
        err = gradient_check(loss_fn, params.tensors(), rng_seed=5)
        assert err < 1e-4

    def test_gradients_certified_at_sampled_pixels(self):
        rng = np.random.default_rng(3)
        imgs = rng.uniform(0, 1, size=(2, 6, 6, 3))
        at = np.array([0, 5, 7, 14, 20, 30, 35, 36, 43, 50, 71])
        direction = rng.normal(size=(at.size, 16))

        def loss_fn(tensors):
            params = EncoderParams2D.from_tensors(tensors)
            feats, cache = encode_images_forward(params, imgs, at=at)
            assert feats.shape == (at.size, 16)
            loss = float((feats * direction).sum() + 0.5 * (feats**2).sum())
            grads = encode_images_backward(params, cache, direction + feats)
            return loss, grads

        params = EncoderParams2D.initialize(4)
        err = gradient_check(loss_fn, params.tensors(), rng_seed=5)
        assert err < 1e-4

    def test_relu_mask_matches_forward_positivity(self):
        params = EncoderParams2D.initialize(6)
        imgs = np.random.default_rng(7).uniform(0, 1, size=(1, 5, 5, 3))
        feats, cache = encode_images_forward(params, imgs)
        pre1 = conv3x3_forward(imgs, params.conv1_w, params.conv1_b)
        assert np.array_equal(cache["a1"] > 0, pre1 > 0)


class TestConvAtPositions:
    """conv3x3_* with `at` against the dense layer's rows."""

    SHAPE = (2, 7, 9, 5)

    @staticmethod
    def flat(view, y, x):
        return (view * 7 + y) * 9 + x

    @pytest.fixture
    def layer(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=self.SHAPE)
        w = rng.normal(size=(4, 5, 3, 3))
        b = rng.normal(size=4)
        # every corner and edge of both views, plus interior neighbours
        # whose 3x3 windows overlap
        pixels = [(v, y, x) for v in (0, 1) for y in (0, 6) for x in (0, 8)]
        pixels += [(0, 0, 4), (0, 3, 0), (0, 3, 4), (0, 3, 5), (0, 4, 4), (1, 6, 3), (1, 2, 8)]
        at = np.unique([self.flat(*p) for p in pixels])
        return x, w, b, at

    def test_forward_rows_equal_dense(self, layer):
        x, w, b, at = layer
        dense = conv3x3_forward(x, w, b).reshape(-1, 4)
        sparse = conv3x3_forward(x, w, b, at=at)
        assert sparse.shape == (at.size, 4)
        assert np.array_equal(sparse, dense[at])

    def test_backward_matches_dense_with_scattered_gradient(self, layer):
        x, w, b, at = layer
        g = np.random.default_rng(12).normal(size=(at.size, 4))
        g_dense = np.zeros(self.SHAPE[:3] + (4,))
        g_dense.reshape(-1, 4)[at] = g
        gx, gw, gb = conv3x3_backward(x, w, g_dense)
        sx, sw, sb = conv3x3_backward(x, w, g, at=at)
        assert np.array_equal(sx, gx)
        assert np.array_equal(sb, gb)
        assert np.allclose(sw, gw, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("at", [[3, 2], [2, 2], [-1, 4], [0, 126], []])
    def test_rejects_unsorted_repeated_or_out_of_range(self, layer, at):
        x, w, b, _ = layer
        with pytest.raises(ValueError):
            conv3x3_forward(x, w, b, at=np.array(at, dtype=np.int64))


class TestPointEncoder:
    def random_cloud(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return PointCloud(rng.uniform(-1, 1, (n, 3)), rng.uniform(0, 1, (n, 3)))

    def test_single_point_aggregates_over_self(self):
        params = EncoderParams3D.initialize(0)
        out = encode_points(params, self.random_cloud(1))
        assert out.shape == (1, 16)

    def test_permutation_equivariance_exact(self):
        params = EncoderParams3D.initialize(1)
        cloud = self.random_cloud(40, seed=2)
        out = encode_points(params, cloud)
        perm = np.random.default_rng(3).permutation(40)
        shuffled = PointCloud(cloud.positions[perm], cloud.colors[perm])
        out_p = encode_points(params, shuffled)
        assert np.array_equal(out_p, out[perm])

    def test_knn_includes_self_and_breaks_ties_low_index(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [5.0, 0, 0]])
        nb = knn_indices(pos, k=2)
        # point 0 is equidistant to 1 and 2; lower index wins
        assert list(nb[0]) == [0, 1]
        assert list(nb[3]) == [1, 3]

    def test_knn_small_cloud_uses_all_points(self):
        pos = np.random.default_rng(4).uniform(-1, 1, (3, 3))
        nb = knn_indices(pos, k=8)
        assert nb.shape == (3, 3)

    def test_matches_straight_line_oracle(self):
        params = EncoderParams3D.initialize(5, k=3)
        cloud = self.random_cloud(10, seed=6)
        got = encode_points(params, cloud)

        def relu(v):
            return [max(0.0, t) for t in v]

        def mat(m, v, b):
            return [sum(m[r][c] * v[c] for c in range(len(v))) + b[r] for r in range(len(b))]

        feats = []
        h2_all = []
        for i in range(10):
            x = list(cloud.positions[i]) + list(cloud.colors[i])
            h1 = relu(mat(params.w1.tolist(), x, params.b1.tolist()))
            h2_all.append(relu(mat(params.w2.tolist(), h1, params.b2.tolist())))
        for i in range(10):
            d = [(np.linalg.norm(cloud.positions[i] - cloud.positions[j]), j) for j in range(10)]
            nb = [j for _, j in sorted(d)[:3]]
            agg = [max(h2_all[j][c] for j in nb) for c in range(32)]
            c = h2_all[i] + agg
            g1 = relu(mat(params.v1.tolist(), c, params.d1.tolist()))
            feats.append(mat(params.v2.tolist(), g1, params.d2.tolist()))
        assert np.allclose(got, np.array(feats), atol=1e-12)

    def test_gradients_certified(self):
        rng = np.random.default_rng(8)
        cloud = self.random_cloud(12, seed=9)
        direction = rng.normal(size=(12, 16))
        nb = knn_indices(cloud.positions, 4)

        def loss_fn(tensors):
            params = EncoderParams3D.from_tensors(tensors, k=4)
            out, cache = point_forward(params, cloud.positions, cloud.colors, nb)
            loss = float((out * direction).sum() + 0.5 * (out**2).sum())
            grads = point_backward(params, cache, direction + out)
            return loss, grads

        params = EncoderParams3D.initialize(10, k=4)
        err = gradient_check(loss_fn, params.tensors(), rng_seed=11)
        assert err < 1e-4


def brute_knn(positions, k, by_distance=False):
    """First min(k, N) points of each row by (distance, index), from
    coordinate differences and np.lexsort; rows sorted ascending unless
    by_distance."""
    n = positions.shape[0]
    d2 = ((positions[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
    index = np.broadcast_to(np.arange(n), d2.shape)
    order = np.lexsort((index, d2), axis=1)[:, : min(k, n)]
    return order if by_distance else np.sort(order, axis=1)


def integer_grid(side=7):
    axes = np.arange(float(side))
    return np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), axis=-1).reshape(-1, 3)


def dyadic_duplicates():
    """Coordinates on a 1/8 grid, so the distance arithmetic is exact: 300
    draws from 64 cells, plus one point repeated 12 times."""
    rng = np.random.default_rng(12)
    pos = rng.integers(0, 4, size=(300, 3)) / 8.0
    return np.concatenate([pos, np.repeat(pos[7:8], 12, axis=0)])


KNN_CLOUDS = {
    # 700 rows: two full blocks and a partial one
    "random_700": np.random.default_rng(13).uniform(-1, 1, (700, 3)),
    # 343 rows: exact distance ties on both sides of the block edge at 256
    "grid_7": integer_grid(),
    "duplicates": dyadic_duplicates(),
    "k_at_least_n": np.random.default_rng(14).uniform(-1, 1, (5, 3)),
}


class TestKnnIndices:
    @pytest.mark.parametrize("name", sorted(KNN_CLOUDS))
    @pytest.mark.parametrize("k", [1, 8, 24])
    def test_matches_brute_force(self, name, k):
        pos = KNN_CLOUDS[name]
        assert np.array_equal(knn_indices(pos, k), brute_knn(pos, k))
        assert np.array_equal(knn_indices(pos, k, by_distance=True), brute_knn(pos, k, True))

    def test_rows_split_into_bounded_blocks(self, monkeypatch):
        pos = KNN_CLOUDS["grid_7"]
        monkeypatch.setattr(points, "KNN_BLOCK_ROWS", 50)
        assert np.array_equal(knn_indices(pos, 8), brute_knn(pos, 8))


def drop(mask):
    """index_map of a dropout that keeps the rows where mask is True."""
    index_map = np.full(mask.shape[0], -1, dtype=np.int64)
    index_map[mask] = np.arange(int(mask.sum()))
    return index_map


class TestKnnFromTable:
    K = 8

    @pytest.fixture
    def searches(self, monkeypatch):
        """Counts the exact searches knn_from_table starts."""
        calls = []
        search = points.knn_indices

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(points, "knn_indices", counted)
        return calls

    def reuse(self, pos, mask):
        table = knn_indices(pos, 3 * self.K, by_distance=True)
        return knn_from_table(table, drop(mask), pos, self.K)

    @pytest.mark.parametrize("seed", range(4))
    def test_dropout_masks_reuse_the_table(self, seed, searches):
        pos = KNN_CLOUDS["random_700"]
        mask = np.random.default_rng(seed).random(700) < 0.9
        got = self.reuse(pos, mask)
        assert searches == []
        assert np.array_equal(got, knn_indices(pos[mask], self.K))
        assert np.array_equal(got, brute_knn(pos[mask], self.K))

    def test_row_short_of_k_survivors_falls_back(self, searches):
        pos = KNN_CLOUDS["random_700"]
        table = knn_indices(pos, 3 * self.K, by_distance=True)
        mask = np.ones(700, dtype=bool)
        mask[table[0, 1:]] = False  # row 0 keeps only itself
        got = self.reuse(pos, mask)
        assert searches == [int(mask.sum())]
        assert np.array_equal(got, brute_knn(pos[mask], self.K))

    @pytest.mark.parametrize("kept", [1, 3, 8])
    def test_at_most_k_survivors(self, kept):
        pos = KNN_CLOUDS["random_700"]
        mask = np.zeros(700, dtype=bool)
        mask[np.random.default_rng(kept).choice(700, size=kept, replace=False)] = True
        got = self.reuse(pos, mask)
        assert np.array_equal(got, np.tile(np.arange(kept), (kept, 1)))

    @pytest.mark.parametrize("seed", range(3))
    def test_rotated_grid_keeps_the_index_tie_break(self, seed):
        grid = integer_grid()
        cloud = PointCloud(grid, np.full(grid.shape, 0.5))
        spec = TransformSpec3D((RotationZ(angle_range=(0.1, 6.0)), PointDropout(keep_prob=0.8)))
        _, index_map, _ = augment_cloud(cloud, spec, seed)
        table = knn_indices(grid, 3 * self.K, by_distance=True)
        got = knn_from_table(table, index_map, grid, self.K)
        assert np.array_equal(got, brute_knn(grid[index_map >= 0], self.K))


class TestHead:
    def test_three_four_five(self):
        head = HeadParams(np.eye(2), np.zeros(2))
        z = decode_normalize(head, np.array([[3.0, 4.0]]))
        assert np.allclose(z, [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_unchanged(self):
        head = HeadParams(np.eye(3), np.zeros(3))
        row = np.array([[1.0, 0.0, 0.0]])
        assert np.allclose(decode_normalize(head, row), row, atol=1e-9)

    def test_norm_sweep_random(self):
        rng = np.random.default_rng(12)
        head = HeadParams(rng.normal(size=(8, 16)), rng.normal(size=8))
        z = decode_normalize(head, rng.normal(size=(100, 16)))
        assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() < 1e-6

    def test_degenerate_embedding_aborts(self):
        head = HeadParams(np.eye(2), np.zeros(2))
        with pytest.raises(DegenerateEmbedding):
            decode_normalize(head, np.zeros((1, 2)))

    def test_gradients_certified(self):
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(9, 16))
        target = rng.normal(size=(9, 8))

        def loss_fn(tensors):
            head = HeadParams.from_tensors(tensors)
            z, cache = head_forward(head, feats)
            loss = float(((z - target) ** 2).sum())
            _, grads = head_backward(head, cache, 2.0 * (z - target))
            return loss, grads

        head = HeadParams.initialize(14, feature_dim=16, embed_dim=8)
        err = gradient_check(loss_fn, head.tensors(), rng_seed=15)
        assert err < 1e-4


class TestGradientCheck:
    def test_quadratic_is_exact(self):
        p = {"p": np.random.default_rng(16).normal(size=(30,))}

        def loss_fn(t):
            return float(0.5 * (t["p"] ** 2).sum()), {"p": t["p"].copy()}

        assert gradient_check(loss_fn, p) < 1e-8

    def test_zero_loss_zero_gradient(self):
        p = {"p": np.ones(10)}

        def loss_fn(t):
            return 0.0, {"p": np.zeros(10)}

        assert gradient_check(loss_fn, p) == 0.0

    def test_non_finite_loss_raises(self):
        def loss_fn(t):
            return float("nan"), {"p": np.zeros(3)}

        with pytest.raises(NonFiniteLoss):
            gradient_check(loss_fn, {"p": np.zeros(3)})


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        tensors = {
            "a": rng.normal(size=(3, 4, 5)),
            "scalar": np.array(2.5),
            "b": rng.normal(size=7),
        }
        path = tmp_path / "model.xmdl"
        save_checkpoint(path, tensors)
        back = load_checkpoint(path)
        assert list(back) == ["a", "scalar", "b"]
        for k in tensors:
            assert np.array_equal(back[k], tensors[k])
        # writing what was read reproduces the same bytes
        path2 = tmp_path / "again.xmdl"
        save_checkpoint(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_raises_parse_error(self, tmp_path):
        path = tmp_path / "model.xmdl"
        save_checkpoint(path, {"a": np.arange(10.0)})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 11])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_model_round_trips(self, tmp_path):
        enc2 = EncoderParams2D.initialize(18)
        enc3 = EncoderParams3D.initialize(19, k=5)
        head = HeadParams.initialize(20)
        save_model_2d(tmp_path / "m2", enc2, head)
        save_model_3d(tmp_path / "m3", enc3, head)
        e2, h2 = load_model_2d(tmp_path / "m2")
        e3, h3 = load_model_3d(tmp_path / "m3")
        assert checkpoint_checksum(e2.tensors()) == checkpoint_checksum(enc2.tensors())
        assert checkpoint_checksum(e3.tensors()) == checkpoint_checksum(enc3.tensors())
        assert e3.k == 5
        assert np.array_equal(h2.weight, head.weight)
        assert np.array_equal(h3.bias, head.bias)
