"""Encoder, head, gradient-check, and parameter round-trip tests.

Forward oracles are straight-line loop reimplementations; gradients are
certified against central finite differences. The 3x3 convolution is also
compared with the im2col version it replaced, kept here as the reference.
"""

import tracemalloc

import numpy as np
import pytest
from gradcheck import gradient_check

from pixpoint import augment
from pixpoint.augment import augment_cloud
from pixpoint.errors import DegenerateEmbedding, InvalidInput, NonFiniteLoss, PixpointError
from pixpoint.geometry import PointCloud
from pixpoint.nn import (
    EncoderParams2D,
    EncoderParams3D,
    HeadParams,
    checkpoint_checksum,
    encode_images_backward,
    encode_images_forward,
    encode_points,
    head_backward,
    head_forward,
    knn_from_table,
    knn_indices,
    point_backward,
    point_forward,
)
from pixpoint.nn import conv2d, points
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


def _reference_im2col(x, at=None):
    """(B,H,W,C) -> (B*H*W, C*9) patch matrix for 3x3 kernels with pad 1;
    with `at`, (len(at), C*9): the rows of those output positions only."""
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2, w + 2, c))
    xp[:, 1:-1, 1:-1, :] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    # win: (B, H, W, C, 3, 3) view; a row is [c0k0..c0k8, c1k0..]
    if at is None:
        return win.reshape(b * h * w, c * 9)
    bi, rest = np.divmod(at, h * w)
    yi, xi = np.divmod(rest, w)
    return win[bi, yi, xi].reshape(at.shape[0], c * 9)


def reference_conv3x3_forward(x, w, bias, at=None):
    """im2col + one matrix product: the layout of conv3x3_forward."""
    b, h, wd, cin = x.shape
    out = _reference_im2col(x, at) @ w.reshape(w.shape[0], cin * 9).T + bias
    return out if at is not None else out.reshape(b, h, wd, w.shape[0])


def reference_conv3x3_backward(x, w, grad_out, need_grad_x=True, at=None):
    """Patch-matrix backward with a col2im of nine shifted adds."""
    b, h, wd, cin = x.shape
    cout = w.shape[0]
    g2 = grad_out.reshape(-1, cout)
    grad_w = (g2.T @ _reference_im2col(x, at)).reshape(cout, cin, 3, 3)
    grad_b = g2.sum(axis=0)
    if not need_grad_x:
        return None, grad_w, grad_b
    grad_cols = (g2 @ w.reshape(cout, cin * 9)).reshape(-1, cin, 3, 3)
    grad_xp = np.zeros((b, h + 2, wd + 2, cin))
    if at is None:
        gc = grad_cols.reshape(b, h, wd, cin, 3, 3)
        for i in range(3):
            for j in range(3):
                grad_xp[:, i : i + h, j : j + wd, :] += gc[..., i, j]
    else:
        bi, rest = np.divmod(at, h * wd)
        yi, xi = np.divmod(rest, wd)
        for i in range(3):
            for j in range(3):
                grad_xp[bi, yi + i, xi + j] += grad_cols[:, :, i, j]
    return grad_xp[:, 1:-1, 1:-1, :], grad_w, grad_b


def float64_params(params):
    """The same encoder with its tensors widened to float64."""
    return EncoderParams2D.from_tensors({k: v.astype(np.float64) for k, v in params.tensors().items()})


def padded(x):
    """(B,H,W,C) -> the zero-bordered (B,H+2,W+2,C) grid the conv layers take."""
    return np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))


def interior(xp):
    return xp[:, 1:-1, 1:-1]


def assert_zero_border(xp):
    assert not xp[:, [0, -1]].any() and not xp[:, :, [0, -1]].any()


class TestConvAgainstReference:
    """conv3x3_* on zero-bordered grids against the im2col reference on odd
    shapes, dense and at corners, edges and interior pixels of both images."""

    @staticmethod
    def assert_close(got, ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @staticmethod
    def sampled(h, w):
        ys, xs = (0, h // 2, h - 1), (0, 3, w - 1)
        return np.unique([(v * h + y) * w + x for v in (0, 1) for y in ys for x in xs])

    @pytest.mark.parametrize("h", [3, 5])
    @pytest.mark.parametrize("cin", [1, 3, 16])
    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("need_grad_x", [True, False])
    def test_matches_reference(self, h, cin, sampled, need_grad_x):
        self.check(h, cin, sampled, need_grad_x)

    @pytest.mark.parametrize("cin", [1, 3, 16])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_matches_reference_in_small_row_blocks(self, monkeypatch, cin, sampled):
        # 80 elements: blocks of 20 rows (5 for Cin 16), so most taps and
        # scatters cross block boundaries
        monkeypatch.setattr(conv2d, "_BLOCK", 80)
        self.check(5, cin, sampled, need_grad_x=True)

    def check(self, h, cin, sampled, need_grad_x):
        rng = np.random.default_rng(100 * h + cin)
        x = rng.normal(size=(2, h, 7, cin))
        w = rng.normal(size=(4, cin, 3, 3))
        b = rng.normal(size=4)
        at = self.sampled(h, 7) if sampled else None
        out = conv3x3_forward(padded(x), w, b, at=at)
        ref_out = reference_conv3x3_forward(x, w, b, at)
        if sampled:
            self.assert_close(out, ref_out)
        else:
            assert out.shape == (2, h + 2, 9, 4)
            self.assert_close(interior(out), ref_out)
            assert_zero_border(out)
        g = rng.normal(size=(at.size, 4) if sampled else (2, h, 7, 4))
        got = conv3x3_backward(padded(x), w, g if sampled else padded(g), need_grad_x, at)
        ref = reference_conv3x3_backward(x, w, g, need_grad_x, at)
        for a, r in zip(got[1:], ref[1:]):
            self.assert_close(a, r)
        if need_grad_x:
            assert got[0].shape == (2, h + 2, 9, cin)
            self.assert_close(interior(got[0]), ref[0])
        else:
            assert got[0] is None

    def test_dense_backward_peak_stays_below_one_patch_matrix(self):
        # numpy reports its array buffers to tracemalloc; an im2col backward
        # holds the (B*H*W, Cin*9) patch matrix and its gradient at once
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4, 32, 32, 16))
        w = rng.normal(size=(32, 16, 3, 3))
        g = rng.normal(size=(4, 32, 32, 32))
        patch_bytes = x.size * 9 * x.itemsize
        xp, gp = padded(x), padded(g)
        tracemalloc.start()
        try:
            conv3x3_backward(xp, w, gp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * patch_bytes


class TestConvEncoder:
    def test_shape_contract(self):
        params = EncoderParams2D.initialize(0)
        imgs = np.random.default_rng(0).uniform(0, 1, (1, 32, 32, 3))
        feats, _ = encode_images_forward(params, imgs)
        assert feats.shape == (1, 32, 32, 16)

    def test_zero_weights_give_zero_features(self):
        params = EncoderParams2D.initialize(0)
        for t in params.tensors().values():
            t[...] = 0.0
        imgs = np.random.default_rng(1).uniform(0, 1, (1, 8, 8, 3))
        assert np.all(encode_images_forward(params, imgs)[0] == 0.0)

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
        out = interior(conv3x3_forward(padded(x), w, np.zeros(16)))
        assert out[0, 1, 1, 0] == pytest.approx(0.7, abs=1e-15)
        assert np.all(out[..., 1:] == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 6, 4))
        w = rng.normal(size=(3, 4, 3, 3))
        b = rng.normal(size=3)
        got = interior(conv3x3_forward(padded(x[None]), w, b))[0]
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
        params = float64_params(EncoderParams2D.initialize(6))
        imgs = np.random.default_rng(7).uniform(0, 1, size=(1, 5, 5, 3))
        feats, cache = encode_images_forward(params, imgs)
        assert np.array_equal(cache["xp"], padded(imgs))
        pre1 = conv3x3_forward(padded(imgs), params.conv1_w, params.conv1_b)
        assert np.array_equal(cache["a1"] > 0, pre1 > 0)
        for a in (cache["a1"], cache["a2"]):
            assert_zero_border(a)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_one_call_per_layer_with_w_second(self, monkeypatch, sampled):
        # the benchmark's tracer names conv spans by args[1].shape[1], the
        # input channels of w: 3 -> conv1, 16 -> conv2, 32 -> conv3
        calls = {"fwd": [], "bwd": []}

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind].append(args[1].shape[1])
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(conv2d, "conv3x3_forward", counted("fwd", conv3x3_forward))
        monkeypatch.setattr(conv2d, "conv3x3_backward", counted("bwd", conv3x3_backward))
        params = EncoderParams2D.initialize(8)
        imgs = np.random.default_rng(9).uniform(0, 1, size=(2, 6, 7, 3))
        at = np.array([0, 9, 40, 83]) if sampled else None
        feats, cache = encode_images_forward(params, imgs, at=at)
        assert calls["fwd"] == [3, 16, 32]
        encode_images_backward(params, cache, np.ones_like(feats))
        assert calls["bwd"] == [32, 16, 3]

    @staticmethod
    def sampled_backward_peak():
        """(bytes the backward allocates on top of the cached padded grids,
        which are held before the call, on 16 64x64 views at 6000 pixels;
        the cache after the call)"""
        rng = np.random.default_rng(22)
        imgs = rng.uniform(0, 1, size=(16, 64, 64, 3))
        at = np.sort(rng.choice(16 * 64 * 64, size=6000, replace=False))
        params = EncoderParams2D.initialize(10)
        feats, cache = encode_images_forward(params, imgs, at=at)
        grad = rng.normal(size=feats.shape)
        tracemalloc.start()
        try:
            encode_images_backward(params, cache, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, cache

    def test_sampled_backward_peak_stays_below_40_mib(self):
        # about 4 MiB; 14 when each layer's input gradient took a grid of
        # its own, and about 59 for a backward that re-pads its activations
        # and output gradients
        assert self.sampled_backward_peak()[0] < 40 * 2**20

    def test_sampled_backward_writes_gradients_over_the_activations(self):
        # the ReLU masks (a quarter of a float32 grid each) and small
        # buffers; a fresh gradient grid per layer took 14.3 MiB
        peak, cache = self.sampled_backward_peak()
        assert peak < 6 * 2**20
        assert cache == {}

    @pytest.mark.parametrize("sampled", [False, True])
    def test_second_backward_on_a_consumed_cache_raises(self, sampled):
        params = EncoderParams2D.initialize(11)
        imgs = np.random.default_rng(12).uniform(0, 1, size=(2, 5, 6, 3))
        at = np.array([0, 7, 31, 59]) if sampled else None
        feats, cache = encode_images_forward(params, imgs, at=at)
        encode_images_backward(params, cache, np.ones_like(feats))
        with pytest.raises(InvalidInput, match="consumed"):
            encode_images_backward(params, cache, np.ones_like(feats))


class TestConvAtPositions:
    """conv3x3_* with `at` against the dense layer's rows."""

    SHAPE = (2, 7, 9, 5)

    @staticmethod
    def flat(view, y, x):
        return (view * 7 + y) * 9 + x

    @pytest.fixture
    def layer(self):
        rng = np.random.default_rng(11)
        xp = padded(rng.normal(size=self.SHAPE))
        w = rng.normal(size=(4, 5, 3, 3))
        b = rng.normal(size=4)
        # every corner and edge of both views, plus interior neighbours
        # whose 3x3 windows overlap
        pixels = [(v, y, x) for v in (0, 1) for y in (0, 6) for x in (0, 8)]
        pixels += [(0, 0, 4), (0, 3, 0), (0, 3, 4), (0, 3, 5), (0, 4, 4), (1, 6, 3), (1, 2, 8)]
        at = np.unique([self.flat(*p) for p in pixels])
        return xp, w, b, at

    def test_forward_rows_equal_dense(self, layer):
        xp, w, b, at = layer
        dense = interior(conv3x3_forward(xp, w, b)).reshape(-1, 4)
        sparse = conv3x3_forward(xp, w, b, at=at)
        assert sparse.shape == (at.size, 4)
        assert np.array_equal(sparse, dense[at])

    def test_backward_matches_dense_with_scattered_gradient(self, layer):
        xp, w, b, at = layer
        g = np.random.default_rng(12).normal(size=(at.size, 4))
        g_dense = np.zeros(self.SHAPE[:3] + (4,))
        g_dense.reshape(-1, 4)[at] = g
        # each call writes its input gradient over the grid it is given
        gx, gw, gb = conv3x3_backward(xp.copy(), w, padded(g_dense))
        sx, sw, sb = conv3x3_backward(xp.copy(), w, g, at=at)
        assert sx.shape == xp.shape
        # borders: the gradient of the padding, which the caller discards
        assert np.array_equal(interior(sx), interior(gx))
        assert np.array_equal(sb, gb)
        assert np.allclose(sw, gw, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("at", [[3, 2], [2, 2], [-1, 4], [0, 126], []])
    def test_rejects_unsorted_repeated_or_out_of_range(self, layer, at):
        xp, w, b, _ = layer
        with pytest.raises(ValueError):
            conv3x3_forward(xp, w, b, at=np.array(at, dtype=np.int64))

    @pytest.mark.parametrize(
        "at", [np.array([True]), np.array([1.0, 2.0]), [1, 2]], ids=["bool", "float", "list"]
    )
    def test_encoder_takes_only_an_integer_array(self, at):
        # a bool array would index pixel 1; a float array or a list failed
        # with a raw IndexError or AttributeError
        params = EncoderParams2D.initialize(0, 4)
        with pytest.raises(InvalidInput, match="^at must be a nonempty 1-D integer array"):
            encode_images_forward(params, np.zeros((1, 5, 5, 3)), at=at)


class TestEncoderDtype:
    """The 2D encoder computes in its parameters' dtype; initialize makes
    float32, and the head returns float64 embeddings either way."""

    AT = np.array([0, 9, 40, 83, 120, 167])

    @pytest.fixture
    def imgs(self):
        return np.random.default_rng(23).uniform(0, 1, size=(2, 6, 14, 3))

    def test_initialize_makes_float32(self):
        params = EncoderParams2D.initialize(24)
        assert {t.dtype for t in params.tensors().values()} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("sampled", [False, True])
    def test_float32_parameters_give_float32_outputs_and_gradients(self, imgs, sampled):
        params = EncoderParams2D.initialize(25)
        at = self.AT if sampled else None
        feats, cache = encode_images_forward(params, imgs, at=at)
        assert feats.dtype == np.float32
        assert all(cache[k].dtype == np.float32 for k in ("xp", "a1", "a2"))
        grad = np.random.default_rng(26).normal(size=feats.shape)  # float64
        grads = encode_images_backward(params, cache, grad)
        for name, t in params.tensors().items():
            assert grads[name].dtype == np.float32 and grads[name].shape == t.shape, name

    @pytest.mark.parametrize("sampled", [False, True])
    def test_float32_forward_matches_float64_on_the_same_weights(self, imgs, sampled):
        params = EncoderParams2D.initialize(27)
        at = self.AT if sampled else None
        narrow, _ = encode_images_forward(params, imgs, at=at)
        wide, _ = encode_images_forward(float64_params(params), imgs, at=at)
        assert wide.dtype == np.float64
        assert np.abs(narrow - wide).max() <= 1e-5 * np.abs(wide).max()

    def test_head_maps_float32_features_to_float64_unit_rows(self):
        rng = np.random.default_rng(28)
        head = HeadParams.initialize(29)
        feats = rng.normal(size=(300, 16)).astype(np.float32)
        z, cache = head_forward(head, feats)
        assert z.dtype == np.float64
        assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() <= 1e-12
        grad_feats, grads = head_backward(head, cache, rng.normal(size=z.shape))
        assert grad_feats.dtype == np.float64 and grads["weight"].dtype == np.float64

    def test_relu_mask_matches_forward_positivity_in_float32(self):
        params = EncoderParams2D.initialize(6)
        imgs = np.random.default_rng(7).uniform(0, 1, size=(1, 5, 5, 3))
        feats, cache = encode_images_forward(params, imgs)
        xp = padded(imgs).astype(np.float32)
        assert np.array_equal(cache["xp"], xp)
        pre1 = conv3x3_forward(xp, params.conv1_w, params.conv1_b)
        assert np.array_equal(cache["a1"] > 0, pre1 > 0)
        for a in (cache["a1"], cache["a2"]):
            assert_zero_border(a)


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

    def test_rows_match_the_dense_encoder(self):
        params = EncoderParams3D.initialize(12, k=5)
        cloud = self.random_cloud(30, seed=13)
        nb = knn_indices(cloud.positions, 5)
        rows = np.array([17, 3, 29, 0, 9, 22, 4])  # unsorted, both ends
        grad_rows = np.random.default_rng(14).normal(size=(rows.size, 16))
        dense, dense_cache = point_forward(
            params, cloud.positions, cloud.colors, nb, np.arange(len(cloud))
        )
        got, cache = point_forward(params, cloud.positions, cloud.colors, nb[rows], rows)
        # the per-point MLP ran only at the rows and their neighbours
        need = np.unique(np.concatenate([rows, nb[rows].ravel()]))
        assert need.size < len(cloud) and cache["h2"].shape[0] == need.size
        # c and the winners equal the dense encoder's; the output MLP's
        # products over fewer rows may round differently in small-matrix
        # BLAS kernels
        assert np.array_equal(cache["c"], dense_cache["c"][rows])
        assert np.array_equal(need[cache["winners"]], dense_cache["winners"][rows])
        assert np.allclose(got, dense[rows], rtol=0.0, atol=1e-12)

        grad_dense = np.zeros_like(dense)
        grad_dense[rows] = grad_rows
        want = point_backward(params, dense_cache, grad_dense)
        grads = point_backward(params, cache, grad_rows)
        for name in want:
            assert np.allclose(grads[name], want[name], rtol=0.0, atol=1e-12), name

    def test_first_maximum_matches_argmax_with_ties(self):
        # 10 points, each three times over: neighbours holding equal h2 rows
        # tie on every channel, and ReLU zeros tie too
        base = self.random_cloud(10, seed=17)
        cloud = PointCloud(np.repeat(base.positions, 3, axis=0), np.repeat(base.colors, 3, axis=0))
        params = EncoderParams3D.initialize(18, k=5)
        rows = np.array([4, 0, 29, 13, 17])
        nb = knn_indices(cloud.positions, 5, rows=rows)
        out, cache = point_forward(params, cloud.positions, cloud.colors, nb, rows)
        needed = np.zeros(len(cloud), dtype=bool)
        needed[rows] = needed[nb] = True
        nb_at = (np.cumsum(needed) - 1)[nb]
        gathered = cache["h2"][nb_at]
        agg = gathered.max(axis=1)
        ties = (gathered == agg[:, None]).sum(axis=1) > 1
        assert ties[agg > 0].any() and ties[agg == 0].any()
        want = np.take_along_axis(nb_at, gathered.argmax(axis=1), axis=1)
        assert np.array_equal(cache["winners"], want)
        assert np.array_equal(cache["c"][:, agg.shape[1] :], agg)

    @pytest.mark.parametrize(
        "rows",
        [[3, 1, 3], [0, 12], [-1, 2], [[0, 1]], [0.0, 1.0], []],
        ids=["repeated", "past-end", "negative", "2-d", "float", "empty"],
    )
    def test_rejects_malformed_rows(self, rows):
        params = EncoderParams3D.initialize(15, k=3)
        cloud = self.random_cloud(12, seed=16)
        nb = knn_indices(cloud.positions, 3)
        with pytest.raises(ValueError, match="rows"):
            point_forward(params, cloud.positions, cloud.colors, nb, np.array(rows))

    def test_rejects_a_table_of_other_rows(self):
        params = EncoderParams3D.initialize(15, k=3)
        cloud = self.random_cloud(12, seed=16)
        nb = knn_indices(cloud.positions, 3)
        with pytest.raises(ValueError, match="nb"):
            point_forward(params, cloud.positions, cloud.colors, nb, np.array([2, 5]))

    @pytest.mark.parametrize("bad", ["negative", "past-end", "float"])
    def test_rejects_neighbours_outside_the_cloud(self, bad):
        params = EncoderParams3D.initialize(15, k=3)
        cloud = self.random_cloud(12, seed=16)
        rows = np.array([2, 5])
        nb = knn_indices(cloud.positions, 3, rows=rows)
        if bad == "float":
            nb = nb.astype(np.float64)
        else:
            nb[1, 2] = -1 if bad == "negative" else 12
        with pytest.raises(InvalidInput, match=r"^nb must hold integer point indices in \[0, 12\)$"):
            point_forward(params, cloud.positions, cloud.colors, nb, rows)

    def test_rejects_colours_of_another_cloud(self):
        params = EncoderParams3D.initialize(15, k=3)
        cloud = self.random_cloud(12, seed=16)
        rows = np.array([2, 5])
        nb = knn_indices(cloud.positions, 3, rows=rows)
        with pytest.raises(InvalidInput, match="^colors .* and positions .* differ$"):
            point_forward(params, cloud.positions, cloud.colors[:11], nb, rows)

    def test_gradients_certified(self):
        rng = np.random.default_rng(8)
        cloud = self.random_cloud(12, seed=9)
        rows = np.array([7, 2, 10, 0, 5])
        direction = rng.normal(size=(rows.size, 16))
        nb = knn_indices(cloud.positions, 4, rows=rows)

        def loss_fn(tensors):
            params = EncoderParams3D.from_tensors(tensors, k=4)
            out, cache = point_forward(params, cloud.positions, cloud.colors, nb, rows)
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


def copied_rows():
    """300 uniform points, 70 of them overwritten by copies of others, so
    lower- and higher-index copies of a point tie at distance zero."""
    rng = np.random.default_rng(15)
    pos = rng.uniform(-1, 1, (300, 3))
    pos[rng.choice(300, size=70, replace=False)] = pos[rng.choice(300, size=70)]
    return pos


def cluster_and_outliers():
    rng = np.random.default_rng(16)
    pos = rng.normal(0.0, 0.05, (600, 3))
    pos[[5, 301, 598]] = rng.uniform(-50, 50, (3, 3))  # not among the rows that size the cells
    return pos


def one_far_point():
    pos = np.random.default_rng(17).uniform(-1, 1, (300, 3))
    pos[123] = [1e12, -1e12, 1e12]
    return pos


def plane_z0():
    pos = np.random.default_rng(18).uniform(-1, 1, (300, 3))
    pos[:, 2] = 0.0
    return pos


KNN_CLOUDS = {
    # 700 rows: several full blocks and a partial one
    "random_700": np.random.default_rng(13).uniform(-1, 1, (700, 3)),
    # 343 rows: exact distance ties on both sides of block edges
    "grid_7": integer_grid(),
    "duplicates": dyadic_duplicates(),
    "copied_rows": copied_rows(),
    "k_at_least_n": np.random.default_rng(14).uniform(-1, 1, (5, 3)),
    "cluster_and_outliers": cluster_and_outliers(),
    "one_far_point": one_far_point(),
    "all_identical": np.tile([0.3, -0.2, 0.7], (50, 1)),
    "plane_z0": plane_z0(),
}


class TestKnnIndices:
    @pytest.fixture
    def exhaustive_rows(self, monkeypatch):
        """Counts the rows the grid leaves to the exhaustive search."""
        counts = []
        grid_search = points._grid_search

        def counted(*args):
            rest = grid_search(*args)
            counts.append(rest.size)
            return rest

        monkeypatch.setattr(points, "_grid_search", counted)
        return counts

    @pytest.mark.parametrize("name", sorted(KNN_CLOUDS))
    @pytest.mark.parametrize("k", [1, 2, 8, 24])
    def test_matches_brute_force(self, name, k):
        pos = KNN_CLOUDS[name]
        assert np.array_equal(knn_indices(pos, k), brute_knn(pos, k))
        assert np.array_equal(knn_indices(pos, k, by_distance=True), brute_knn(pos, k, True))

    @pytest.mark.parametrize(
        "name, exhaustive",
        [
            ("random_700", False),
            ("grid_7", False),
            ("copied_rows", False),
            # N <= k: every point lies in the 3x3x3 cells around each row
            ("k_at_least_n", False),
            # outliers in cells of their own
            ("cluster_and_outliers", True),
            ("one_far_point", True),
            # the cells would have side 0
            ("all_identical", True),
            # one cell in z; a row in a sparse spot near the edge has its
            # k-th neighbour beyond the sampled radius
            ("plane_z0", True),
        ],
    )
    def test_search_path(self, name, exhaustive, exhaustive_rows):
        pos = KNN_CLOUDS[name]
        assert np.array_equal(knn_indices(pos, 8), brute_knn(pos, 8))
        assert (exhaustive_rows[0] > 0) == exhaustive

    @pytest.mark.parametrize("k", [1, 2, 8, 24])
    def test_lattice_rows_certified(self, k, exhaustive_rows):
        # most rows' k-th distance equals the one that sizes the cells
        pos = KNN_CLOUDS["grid_7"]
        assert np.array_equal(knn_indices(pos, k), brute_knn(pos, k))
        assert exhaustive_rows == [0]

    def test_rows_split_into_bounded_blocks(self, monkeypatch):
        shapes = []
        sq_dists = points._sq_dists

        def recorded(a, b):
            shapes.append((a.shape[0], b.shape[0]))
            return sq_dists(a, b)

        monkeypatch.setattr(points, "KNN_BLOCK_ROWS", 20)
        monkeypatch.setattr(points, "_sq_dists", recorded)
        # the grid certifies every lattice row; cells of side 0 certify none
        for name, exhaustive_blocks in (("grid_7", 0), ("all_identical", 3)):
            pos = KNN_CLOUDS[name]
            shapes.clear()
            assert np.array_equal(knn_indices(pos, 8), brute_knn(pos, 8))
            assert max(rows for rows, _ in shapes) <= 20
            # shapes[0] sizes the cells against all N
            assert sum(cols == pos.shape[0] for _, cols in shapes[1:]) == exhaustive_blocks

    @pytest.mark.parametrize("name", sorted(KNN_CLOUDS))
    @pytest.mark.parametrize("k", [1, 8, 24])
    @pytest.mark.parametrize("by_distance", [False, True])
    def test_rows_equal_the_full_table_at_those_rows(self, name, k, by_distance):
        pos = KNN_CLOUDS[name]
        n = pos.shape[0]
        full = knn_indices(pos, k, by_distance)
        rng = np.random.default_rng(n + k)
        # unsorted, a single row, and the last row alone
        for rows in (rng.choice(n, size=max(1, n // 3), replace=False), np.array([0]), np.array([n - 1])):
            assert np.array_equal(knn_indices(pos, k, by_distance, rows=rows), full[rows])

    def test_rows_search_only_their_blocks(self, monkeypatch):
        shapes = []
        sq_dists = points._sq_dists

        def recorded(a, b):
            shapes.append(a.shape[0])
            return sq_dists(a, b)

        monkeypatch.setattr(points, "_sq_dists", recorded)
        pos = KNN_CLOUDS["grid_7"]
        rows = np.arange(0, 343, 7)
        assert np.array_equal(knn_indices(pos, 8, rows=rows), brute_knn(pos, 8)[rows])
        # shapes[0] sizes the cells; then each row is searched once, and
        # the grid certifies every lattice row
        assert sum(shapes[1:]) == rows.size

    @pytest.mark.parametrize(
        "rows",
        [[3, 1, 3], [0, 12], [-1, 2], [[0, 1]], [0.0, 1.0], []],
        ids=["repeated", "past-end", "negative", "2-d", "float", "empty"],
    )
    def test_rejects_malformed_rows(self, rows):
        with pytest.raises(ValueError, match="rows"):
            knn_indices(np.random.default_rng(19).uniform(-1, 1, (12, 3)), 3, rows=np.array(rows))

    @pytest.mark.parametrize(
        "positions, k, match",
        [
            (np.zeros((4, 2)), 2, "positions"),
            (np.zeros(3), 2, "positions"),
            (np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), 1, "finite"),
            (np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]]), 1, "finite"),
            (np.zeros((4, 3)), 0, "k"),
            (np.zeros((4, 3)), -1, "k"),
        ],
        ids=["n-by-2", "1-d", "nan", "inf", "k-zero", "k-negative"],
    )
    def test_rejects_bad_input(self, positions, k, match):
        with pytest.raises(ValueError, match=match):
            knn_indices(positions, k)


def drop(mask):
    """index_map of a dropout that keeps the rows where mask is True."""
    index_map = np.full(mask.shape[0], -1, dtype=np.int64)
    index_map[mask] = np.arange(int(mask.sum()))
    return index_map


class TestKnnFromTable:
    K = 8

    @pytest.fixture
    def searches(self, monkeypatch):
        """Records (points searched, rows asked for) of each exact search
        that knn_from_table starts."""
        calls = []
        search = points.knn_indices

        def counted(*args, **kwargs):
            calls.append((args[0].shape[0], kwargs["rows"].size))
            return search(*args, **kwargs)

        monkeypatch.setattr(points, "knn_indices", counted)
        return calls

    def reuse(self, pos, mask, picked, table_rows=None):
        """Neighbours among the survivors of mask at the points picked,
        from a table at table_rows (every point by default), and what an
        exhaustive search of the survivors gives there."""
        table_rows = np.arange(pos.shape[0]) if table_rows is None else table_rows
        table = knn_indices(pos, 3 * self.K, by_distance=True, rows=table_rows)
        index_map = drop(mask)
        got = knn_from_table(table, table_rows, index_map, pos, self.K, picked)
        return got, brute_knn(pos[mask], self.K)[index_map[picked]]

    @pytest.mark.parametrize("seed", range(4))
    def test_dropout_masks_reuse_the_table(self, seed, searches):
        pos = KNN_CLOUDS["random_700"]
        rng = np.random.default_rng(seed)
        mask = rng.random(700) < 0.9
        table_rows = np.flatnonzero(rng.random(700) < 0.5)
        picked = rng.permutation(table_rows[mask[table_rows]])[:100]  # unsorted
        got, want = self.reuse(pos, mask, picked, table_rows)
        assert searches == []
        assert got.shape == (picked.size, self.K)
        assert np.array_equal(got, want)

    def test_row_short_of_k_survivors_falls_back(self, searches):
        pos = KNN_CLOUDS["random_700"]
        table = knn_indices(pos, 3 * self.K, by_distance=True)
        mask = np.ones(700, dtype=bool)
        mask[table[0, 1:]] = False  # row 0 keeps only itself
        others = np.flatnonzero(mask)[1:40]
        # only a picked short row starts a search, and only at the picked rows
        got, want = self.reuse(pos, mask, others)
        assert searches == [] and np.array_equal(got, want)
        got, want = self.reuse(pos, mask, np.append(others, 0))
        assert searches == [(int(mask.sum()), others.size + 1)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kept", [1, 3, 8])
    def test_at_most_k_survivors(self, kept):
        pos = KNN_CLOUDS["random_700"]
        mask = np.zeros(700, dtype=bool)
        mask[np.random.default_rng(kept).choice(700, size=kept, replace=False)] = True
        got, _ = self.reuse(pos, mask, np.flatnonzero(mask))
        assert np.array_equal(got, np.tile(np.arange(kept), (kept, 1)))

    @pytest.mark.parametrize("seed", range(3))
    def test_rotated_grid_keeps_the_index_tie_break(self, seed, monkeypatch):
        monkeypatch.setattr(augment, "ROTATION_RANGE", (0.1, 6.0))
        monkeypatch.setattr(augment, "KEEP_PROB", 0.8)
        grid = integer_grid()
        cloud = PointCloud(grid, np.full(grid.shape, 0.5))
        _, index_map = augment_cloud(cloud, np.random.default_rng(seed))
        picked = np.flatnonzero(index_map >= 0)[::3]
        table = knn_indices(grid, 3 * self.K, by_distance=True, rows=picked)
        got = knn_from_table(table, picked, index_map, grid, self.K, picked)
        assert np.array_equal(got, brute_knn(grid[index_map >= 0], self.K)[index_map[picked]])

    @pytest.mark.parametrize("picked", [[5], [7], [699]], ids=["dropped", "not-in-table", "past-table"])
    def test_rejects_points_the_table_cannot_answer(self, picked):
        pos = KNN_CLOUDS["random_700"]
        mask = np.ones(700, dtype=bool)
        mask[5] = False
        table_rows = np.arange(0, 600, 5)  # holds 5, not 7 or 699
        table = knn_indices(pos, 3 * self.K, by_distance=True, rows=table_rows)
        with pytest.raises(ValueError, match="points"):
            knn_from_table(table, table_rows, drop(mask), pos, self.K, np.array(picked))


class TestHead:
    def test_three_four_five(self):
        head = HeadParams(np.eye(2), np.zeros(2))
        z, _ = head_forward(head, np.array([[3.0, 4.0]]))
        assert np.allclose(z, [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_unchanged(self):
        head = HeadParams(np.eye(3), np.zeros(3))
        row = np.array([[1.0, 0.0, 0.0]])
        assert np.allclose(head_forward(head, row)[0], row, atol=1e-9)

    def test_norm_sweep_random(self):
        rng = np.random.default_rng(12)
        head = HeadParams(rng.normal(size=(8, 16)), rng.normal(size=8))
        z, _ = head_forward(head, rng.normal(size=(100, 16)))
        assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() < 1e-6

    def test_tiny_row_above_the_abort_becomes_a_unit_row(self):
        head = HeadParams(np.eye(2), np.zeros(2))
        z, _ = head_forward(head, np.array([[3e-10, 4e-10]]))  # norm 5e-10
        assert np.allclose(z, [[0.6, 0.8]], atol=1e-12)

    def test_degenerate_embedding_aborts(self):
        head = HeadParams(np.eye(2), np.zeros(2))
        with pytest.raises(DegenerateEmbedding):
            head_forward(head, np.zeros((1, 2)))

    @pytest.mark.parametrize("shape", [(1, 3), (2,), (1, 1, 2)], ids=["wider", "1-d", "3-d"])
    def test_rejects_features_of_another_width(self, shape):
        head = HeadParams(np.eye(2), np.zeros(2))
        with pytest.raises(InvalidInput, match=r"^features must be \(N, 2\)"):
            head_forward(head, np.ones(shape))

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
    def test_model_round_trips(self, tmp_path):
        # a model is kept as its tensors() in an .npz and rebuilt by from_tensors
        def round_trip(params, name, **extra):
            path = tmp_path / f"{name}.npz"
            np.savez(path, **params.tensors())
            with np.load(path) as saved:
                return type(params).from_tensors(dict(saved), **extra)

        enc2 = EncoderParams2D.initialize(18)
        enc3 = EncoderParams3D.initialize(19, k=5)
        head = HeadParams.initialize(20)
        e2 = round_trip(enc2, "enc2")
        e3 = round_trip(enc3, "enc3", k=enc3.k)
        h = round_trip(head, "head")
        for back, orig in ((e2, enc2), (e3, enc3), (h, head)):
            assert checkpoint_checksum(back.tensors()) == checkpoint_checksum(orig.tensors())
        assert e3.k == 5


def _bad_nn_calls():
    """One call per input check of the network functions and parameter
    classes, each with one bad value."""
    enc = EncoderParams2D.initialize(0, 8)
    enc3 = EncoderParams3D.initialize(0, 8, k=4)
    head = HeadParams.initialize(0, 8, 8)
    images = np.zeros((1, 5, 5, 3))
    pos = np.random.default_rng(0).uniform(-1, 1, (20, 3))
    colors = np.full((20, 3), 0.5)
    rows = np.arange(4)
    nb = knn_indices(pos, 4, rows=rows)
    table = knn_indices(pos, 8, by_distance=True, rows=rows)
    t2, t3 = enc.tensors(), enc3.tensors()
    nan = np.array([np.nan])
    return {
        "from_tensors-unknown": lambda: EncoderParams2D.from_tensors({**t2, "extra": nan}),
        "EncoderParams2D-shape": lambda: EncoderParams2D(**{**t2, "conv1_b": np.zeros(15)}),
        "EncoderParams2D-finite": lambda: EncoderParams2D(**{**t2, "conv1_b": np.full(16, np.nan)}),
        "EncoderParams2D-dtype-mixed": lambda: EncoderParams2D(**{**t2, "conv2_b": np.zeros(32)}),
        "EncoderParams2D-dtype-int": lambda: EncoderParams2D(**{k: v.astype(int) for k, v in t2.items()}),
        "EncoderParams2D-dtype-float16": lambda: EncoderParams2D(
            **{k: v.astype(np.float16) for k, v in t2.items()}
        ),
        "EncoderParams3D-shape": lambda: EncoderParams3D(**{**t3, "b1": np.zeros(31)}, k=4),
        "EncoderParams3D-finite": lambda: EncoderParams3D(**{**t3, "b1": np.full(32, np.inf)}, k=4),
        "EncoderParams3D-k": lambda: EncoderParams3D(**t3, k=0),
        "EncoderParams3D-k-float": lambda: EncoderParams3D(**t3, k=2.5),
        "EncoderParams3D-k-bool": lambda: EncoderParams3D(**t3, k=True),
        "HeadParams-shapes": lambda: HeadParams(np.zeros((4, 8)), np.zeros(3)),
        "HeadParams-width": lambda: HeadParams(np.zeros((9, 8)), np.zeros(9)),
        "HeadParams-finite": lambda: HeadParams(np.full((4, 8), np.nan), np.zeros(4)),
        "encode_images_forward-at-empty": lambda: encode_images_forward(enc, images, at=np.array([], np.int64)),
        "encode_images_forward-at-unsorted": lambda: encode_images_forward(enc, images, at=np.array([3, 1])),
        "encode_images_forward-shape": lambda: encode_images_forward(enc, images[0]),
        "encode_images_forward-size": lambda: encode_images_forward(enc, images[:, :2]),
        "head_forward-finite": lambda: head_forward(head, np.full((2, 8), np.nan)),
        "knn_indices-shape": lambda: knn_indices(pos[:, :2], 4),
        "knn_indices-finite": lambda: knn_indices(np.vstack([pos, [np.inf, 0.0, 0.0]]), 4),
        "knn_indices-k": lambda: knn_indices(pos, 0),
        "knn_indices-rows-empty": lambda: knn_indices(pos, 4, rows=np.array([], np.int64)),
        "knn_indices-rows-repeated": lambda: knn_indices(pos, 4, rows=np.array([1, 1])),
        "knn_from_table-points": lambda: knn_from_table(table, rows, np.arange(20), pos, 4, np.array([7])),
        "point_forward-nb": lambda: point_forward(enc3, pos, colors, nb[:2], rows),
        "encode_points-empty": lambda: encode_points(enc3, PointCloud(np.empty((0, 3)), np.empty((0, 3)))),
    }


BAD_NN_CALLS = _bad_nn_calls()


@pytest.mark.parametrize("name", sorted(BAD_NN_CALLS))
def test_bad_input_raises_a_pixpoint_error(name):
    with pytest.raises(PixpointError):
        BAD_NN_CALLS[name]()
