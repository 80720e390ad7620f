"""3x3 convolution stack over images, forward and backward.

The stack computes in its parameters' dtype, float32 or float64:
`encode_images_forward` casts the images to it once, as it pads them, and
`encode_images_backward` casts the incoming gradient to it once. Each
layer makes every buffer, and casts its weights, in the dtype of its
input grid, so float32 parameters run every GEMM at half the bytes.

Every activation lives on a zero-bordered grid (B, H+2, W+2, C): the
H x W interior holds the values, and the one-pixel border is the zero
padding of the next 3x3 convolution. `encode_images_forward` pads the
images once; each layer takes a padded input and returns a padded output
whose border it rewrites to 0, so no layer pads or copies the interior.

Viewed as a flat (B*(H+2)*(W+2), C) grid, kernel offset (i, j) is a shift
of s = (i-1)*(W+2) + (j-1) rows. A layer sums (rows moved by s) @
(weights at (i, j)) over the nine offsets; no im2col patch matrix,
holding each input nine times, is built. Dense layers compute, in blocks
that stay in cache, the band [W+3, n-W-3) of grid rows, which holds every
output pixel; moved by s a block is a slice. The input gradient is the
same sum over the padded output gradient with shifts negated, written
over the layer's input grid once the weight gradient has read it. Its
border holds the gradient of the padding, which is not an input: the
caller's ReLU mask (zero on the border), taken before the grid is
overwritten, discards it, and what is left is the previous layer's padded
output gradient. So `encode_images_backward` consumes its cache: each
activation's buffer becomes that activation's gradient, and the backward
holds one grid per layer, not two. With `at` (sorted, unique flat
positions (b*H + y)*W + x; stage 1's conv3) the loop runs over those
pixels' grid rows instead and scatters the input gradient back, one add
per offset.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInput
from .params import EncoderParams2D

# elements in one block of output rows: 256 KB in float64, 128 KB in
# float32. Counted in elements, not bytes: in either dtype the blocked GEMMs
# ran fastest at about 1024 rows of 32 channels, and 2048 float32 rows (256
# KB) took the stage-1 encoder about 10% longer.
_BLOCK = 1 << 15
_PAD = ((0, 0), (1, 1), (1, 1), (0, 0))  # (B,H,W,C) -> (B,H+2,W+2,C)


def _positions(shape, at) -> tuple:
    """(grid rows of the band, or of the checked `at`; each offset's shift)
    on a padded grid of `shape` (B, H+2, W+2, ...)."""
    b, h, w = shape[0], shape[1] - 2, shape[2] - 2
    shifts = [(i - 1) * (w + 2) + j - 1 for i in range(3) for j in range(3)]
    if at is None:
        return slice(w + 3, b * (h + 2) * (w + 2) - w - 3), shifts
    if not isinstance(at, np.ndarray):
        raise InvalidInput(f"at must be a nonempty 1-D integer array, got {type(at).__name__}")
    if not np.issubdtype(at.dtype, np.integer) or at.ndim != 1 or at.size == 0:
        raise InvalidInput(f"at must be a nonempty 1-D integer array, got {at.dtype} {at.shape}")
    if at[0] < 0 or at[-1] >= b * h * w or np.any(at[1:] <= at[:-1]):
        raise InvalidInput(f"at must be sorted, unique and within [0, {b * h * w})")
    bi, rest = np.divmod(at, h * w)
    return (bi * (h + 2) + rest // w + 1) * (w + 2) + rest % w + 1, shifts


def _blocks(rows, shifts, width: int):
    """Yields (a block of output rows, the grid rows it reads at each offset)."""
    dense = isinstance(rows, slice)
    n, step = (rows.stop - rows.start if dense else rows.size), max(1, _BLOCK // width)
    for r in range(0, n, step):
        blk = slice(r, min(r + step, n))
        if dense:
            yield blk, [slice(rows.start + s + r, rows.start + s + blk.stop) for s in shifts]
        else:
            yield blk, [rows[blk] + s for s in shifts]


def _offset_sum(src, rows, shifts, wk, out) -> None:
    """out[r] += sum over offsets k of src[rows[r] + shifts[k]] @ wk[k]."""
    width = max(wk.shape[1:])
    tmp = np.empty_like(out[: max(1, _BLOCK // width)])
    for blk, taps in _blocks(rows, shifts, width):
        acc, t = out[blk], tmp[: blk.stop - blk.start]
        for tap, w_k in zip(taps, wk):
            acc += np.matmul(src[tap], w_k, out=t)


def conv3x3_forward(xp: np.ndarray, w: np.ndarray, bias: np.ndarray, at=None) -> np.ndarray:
    """xp (B,H+2,W+2,Cin) zero-bordered, w (Cout,Cin,3,3) -> (B,H+2,W+2,Cout)
    zero-bordered, stride 1; with `at`, (len(at), Cout): the output rows at
    those interior positions."""
    rows, shifts = _positions(xp.shape, at)
    cin, cout = xp.shape[3], w.shape[0]
    wk = np.ascontiguousarray(w.transpose(2, 3, 1, 0), dtype=xp.dtype).reshape(9, cin, cout)
    out = np.zeros(xp.shape[:3] + (cout,) if at is None else (at.size, cout), dtype=xp.dtype)
    flat = out.reshape(-1, cout)
    band = flat[rows] if at is None else flat
    _offset_sum(xp.reshape(-1, cin), rows, shifts, wk, band)
    band += bias  # over contiguous rows: about twice as fast as over the strided interior
    if at is not None:
        return out
    out[:, [0, -1]] = 0.0  # the band's rows on the border hold partial sums and the bias
    out[:, :, [0, -1]] = 0.0
    return out


def conv3x3_backward(xp: np.ndarray, w: np.ndarray, grad_out: np.ndarray, need_grad_x=True, at=None):
    """Returns (grad_x or None, grad_w, grad_b) for the layer forward ran on
    the zero-bordered `xp`. grad_out is (B,H+2,W+2,Cout) with a zero border,
    or with `at` (len(at), Cout), the gradient of the rows that forward
    returned. grad_x has the shape of xp and is written over xp, once
    grad_w no longer reads it; its border holds the gradient of the
    padding, which the caller's mask discards. Without need_grad_x, xp is
    left as it was."""
    cout, cin = w.shape[:2]
    rows, shifts = _positions(xp.shape, at)
    xf = xp.reshape(-1, cin)
    gg = grad_out.reshape(-1, cout)
    g = gg[rows] if at is None else gg
    grad_w, tmp = np.zeros((9, cout, cin), xp.dtype), np.empty((cout, cin), xp.dtype)
    for blk, taps in _blocks(rows, shifts, max(cin, cout)):
        for gw, tap in zip(grad_w, taps):
            gw += np.matmul(g[blk].T, xf[tap], out=tmp)
    grad_w = np.ascontiguousarray(grad_w.reshape(3, 3, cout, cin).transpose(2, 3, 0, 1))
    grad_b = g.sum(axis=0)  # the band's border rows add exact zeros
    if not need_grad_x:
        return None, grad_w, grad_b
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1), dtype=xp.dtype).reshape(9, cout, cin)
    xf[...] = 0.0  # xp's own buffer, unless xp was not contiguous
    if at is None:
        _offset_sum(gg, rows, [-s for s in shifts], wt, xf[rows])
    else:  # `at` is unique, so no target repeats within one indexed add
        for s, w_k in zip(shifts, wt):
            xf[rows + s] += g @ w_k
    return xf.reshape(xp.shape), grad_w, grad_b


def encode_images_forward(params: EncoderParams2D, images: np.ndarray, at=None):
    """Batched forward: images (B,H,W,3) -> (features (B,H,W,D), a view of
    the zero-bordered output, cache); with `at`, features are (len(at), D),
    the rows at those positions. Everything is in the parameters' dtype."""
    if images.ndim != 4 or images.shape[3] != 3:
        raise InvalidInput(f"images must be (B,H,W,3), got {images.shape}")
    if images.shape[1] < 3 or images.shape[2] < 3:
        raise InvalidInput(f"image dims must be at least 3x3, got {images.shape[1:3]}")
    xp = np.pad(np.asarray(images, dtype=params.conv1_w.dtype), _PAD)
    a1 = conv3x3_forward(xp, params.conv1_w, params.conv1_b)
    np.maximum(a1, 0.0, out=a1)
    a2 = conv3x3_forward(a1, params.conv2_w, params.conv2_b)
    np.maximum(a2, 0.0, out=a2)
    feats = conv3x3_forward(a2, params.conv3_w, params.conv3_b, at=at)
    if at is None:
        feats = feats[:, 1:-1, 1:-1]
    return feats, {"xp": xp, "a1": a1, "a2": a2, "at": at}


def encode_images_backward(params: EncoderParams2D, cache: dict, grad_feats: np.ndarray) -> dict:
    """Gradients w.r.t. all encoder parameters (input gradient not needed).
    grad_feats has the shape of the features forward returned; it is cast
    to the parameters' dtype, and so are the gradients.

    Consumes the cache: each activation's buffer becomes its gradient and
    leaves the cache when the layer that reads it returns, so the backward
    holds one grid per layer. A second call on the same cache raises
    InvalidInput."""
    if "a2" not in cache:
        raise InvalidInput("the cache was consumed by an earlier backward; run the forward again")
    at = cache.pop("at")
    grad3 = np.asarray(grad_feats, dtype=params.conv1_w.dtype)
    if at is None:
        grad3 = np.pad(grad3, _PAD)
    # each ReLU mask is taken before the layer writes its input gradient
    # over the activation; a1 and a2 keep no other reference here
    mask = cache["a2"] > 0.0
    grad_a2, g3w, g3b = conv3x3_backward(cache.pop("a2"), params.conv3_w, grad3, at=at)
    grad_a2 *= mask
    del grad3, mask
    mask = cache["a1"] > 0.0
    grad_a1, g2w, g2b = conv3x3_backward(cache.pop("a1"), params.conv2_w, grad_a2)
    del grad_a2
    grad_a1 *= mask
    del mask
    _, g1w, g1b = conv3x3_backward(cache.pop("xp"), params.conv1_w, grad_a1, need_grad_x=False)
    return dict(conv1_w=g1w, conv1_b=g1b, conv2_w=g2w, conv2_b=g2b, conv3_w=g3w, conv3_b=g3b)
