"""3x3 convolution stack over images, forward and backward.

Convolutions are computed as im2col + one matrix product per layer; the
backward pass recomputes the patch matrix instead of caching it (memory
stays bounded by the activations). All arithmetic in float64.

A layer can also be evaluated only at given output pixels: `at` holds
sorted, unique flat positions (b*H + y)*W + x, and the patch matrix then
has one row per position. Stage 1 reads its loss at a few thousand
sampled pixels, so it runs conv3 this way; its backward scatters the
patch-row gradients back into the padded input with one indexed add per
kernel offset. conv1 and conv2, stage 2's frozen embeddings and
`encode_image` need every pixel and take the dense path (`at=None`).
"""

from __future__ import annotations

import numpy as np

from .params import EncoderParams2D


def _positions(at: np.ndarray, shape) -> tuple:
    """Flat output positions -> (b, y, x) index arrays; checks `at`."""
    b, h, w = shape[:3]
    if at.ndim != 1 or at.size == 0:
        raise ValueError(f"at must be a nonempty 1-D array, got shape {at.shape}")
    if at[0] < 0 or at[-1] >= b * h * w or np.any(at[1:] <= at[:-1]):
        raise ValueError(f"at must be sorted, unique and within [0, {b * h * w})")
    bi, rest = np.divmod(at, h * w)
    yi, xi = np.divmod(rest, w)
    return bi, yi, xi


def _im2col(x: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """(B,H,W,C) -> (B*H*W, C*9) patch matrix for 3x3 kernels with pad 1;
    with `at`, (len(at), C*9): the rows of those output positions only."""
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2, w + 2, c))
    xp[:, 1:-1, 1:-1, :] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    # win: (B, H, W, C, 3, 3) view; reorder so a row is [c0k0..c0k8, c1k0..]
    if at is None:
        return win.reshape(b * h * w, c * 9)
    return win[_positions(at, x.shape)].reshape(at.shape[0], c * 9)


def conv3x3_forward(x: np.ndarray, w: np.ndarray, bias: np.ndarray, at=None) -> np.ndarray:
    """x (B,H,W,Cin), w (Cout,Cin,3,3) -> (B,H,W,Cout), stride 1, zero pad 1;
    with `at`, (len(at), Cout): the output rows at those positions."""
    b, h, wd, cin = x.shape
    cols = _im2col(x, at)
    out = cols @ w.reshape(w.shape[0], cin * 9).T
    out += bias
    if at is not None:
        return out
    return out.reshape(b, h, wd, w.shape[0])


def conv3x3_backward(x: np.ndarray, w: np.ndarray, grad_out: np.ndarray, need_grad_x=True, at=None):
    """Returns (grad_x or None, grad_w, grad_b). With `at`, grad_out is
    (len(at), Cout), the gradient of the rows that forward returned."""
    b, h, wd, cin = x.shape
    cout = w.shape[0]
    g2 = grad_out.reshape(-1, cout)
    cols = _im2col(x, at)
    grad_w = (g2.T @ cols).reshape(cout, cin, 3, 3)
    grad_b = g2.sum(axis=0)
    if not need_grad_x:
        return None, grad_w, grad_b
    grad_cols = g2 @ w.reshape(cout, cin * 9)
    grad_xp = np.zeros((b, h + 2, wd + 2, cin))
    if at is None:
        gc = grad_cols.reshape(b, h, wd, cin, 3, 3)
        for i in range(3):
            for j in range(3):
                grad_xp[:, i : i + h, j : j + wd, :] += gc[:, :, :, :, i, j]
    else:
        gc = grad_cols.reshape(-1, cin, 3, 3)
        bi, yi, xi = _positions(at, x.shape)
        # positions are unique, so no target repeats within one offset
        for i in range(3):
            for j in range(3):
                grad_xp[bi, yi + i, xi + j] += gc[:, :, i, j]
    return grad_xp[:, 1:-1, 1:-1, :], grad_w, grad_b


def encode_images_forward(params: EncoderParams2D, images: np.ndarray, at=None):
    """Batched forward: images (B,H,W,3) -> (features (B,H,W,D), cache);
    with `at`, features are (len(at), D), the rows at those positions."""
    if images.ndim != 4 or images.shape[3] != 3:
        raise ValueError(f"images must be (B,H,W,3), got {images.shape}")
    if images.shape[1] < 3 or images.shape[2] < 3:
        raise ValueError(f"image dims must be at least 3x3, got {images.shape[1:3]}")
    a1 = np.maximum(conv3x3_forward(images, params.conv1_w, params.conv1_b), 0.0)
    a2 = np.maximum(conv3x3_forward(a1, params.conv2_w, params.conv2_b), 0.0)
    feats = conv3x3_forward(a2, params.conv3_w, params.conv3_b, at=at)
    cache = {"x": images, "a1": a1, "a2": a2, "at": at}
    return feats, cache


def encode_images_backward(params: EncoderParams2D, cache: dict, grad_feats: np.ndarray) -> dict:
    """Gradients w.r.t. all encoder parameters (input gradient not needed).
    grad_feats has the shape of the features forward returned."""
    x, a1, a2 = cache["x"], cache["a1"], cache["a2"]
    grad_a2, g3w, g3b = conv3x3_backward(a2, params.conv3_w, grad_feats, at=cache["at"])
    grad_a2 *= a2 > 0.0
    grad_a1, g2w, g2b = conv3x3_backward(a1, params.conv2_w, grad_a2)
    grad_a1 *= a1 > 0.0
    _, g1w, g1b = conv3x3_backward(x, params.conv1_w, grad_a1, need_grad_x=False)
    return {
        "conv1_w": g1w,
        "conv1_b": g1b,
        "conv2_w": g2w,
        "conv2_b": g2b,
        "conv3_w": g3w,
        "conv3_b": g3b,
    }


def encode_image(params: EncoderParams2D, image) -> np.ndarray:
    """Per-pixel features (H,W,D) of one Image; same spatial dims as input."""
    feats, _ = encode_images_forward(params, np.asarray(image.pixels)[None])
    return feats[0]
