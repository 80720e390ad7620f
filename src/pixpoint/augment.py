"""Stochastic 2D / 3D augmentations with coordinate provenance.

Every 2D geometric transform is an affine map from output pixel grid to
source coordinates, so a chain of crops/flips composes into a single
affine. The image is resampled (bilinear) once per contiguous geometric
run; photometric transforms force materialization and then act on pixel
values directly. The CoordMap returned with an augmented image maps each
output pixel to continuous coordinates in the ORIGINAL image, which is
what positive-pair matching consumes.

Resampling uses the endpoint-preserving convention: a crop window
[x0, x0+cw-1] maps linearly onto output columns [0, ow-1], so sample
coordinates never leave the source support and output values equal true
bilinear interpolation everywhere (no border clamping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCrop, EmptyCloud, EmptyOverlap, InvalidInput
from .geometry import Image, PointCloud
from .rngutil import rng_for

LUMA = np.array([0.299, 0.587, 0.114])


# ── transform descriptors ───────────────────────────────────────────────

@dataclass(frozen=True)
class RandomResizedCrop:
    """Crop a window of sampled area fraction, resize to out_size.

    scale_range is the area fraction of the current image; the window is
    square-scaled per axis (side = sqrt(scale) * source side) and placed
    uniformly at an integer corner.
    """

    scale_range: tuple
    out_size: tuple  # (width, height)

    def __post_init__(self):
        lo, hi = self.scale_range
        if not (0.0 < lo <= hi <= 1.0):
            raise InvalidInput(f"scale_range must be within (0,1], got {self.scale_range}")
        ow, oh = self.out_size
        if not (ow > 0 and oh > 0):
            raise InvalidInput(f"out_size must be positive, got {self.out_size}")


@dataclass(frozen=True)
class HorizontalFlip:
    p: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidInput(f"flip probability outside [0,1]: {self.p}")


@dataclass(frozen=True)
class ColorJitter:
    """Multiplicative factor ranges; None disables a component.

    Jitters image pixels in a TransformSpec2D and point colours in a
    TransformSpec3D. Applied in fixed order brightness -> contrast ->
    saturation, then the result is clamped to [0,1].
    """

    brightness: tuple | None = None
    contrast: tuple | None = None
    saturation: tuple | None = None

    def __post_init__(self):
        for name in ("brightness", "contrast", "saturation"):
            rng = getattr(self, name)
            if rng is not None:
                lo, hi = rng
                if not (0.0 <= lo <= hi):
                    raise InvalidInput(f"bad {name} range {rng}")


@dataclass(frozen=True)
class Grayscale:
    p: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidInput(f"grayscale probability outside [0,1]: {self.p}")


@dataclass(frozen=True)
class TransformSpec2D:
    ops: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, (RandomResizedCrop, HorizontalFlip, ColorJitter, Grayscale)):
                raise InvalidInput(f"unknown 2D transform {op!r}")


@dataclass(frozen=True)
class RotationZ:
    """Rotation about the cloud's z (gravity) axis through its origin."""

    angle_range: tuple = (0.0, 2.0 * np.pi)

    def __post_init__(self):
        lo, hi = self.angle_range
        two_pi = 2.0 * np.pi
        if not (0.0 <= lo <= hi < two_pi + 1e-12):
            raise InvalidInput(f"angle_range must lie in [0, 2pi), got {self.angle_range}")


@dataclass(frozen=True)
class PointDropout:
    keep_prob: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.keep_prob <= 1.0:
            raise InvalidInput(f"keep_prob must be in (0,1], got {self.keep_prob}")


@dataclass(frozen=True)
class TransformSpec3D:
    ops: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, (RotationZ, PointDropout, ColorJitter)):
                raise InvalidInput(f"unknown 3D transform {op!r}")


# ── coordinate maps ──────────────────────────────────────────────────────

@dataclass(frozen=True)
class CoordMap:
    """Per output pixel: continuous source coordinates in the original image."""

    src: np.ndarray  # (H, W, 2) float64, [..., 0] = u (column), [..., 1] = v (row)
    valid: np.ndarray  # (H, W) bool

    def __post_init__(self):
        if self.src.ndim != 3 or self.src.shape[2] != 2 or self.valid.shape != self.src.shape[:2]:
            raise ValueError("inconsistent CoordMap shapes")

    @staticmethod
    def identity(width: int, height: int) -> "CoordMap":
        xs, ys = _output_grid(width, height)
        return CoordMap(np.stack([xs, ys], axis=-1), np.ones((height, width), dtype=bool))

    @property
    def height(self):
        return self.src.shape[0]

    @property
    def width(self):
        return self.src.shape[1]


def _output_grid(width, height):
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    return xs, ys


def bilinear_sample(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample H x W x C pixels at continuous (xs, ys); callers keep coords in range."""
    h, w = pixels.shape[:2]
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0)[..., None]
    fy = (ys - y0)[..., None]
    top = pixels[y0, x0] * (1.0 - fx) + pixels[y0, x1] * fx
    bot = pixels[y1, x0] * (1.0 - fx) + pixels[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def _crop_affine(x0, y0, cw, ch, ow, oh):
    """3x3 affine sending output (x, y, 1) to source coords of a crop+resize."""
    a = np.eye(3)
    a[0, 0] = (cw - 1) / (ow - 1) if ow > 1 else 0.0
    a[1, 1] = (ch - 1) / (oh - 1) if oh > 1 else 0.0
    a[0, 2] = x0 + (0.0 if ow > 1 else (cw - 1) / 2.0)
    a[1, 2] = y0 + (0.0 if oh > 1 else (ch - 1) / 2.0)
    return a


def _flip_affine(width):
    a = np.eye(3)
    a[0, 0] = -1.0
    a[0, 2] = width - 1.0
    return a


def _apply_jitter(pixels, op, rng):
    out = pixels
    if op.brightness is not None:
        out = out * rng.uniform(*op.brightness)
    if op.contrast is not None:
        gray_mean = float((out @ LUMA).mean())
        out = (out - gray_mean) * rng.uniform(*op.contrast) + gray_mean
    if op.saturation is not None:
        luma = (out @ LUMA)[..., None]
        out = luma + (out - luma) * rng.uniform(*op.saturation)
    return np.clip(out, 0.0, 1.0)


def augment_image(img: Image, spec: TransformSpec2D, rng_seed: int):
    """Apply spec in order; returns (augmented Image, CoordMap to original).

    Deterministic: identical (img, spec, rng_seed) give bit-identical
    outputs. Parameters are drawn from the seed in op order.
    """
    rng = rng_for(rng_seed, "augment2d")
    base = np.asarray(img.pixels, dtype=np.float64)
    total = np.eye(3)  # base coords -> original coords
    affine = np.eye(3)  # output grid -> base coords
    size = (img.width, img.height)  # current output size
    pristine = True  # base pixels untouched and affine identity

    def materialize():
        nonlocal base, total, affine, pristine
        if pristine and size == (base.shape[1], base.shape[0]):
            return
        xs, ys = _output_grid(*size)
        sx = affine[0, 0] * xs + affine[0, 1] * ys + affine[0, 2]
        sy = affine[1, 0] * xs + affine[1, 1] * ys + affine[1, 2]
        base = bilinear_sample(base, sx, sy)
        total = total @ affine
        affine = np.eye(3)
        pristine = True

    for op in spec.ops:
        if isinstance(op, RandomResizedCrop):
            scale = rng.uniform(*op.scale_range)
            cw = int(np.floor(np.sqrt(scale) * size[0] + 0.5))
            ch = int(np.floor(np.sqrt(scale) * size[1] + 0.5))
            if cw < 1 or ch < 1:
                raise DegenerateCrop(
                    f"crop window {cw}x{ch} from {size[0]}x{size[1]} at scale {scale:.4g}"
                )
            x0 = int(rng.integers(0, size[0] - cw + 1))
            y0 = int(rng.integers(0, size[1] - ch + 1))
            ow, oh = op.out_size
            affine = affine @ _crop_affine(x0, y0, cw, ch, ow, oh)
            size = (ow, oh)
            pristine = False
        elif isinstance(op, HorizontalFlip):
            if rng.random() < op.p:
                affine = affine @ _flip_affine(size[0])
                pristine = False
        elif isinstance(op, ColorJitter):
            materialize()
            base = _apply_jitter(base, op, rng)
        elif isinstance(op, Grayscale):
            do_it = rng.random() < op.p
            if do_it:
                materialize()
                base = np.repeat((base @ LUMA)[..., None], 3, axis=-1)

    # skips the resample when it would be the identity; afterwards the
    # output grid is `base` and `total` maps it to the original
    materialize()
    out_pixels = np.clip(base, 0.0, 1.0)

    xs, ys = _output_grid(*size)
    ox = total[0, 0] * xs + total[0, 1] * ys + total[0, 2]
    oy = total[1, 0] * xs + total[1, 1] * ys + total[1, 2]
    eps = 1e-9
    valid = (
        (ox >= -eps)
        & (ox <= img.width - 1 + eps)
        & (oy >= -eps)
        & (oy <= img.height - 1 + eps)
    )
    return Image(out_pixels), CoordMap(np.stack([ox, oy], axis=-1), valid)


# ── positive-pixel matching ──────────────────────────────────────────────

MATCH_RADIUS_PX = 0.5


def _expand_ranges(left, right):
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows = np.repeat(np.arange(left.shape[0]), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.arange(total) - starts + np.repeat(left, counts)
    return rows, cols


def match_positive_pixels(map_a: CoordMap, map_b: CoordMap, count: int, rng_seed: int):
    """Output-pixel pairs whose original coordinates coincide within 0.5 px.

    Returns (pixels_a, pixels_b): two (n, 2) int arrays of (column, row)
    output coordinates with n = min(count, number of matches), sampled
    uniformly without replacement. Raises EmptyOverlap when no pair of
    valid pixels matches.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    av = map_a.valid.ravel()
    bv = map_b.valid.ravel()
    a_src = map_a.src.reshape(-1, 2)[av]
    b_src = map_b.src.reshape(-1, 2)[bv]
    a_lin = np.flatnonzero(av)
    b_lin = np.flatnonzero(bv)
    if a_src.shape[0] == 0 or b_src.shape[0] == 0:
        raise EmptyOverlap("no valid pixels to match")

    # each source point's 0.5-px neighbours lie in a 2x2 block of unit cells
    off = 16.0  # guard against negative cells near the image border
    b_cell = np.floor(b_src + off).astype(np.int64)
    b_key = b_cell[:, 0] << 20 | b_cell[:, 1]
    b_order = np.argsort(b_key, kind="stable")
    b_key_sorted = b_key[b_order]

    rows_all = []
    cols_all = []
    for du in (-0.5, 0.5):
        for dv in (-0.5, 0.5):
            cell = np.floor(a_src + [du + off, dv + off]).astype(np.int64)
            key = cell[:, 0] << 20 | cell[:, 1]
            left = np.searchsorted(b_key_sorted, key, side="left")
            right = np.searchsorted(b_key_sorted, key, side="right")
            r, c = _expand_ranges(left, right)
            rows_all.append(r)
            cols_all.append(c)
    ai = np.concatenate(rows_all)
    bi = b_order[np.concatenate(cols_all)]
    if ai.size:
        d2 = ((a_src[ai] - b_src[bi]) ** 2).sum(axis=1)
        keep = d2 <= MATCH_RADIUS_PX**2
        ai, bi = ai[keep], bi[keep]
    if ai.size == 0:
        raise EmptyOverlap("no source coordinates coincide within 0.5 px")

    rng = rng_for(rng_seed, "match")
    if ai.size > count:
        pick = rng.choice(ai.size, size=count, replace=False)
        ai, bi = ai[pick], bi[pick]
    a_flat = a_lin[ai]
    b_flat = b_lin[bi]
    pixels_a = np.stack([a_flat % map_a.width, a_flat // map_a.width], axis=1)
    pixels_b = np.stack([b_flat % map_b.width, b_flat // map_b.width], axis=1)
    return pixels_a, pixels_b


# ── 3D augmentation ──────────────────────────────────────────────────────

def augment_cloud(cloud: PointCloud, spec: TransformSpec3D, rng_seed: int):
    """Apply spec in order; returns (cloud, index_map).

    index_map sends each original point to its output row, -1 if dropped;
    no op reorders points. Stage 2 matches a scan to pixels before this
    runs, so a slot's matches are the z-buffer winners that survive dropout.
    """
    if len(cloud) == 0:
        raise ValueError("cloud must be nonempty")
    rng = rng_for(rng_seed, "augment3d")
    pos = np.array(cloud.positions)
    col = np.array(cloud.colors)
    lab = None if cloud.labels is None else np.array(cloud.labels)
    index_map = np.arange(len(cloud), dtype=np.int64)

    for op in spec.ops:
        if isinstance(op, RotationZ):
            theta = rng.uniform(*op.angle_range)
            c, s = np.cos(theta), np.sin(theta)
            r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            pos = pos @ r.T
        elif isinstance(op, PointDropout):
            keep = rng.random(pos.shape[0]) < op.keep_prob
            if not keep.any():
                raise EmptyCloud(f"dropout keep_prob={op.keep_prob} removed every point")
            pos = pos[keep]
            col = col[keep]
            if lab is not None:
                lab = lab[keep]
            # remap: current surviving rows get consecutive new indices
            new_of_current = np.full(keep.shape[0], -1, dtype=np.int64)
            new_of_current[keep] = np.arange(int(keep.sum()))
            alive = index_map >= 0
            index_map[alive] = new_of_current[index_map[alive]]
        elif isinstance(op, ColorJitter):
            col = _apply_jitter(col, op, rng)

    return PointCloud(pos, col, lab), index_map
