"""Stochastic image and scan augmentations with coordinate provenance.

A view's provenance is its affine. Crops, resizes and flips scale and
shift each axis, so a chain of them is one 3x3 affine with a diagonal
linear part; augment_image returns it in a CoordMap, from the view's
output pixels to continuous coordinates in the ORIGINAL image. The image
is resampled (bilinear) once per contiguous geometric run; photometric
transforms force materialization and then act on pixel values directly.

Resampling uses the endpoint-preserving convention: a crop window
[x0, x0+cw-1] maps linearly onto output columns [0, ow-1], so sample
coordinates never leave the source support, output values equal true
bilinear interpolation everywhere (no border clamping) and every output
pixel maps inside the original image.

match_positive_pixels pairs the pixels of two views whose original
coordinates lie within 0.5 px, as PixPro does, in closed form: each axis
maps A's coordinates through B's inverse affine to the few B pixels
within 0.5 px, and a column pair and a row pair match when their squared
distances sum to at most 0.25. Distance alone decides a match. The
matches are listed by (row pair, column pair), the order the sample is
drawn from, so a generator in one state always samples the same pairs.

A scan has one augmentation, augment_cloud: a rotation about z by an
angle from ROTATION_RANGE, dropout keeping each point with probability
KEEP_PROB, then CLOUD_JITTER on the point colours. Those three module
constants are the whole recipe; stage 2 applies it to every slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCrop, EmptyCloud, EmptyOverlap, InvalidInput, check_count
from .geometry import Image, PointCloud, _readonly

LUMA = np.array([0.299, 0.587, 0.114])


# ── transform descriptors ───────────────────────────────────────────────

def _check_range(name: str, value, ok) -> None:
    """Raise InvalidInput unless value unpacks to a pair (lo, hi) with ok(lo, hi)."""
    try:
        lo, hi = value
        good = bool(ok(lo, hi))  # NaN fails every comparison
    except (TypeError, ValueError):
        good = False
    if not good:
        raise InvalidInput(f"bad {name} {value!r}")


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
        _check_range("scale_range", self.scale_range, lambda lo, hi: 0.0 < lo <= hi <= 1.0)
        if len(self.out_size) != 2:
            raise InvalidInput(f"out_size must be (width, height), got {self.out_size}")
        check_count("out_size width", self.out_size[0], 1)
        check_count("out_size height", self.out_size[1], 1)


@dataclass(frozen=True)
class HorizontalFlip:
    p: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidInput(f"flip probability outside [0,1]: {self.p}")


@dataclass(frozen=True)
class ColorJitter:
    """Multiplicative factor ranges; None disables a component.

    Jitters image pixels in a TransformSpec2D, and scan point colours as
    CLOUD_JITTER. Applied in fixed order brightness -> contrast ->
    saturation, then the result is clamped to [0,1]. A range is a finite
    (lo, hi) with 0 <= lo <= hi.
    """

    brightness: tuple | None = None
    contrast: tuple | None = None
    saturation: tuple | None = None

    def __post_init__(self):
        for name in ("brightness", "contrast", "saturation"):
            value = getattr(self, name)
            if value is not None:
                _check_range(f"{name} range", value, lambda lo, hi: 0.0 <= lo <= hi < np.inf)


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


# the one scan augmentation, applied by augment_cloud in this order
ROTATION_RANGE = (0.0, 2.0 * np.pi - 1e-9)  # angle about z, radians
KEEP_PROB = 0.9  # each point survives dropout with this probability
CLOUD_JITTER = ColorJitter(brightness=(0.8, 1.2), contrast=(0.8, 1.2), saturation=(0.8, 1.2))


# ── coordinate maps ──────────────────────────────────────────────────────

@dataclass(frozen=True)
class CoordMap:
    """A view's provenance: the affine sending its output pixel (x, y, 1)
    to (u, v, 1) in the original image, and its size. The linear part is
    diagonal, which match_positive_pixels relies on."""

    affine: np.ndarray  # 3x3 float64
    width: int
    height: int

    def __post_init__(self):
        a = _readonly(self.affine)
        if a.shape != (3, 3) or not np.all(np.isfinite(a)):
            raise InvalidInput(f"affine must be a finite 3x3 matrix, got shape {a.shape}")
        if not np.array_equal(a[2], [0.0, 0.0, 1.0]):
            raise InvalidInput(f"affine's last row must be [0, 0, 1], got {a[2].tolist()}")
        if a[0, 1] != 0.0 or a[1, 0] != 0.0:
            raise InvalidInput("affine's off-diagonal linear terms must be 0")
        check_count("width", self.width, 1)
        check_count("height", self.height, 1)
        object.__setattr__(self, "affine", a)

    @staticmethod
    def identity(width: int, height: int) -> "CoordMap":
        return CoordMap(np.eye(3), width, height)

    def source_axis(self, axis: int) -> np.ndarray:
        """Original coordinate of each output column (axis 0: u) or row
        (axis 1: v): t00 * x + t02, which is t00 * x + t01 * y + t02 to the
        bit, as the off-diagonal term is 0."""
        n = self.width if axis == 0 else self.height
        return self.affine[axis, axis] * np.arange(n, dtype=np.float64) + self.affine[axis, 2]


def bilinear_sample(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample H x W x C pixels on the grid of source columns xs (W',) and
    rows ys (H',): (H', W', C). Interpolates along x with two column
    gathers, then along y; callers keep coords in range."""
    h, w = pixels.shape[:2]
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0)[:, None]
    fy = (ys - y0)[:, None, None]
    cols = pixels[:, x0] * (1.0 - fx) + pixels[:, x1] * fx
    return cols[y0] * (1.0 - fy) + cols[y1] * fy


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


def augment_image(img: Image, spec: TransformSpec2D, rng: np.random.Generator):
    """Apply spec in order; returns (augmented Image, CoordMap to original).

    Draws each op's parameters, in op order, from the generator it is
    given only, so generators in equal states give bit-identical outputs.
    """
    base = np.asarray(img.pixels, dtype=np.float64)
    total = np.eye(3)  # base coords -> original coords
    affine = np.eye(3)  # output grid -> base coords
    size = (img.width, img.height)  # current output size
    pristine = True  # base pixels untouched and affine identity

    def materialize():
        nonlocal base, total, affine, pristine
        if pristine and size == (base.shape[1], base.shape[0]):
            return
        step = CoordMap(affine, *size)
        base = bilinear_sample(base, step.source_axis(0), step.source_axis(1))
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
    return Image(np.clip(base, 0.0, 1.0)), CoordMap(total, *size)


# ── positive-pixel matching ──────────────────────────────────────────────

MATCH_RADIUS_PX = 0.5


def _axis_pairs(map_a: CoordMap, map_b: CoordMap, axis: int):
    """The pairs of A and B columns (axis 0) or rows (axis 1) whose source
    coordinates lie within MATCH_RADIUS_PX, as (a, b, d2) ordered by
    (a, b): d2 is their squared distance along the axis."""
    ua, ub = map_a.source_axis(axis), map_b.source_axis(axis)
    scale, shift = map_b.affine[axis, axis], map_b.affine[axis, 2]
    # the B pixels within r of a lie in a window of 2r / |scale| + 1 around
    # its preimage: take a spare on each side for rounding, kept inside the
    # axis. A scale of 0 (an axis of one pixel, or a crop one pixel wide)
    # sends every pixel to one point, so all are candidates.
    first, span = np.zeros(ua.size), ub.size
    if scale != 0.0:
        reach = MATCH_RADIUS_PX / abs(scale)
        span = int(min(ub.size, 2 * reach + 3))
        first = np.clip(np.ceil((ua - shift) / scale - reach) - 1, 0, ub.size - span)
    cand = first.astype(np.int64)[:, None] + np.arange(span)
    d2 = (ua[:, None] - ub[cand]) ** 2
    a, k = np.nonzero(d2 <= MATCH_RADIUS_PX**2)
    return a, cand[a, k], d2[a, k]


def match_positive_pixels(map_a: CoordMap, map_b: CoordMap, count: int, rng: np.random.Generator):
    """Output-pixel pairs whose original coordinates coincide within 0.5 px.

    Returns (pixels_a, pixels_b): two (n, 2) int arrays of (column, row)
    output coordinates with n = min(count, number of matches), sampled
    uniformly without replacement by the generator it is given; it draws
    nothing when n is every match. Raises EmptyOverlap when no pixel of
    B lies within 0.5 px of a pixel of A.
    """
    check_count("count", count, 1)
    # a match is a column pair and a row pair whose squared distances sum
    # to at most r^2
    xa, xb, dx2 = _axis_pairs(map_a, map_b, 0)
    ya, yb, dy2 = _axis_pairs(map_a, map_b, 1)
    iy, ix = np.nonzero(dx2[None, :] + dy2[:, None] <= MATCH_RADIUS_PX**2)
    if iy.size == 0:
        raise EmptyOverlap("no source coordinates coincide within 0.5 px")
    if iy.size > count:
        pick = rng.choice(iy.size, size=count, replace=False)
        ix, iy = ix[pick], iy[pick]
    return np.stack([xa[ix], ya[iy]], axis=1), np.stack([xb[ix], yb[iy]], axis=1)


# ── 3D augmentation ──────────────────────────────────────────────────────

def augment_cloud(cloud: PointCloud, rng: np.random.Generator):
    """Rotate cloud about z, drop points, jitter the survivors' colours
    (ROTATION_RANGE, KEEP_PROB, CLOUD_JITTER); returns (cloud, index_map).
    Draws the angle, the dropout mask and the jitter factors, in that
    order, from the generator it is given only.

    index_map sends each original point to its output row, -1 if dropped;
    no point is reordered. Stage 2 matches a scan to pixels before this
    runs, so a slot's matches are the z-buffer winners that survive dropout.
    """
    if len(cloud) == 0:
        raise InvalidInput("cloud must be nonempty")
    theta = rng.uniform(*ROTATION_RANGE)
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pos = cloud.positions @ r.T
    keep = rng.random(len(cloud)) < KEEP_PROB
    if not keep.any():
        raise EmptyCloud(f"dropout at keep probability {KEEP_PROB} removed every point")
    index_map = np.full(len(cloud), -1, dtype=np.int64)
    index_map[keep] = np.arange(int(keep.sum()))
    col = _apply_jitter(cloud.colors[keep], CLOUD_JITTER, rng)
    lab = None if cloud.labels is None else cloud.labels[keep]
    return PointCloud(pos[keep], col, lab), index_map
