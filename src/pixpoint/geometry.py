"""Pinhole camera math, point-pixel correspondences, voxel downsampling.

Coordinate conventions (OpenCV-style):
    - Camera frame: x right, y down, z forward; the camera looks along +z.
    - Pose is camera-from-world: q = R @ p + t.
    - Projection: u = cx + fx * qx / qz, v = cy + fy * qy / qz, with
      (u, v) continuous pixel coordinates and depth = qz in metres.
    - A point is in view iff qz > 1e-9 and 0 <= u < width, 0 <= v < height.
    - Pixel bucketing rounds half-up: pixel column = floor(u + 0.5).
      Continuous coordinates in [width - 0.5, width) round to a column
      outside the image and are dropped from correspondence sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, check_count

BEHIND_EPS = 1e-9  # camera-frame depth below this counts as behind the camera


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidInput(f"focal lengths must be positive, got fx={self.fx} fy={self.fy}")
        check_count("width", self.width, 1)
        check_count("height", self.height, 1)
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidInput(f"principal point ({self.cx},{self.cy}) outside image")


@dataclass(frozen=True)
class Pose:
    """Camera-from-world rigid transform: q = rotation @ p + translation."""

    rotation: np.ndarray  # 3x3
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = _readonly(self.rotation)
        t = _readonly(self.translation)
        if r.shape != (3, 3) or t.shape != (3,):
            raise InvalidInput(f"bad pose shapes {r.shape}, {t.shape}")
        if not np.abs(r.T @ r - np.eye(3)).max() <= 1e-9:  # NaN fails too
            raise InvalidInput("rotation is not orthonormal within 1e-9")
        if not np.all(np.isfinite(t)):
            raise InvalidInput("translation contains non-finite values")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise InvalidInput("rotation determinant is not 1 within 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class PointCloud:
    """xyz positions (metres, world frame), rgb colors in [0,1], optional labels."""

    positions: np.ndarray  # (N, 3) float64
    colors: np.ndarray  # (N, 3) float64 in [0, 1]
    labels: np.ndarray | None = None  # (N,) int64 class ids

    def __post_init__(self):
        p = _readonly(self.positions)
        c = _readonly(self.colors)
        if p.ndim != 2 or p.shape[1] != 3:
            raise InvalidInput(f"positions must be (N,3), got {p.shape}")
        if c.shape != p.shape:
            raise InvalidInput(f"colors shape {c.shape} != positions shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise InvalidInput("positions contain non-finite values")
        if c.size and not (c.min() >= 0.0 and c.max() <= 1.0):  # NaN fails too
            raise InvalidInput("colors outside [0,1]")
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "colors", c)
        if self.labels is not None:
            lab = _readonly(self.labels, dtype=np.int64)
            if lab.shape != (p.shape[0],):
                raise InvalidInput(f"labels shape {lab.shape} != ({p.shape[0]},)")
            object.__setattr__(self, "labels", lab)

    def __len__(self):
        return self.positions.shape[0]


@dataclass(frozen=True)
class Image:
    """Row-major H x W x 3 float image with values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = _readonly(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3:
            raise InvalidInput(f"pixels must be (H,W,3), got {px.shape}")
        if px.size and not (px.min() >= 0.0 and px.max() <= 1.0):  # NaN fails too
            raise InvalidInput("pixel values outside [0,1]")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class CorrespondenceSet:
    """Z-buffer-resolved point-to-pixel matches for one camera.

    Per entry: the winning point's index and the integer pixel (row,
    column) its projection rounds to, half-up. At most one entry per pixel.
    """

    point_index: np.ndarray  # (n,) int64
    pixel_row: np.ndarray  # (n,) int64
    pixel_column: np.ndarray  # (n,) int64

    def __post_init__(self):
        names = ("point_index", "pixel_row", "pixel_column")
        arrays = [np.asarray(getattr(self, name)) for name in names]
        if not all(np.issubdtype(a.dtype, np.integer) for a in arrays):
            raise InvalidInput("correspondence arrays must hold integers")
        if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
            raise InvalidInput("correspondence arrays must share length")
        for name, a in zip(names, arrays):
            object.__setattr__(self, name, _readonly(a, np.int64))

    def __len__(self):
        return self.point_index.shape[0]


def project_points(positions: np.ndarray, pose: Pose, intr: CameraIntrinsics):
    """Vectorized projection of an (N,3) array.

    Returns (u, v, depth, valid) where valid marks points in front of the
    camera and inside the frame; u/v/depth are meaningful only where valid.
    """
    positions = np.asarray(positions, dtype=np.float64)
    q = positions @ pose.rotation.T + pose.translation
    z = q[:, 2]
    front = z > BEHIND_EPS
    safe_z = np.where(front, z, 1.0)
    u = intr.cx + intr.fx * q[:, 0] / safe_z
    v = intr.cy + intr.fy * q[:, 1] / safe_z
    valid = front & (u >= 0.0) & (u < intr.width) & (v >= 0.0) & (v < intr.height)
    return u, v, z, valid


def build_correspondences(cloud: PointCloud, pose: Pose, intr: CameraIntrinsics) -> CorrespondenceSet:
    """Project every point and keep the z-buffer winner per integer pixel.

    Depth ties within a pixel are broken by the lowest point index.
    Points behind the camera, outside the frame, or whose half-up-rounded
    pixel falls outside the integer grid are simply absent.
    """
    if len(cloud) == 0:
        raise InvalidInput("cloud must be nonempty")
    u, v, z, valid = project_points(cloud.positions, pose, intr)
    iu = np.floor(u + 0.5).astype(np.int64)
    iv = np.floor(v + 0.5).astype(np.int64)
    valid &= (iu >= 0) & (iu < intr.width) & (iv >= 0) & (iv < intr.height)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        empty = np.empty(0, np.int64)
        return CorrespondenceSet(empty, empty, empty)
    key = iv[idx] * intr.width + iu[idx]
    # sort by (pixel, depth); the sort is stable and idx ascends, so ties
    # keep point order and the first row per pixel wins
    order = np.lexsort((z[idx], key))
    key_sorted = key[order]
    first = np.ones(key_sorted.shape[0], dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    win = idx[order][first]
    return CorrespondenceSet(win, iv[win], iu[win])


@dataclass(frozen=True)
class VoxelizeResult:
    cloud: PointCloud
    index_map: np.ndarray = field(repr=False)  # (N,) int64, original -> output index


def voxelize(cloud: PointCloud, voxel_size: float) -> VoxelizeResult:
    """Grid downsample: one point per occupied voxel.

    Voxel key is floor(coordinate / voxel_size) per axis. The output point
    is the centroid of the voxel's members with their mean color; labels
    take the majority vote (ties broken by the lowest class id), counted
    over the distinct (voxel, class) pairs present, so memory grows with
    the points, not with voxels x classes. The index map sends each
    original point to its voxel's output index.
    """
    if not voxel_size > 0:
        raise InvalidInput(f"voxel_size must be positive, got {voxel_size}")
    keys = np.floor(cloud.positions / voxel_size)
    # one int64 key per voxel from the ranks of its coordinates on each
    # axis: below N**3 however wide the cloud, and in the lexicographic
    # order of (x, y, z) keys, so voxels are numbered as np.unique(axis=0)
    # would number them
    axes, ranks = zip(*(np.unique(keys[:, a], return_inverse=True) for a in range(3)))
    flat = np.ravel_multi_index(ranks, tuple(u.size for u in axes))
    uniq, inverse = np.unique(flat, return_inverse=True)
    m = uniq.shape[0]
    counts = np.bincount(inverse, minlength=m).astype(np.float64)
    pos = np.empty((m, 3))
    col = np.empty((m, 3))
    for axis in range(3):
        pos[:, axis] = np.bincount(inverse, weights=cloud.positions[:, axis], minlength=m)
        col[:, axis] = np.bincount(inverse, weights=cloud.colors[:, axis], minlength=m)
    pos /= counts[:, None]
    col /= counts[:, None]
    np.clip(col, 0.0, 1.0, out=col)

    labels = None
    if cloud.labels is not None:
        # the votes of each distinct (voxel, class rank) pair, ordered by
        # voxel; each voxel takes its pair with the most votes, then the
        # lowest class id
        classes, cls = np.unique(cloud.labels, return_inverse=True)
        pairs, votes = np.unique(inverse * classes.size + cls, return_counts=True)
        vox, cls = np.divmod(pairs, classes.size)
        best = np.lexsort((cls, -votes, vox))[np.searchsorted(vox, np.arange(m))]
        labels = classes[cls[best]]

    out = PointCloud(pos, col, labels)
    return VoxelizeResult(out, inverse)
