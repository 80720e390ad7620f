"""Deterministic synthetic RGB-D scenes with exact ground truth.

A scene is a room (floor, ceiling, four walls) containing axis-aligned
boxes. Points are sampled on the surfaces uniformly by area, colored by a
per-class albedo plus one jitter offset per object, and rendered into each
camera by splatting through the projection z-buffer. The rendered image
therefore IS the z-buffer projection of the cloud: image and cloud are
occlusion-consistent by construction, and the z-buffer result is recorded
as the ground-truth correspondence set.

Background pixels (no point) take a fixed mid-gray and never appear in
the ground truth. Class ids: 0 floor, 1 wall, 2 ceiling, 3+ box classes.
The room, the palette, the color jitter and the cameras' field of view
and tilt are module constants; SceneConfig sets the counts, the image
size and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, PlacementFailure, check_count
from .geometry import (
    CameraIntrinsics,
    CorrespondenceSet,
    Image,
    PointCloud,
    Pose,
    build_correspondences,
)
from .rngutil import rng_for

BACKGROUND_COLOR = (0.5, 0.5, 0.5)
ROOM_EXTENT = (4.0, 4.0, 2.5)  # metres along x, y, z

# deliberately overlapping albedos (wall vs ceiling, the two red box
# classes): color alone does not separate the label set
PALETTE = (
    (0.45, 0.33, 0.24),  # 0 floor
    (0.75, 0.75, 0.70),  # 1 wall
    (0.72, 0.72, 0.72),  # 2 ceiling
    (0.20, 0.35, 0.60),  # 3 box, blue
    (0.55, 0.25, 0.20),  # 4 box, red
    (0.58, 0.28, 0.22),  # 5 box, red-brown
)

COLOR_JITTER = 0.08  # half-width of each object's uniform color offset
HFOV_DEG = 70.0  # cameras' horizontal field of view
ORIENT_JITTER_DEG = 8.0  # largest tilt of a camera off its look-at pose

FLOOR, WALL, CEILING = 0, 1, 2
_CAM_MARGIN = 0.3  # metres kept clear of walls when placing cameras


@dataclass(frozen=True)
class SceneConfig:
    """n_objects boxes in the room, n_points surface points, n_cameras
    views of image_size (width, height) pixels, all drawn from seed."""

    n_objects: int = 5
    n_points: int = 2048
    n_cameras: int = 2
    image_size: tuple = (64, 64)
    seed: int = 0

    def __post_init__(self):
        check_count("n_objects", self.n_objects, 0)
        check_count("n_points", self.n_points, 100)
        check_count("n_cameras", self.n_cameras, 1)
        check_count("seed", self.seed, 0)
        if len(self.image_size) != 2:
            raise InvalidInput(f"image_size must be (width, height), got {self.image_size}")
        check_count("image width", self.image_size[0], 3)
        check_count("image height", self.image_size[1], 3)


@dataclass(frozen=True)
class Rect:
    """Parallelogram patch: origin + s*e1 + t*e2, s,t in [0,1]."""

    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    class_id: int
    object_id: int


@dataclass(frozen=True)
class Box:
    lo: np.ndarray  # (3,) min corner
    hi: np.ndarray  # (3,) max corner

    def contains(self, p) -> bool:
        return bool(np.all(p > self.lo) and np.all(p < self.hi))


@dataclass(frozen=True)
class CameraView:
    pose: Pose
    intrinsics: CameraIntrinsics
    image: Image
    correspondences: CorrespondenceSet


@dataclass(frozen=True)
class SyntheticScene:
    cloud: PointCloud
    cameras: list = field(default_factory=list)
    seed: int = 0


def _room_rects(lx, ly, lz):
    def rect(origin, e1, e2, cls, obj):
        return Rect(np.array(origin, float), np.array(e1, float), np.array(e2, float), cls, obj)

    return [
        rect((0, 0, 0), (lx, 0, 0), (0, ly, 0), FLOOR, 0),
        rect((0, 0, lz), (lx, 0, 0), (0, ly, 0), CEILING, 1),
        rect((0, 0, 0), (lx, 0, 0), (0, 0, lz), WALL, 2),
        rect((0, ly, 0), (lx, 0, 0), (0, 0, lz), WALL, 3),
        rect((0, 0, 0), (0, ly, 0), (0, 0, lz), WALL, 4),
        rect((lx, 0, 0), (0, ly, 0), (0, 0, lz), WALL, 5),
    ]


def _box_rects(box: Box, cls, obj):
    lo, hi = box.lo, box.hi
    sx, sy, sz = hi - lo

    def rect(origin, e1, e2):
        return Rect(np.array(origin, float), np.array(e1, float), np.array(e2, float), cls, obj)

    return [
        rect((lo[0], lo[1], hi[2]), (sx, 0, 0), (0, sy, 0)),  # top
        rect((lo[0], lo[1], lo[2]), (sx, 0, 0), (0, 0, sz)),  # y- side
        rect((lo[0], hi[1], lo[2]), (sx, 0, 0), (0, 0, sz)),  # y+ side
        rect((lo[0], lo[1], lo[2]), (0, sy, 0), (0, 0, sz)),  # x- side
        rect((hi[0], lo[1], lo[2]), (0, sy, 0), (0, 0, sz)),  # x+ side
    ]


def _look_at(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-from-world rotation: z forward toward target, y down, x right."""
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-9:
        raise InvalidInput("camera eye coincides with its target")
    f = forward / norm
    up = np.array([0.0, 0.0, 1.0])
    if abs(f @ up) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    r = np.cross(f, up)
    r /= np.linalg.norm(r)
    d = np.cross(f, r)
    return np.vstack([r, d, f])


def _axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def place_camera(rng, boxes) -> Pose:
    """Sample a camera pose in free space looking at the room centre.

    Retries up to 100 positions that land inside an object; raises
    PlacementFailure when the budget is exhausted.
    """
    lx, ly, lz = ROOM_EXTENT
    target = np.array([lx / 2.0, ly / 2.0, lz * 0.45])
    for _ in range(100):
        eye = np.array(
            [
                rng.uniform(_CAM_MARGIN, lx - _CAM_MARGIN),
                rng.uniform(_CAM_MARGIN, ly - _CAM_MARGIN),
                rng.uniform(0.6 * lz, lz - 0.1 * lz),
            ]
        )
        if np.linalg.norm(eye - target) < 0.25 * min(lx, ly):
            continue
        if any(b.contains(eye) for b in boxes):
            continue
        axis = rng.normal(size=3)
        if np.linalg.norm(axis) < 1e-12:
            axis = np.array([0.0, 0.0, 1.0])
        jitter = math.radians(ORIENT_JITTER_DEG)
        rot = _axis_angle(axis, rng.uniform(-jitter, jitter)) @ _look_at(eye, target)
        return Pose(rot, -rot @ eye)
    raise PlacementFailure("no free camera position found in 100 attempts")


def render_view(cloud: PointCloud, pose: Pose, intr: CameraIntrinsics) -> CameraView:
    """Splat the cloud through the z-buffer; pixels without a point stay gray."""
    corrs = build_correspondences(cloud, pose, intr)
    pixels = np.full((intr.height, intr.width, 3), BACKGROUND_COLOR, dtype=np.float64)
    pixels[corrs.pixel_row, corrs.pixel_column] = cloud.colors[corrs.point_index]
    return CameraView(pose, intr, Image(pixels), corrs)


def generate_scene(cfg: SceneConfig) -> SyntheticScene:
    rng = rng_for(cfg.seed, "scene")
    lx, ly, lz = ROOM_EXTENT

    rects = _room_rects(lx, ly, lz)
    boxes = []
    n_box_classes = len(PALETTE) - 3
    next_obj = 6
    for i in range(cfg.n_objects):
        size = np.array(
            [
                rng.uniform(0.1, 0.22) * lx,
                rng.uniform(0.1, 0.22) * ly,
                rng.uniform(0.25, 0.55) * lz,
            ]
        )
        lo = np.array(
            [
                rng.uniform(0.05 * lx, lx - size[0] - 0.05 * lx),
                rng.uniform(0.05 * ly, ly - size[1] - 0.05 * ly),
                0.0,
            ]
        )
        cls = 3 + int(rng.integers(0, n_box_classes))
        box = Box(lo, lo + size)
        boxes.append(box)
        rects.extend(_box_rects(box, cls, next_obj))
        next_obj += 1

    jitter = rng.uniform(-COLOR_JITTER, COLOR_JITTER, size=(next_obj, 3))

    origin, e1, e2, labels, obj = (
        np.array([getattr(r, name) for r in rects])
        for name in ("origin", "e1", "e2", "class_id", "object_id")
    )
    areas = np.linalg.norm(np.cross(e1, e2), axis=1)
    choice = rng.choice(len(rects), size=cfg.n_points, p=areas / areas.sum())
    st = rng.uniform(0.0, 1.0, size=(cfg.n_points, 2))
    origin, e1, e2, labels, obj = (a[choice] for a in (origin, e1, e2, labels, obj))
    positions = origin + st[:, :1] * e1 + st[:, 1:] * e2
    colors = np.clip(np.asarray(PALETTE, dtype=np.float64)[labels] + jitter[obj], 0.0, 1.0)
    cloud = PointCloud(positions, colors, labels)

    w, h = cfg.image_size
    f = (w / 2.0) / math.tan(math.radians(HFOV_DEG) / 2.0)
    intr = CameraIntrinsics(fx=f, fy=f, cx=w / 2.0, cy=h / 2.0, width=w, height=h)
    cameras = []
    for _ in range(cfg.n_cameras):
        pose = place_camera(rng, boxes)
        cameras.append(render_view(cloud, pose, intr))
    return SyntheticScene(cloud=cloud, cameras=cameras, seed=cfg.seed)
