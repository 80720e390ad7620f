"""Projection, correspondence, and voxelization tests.

The DERIVED expectations come from independent oracles written with plain
loops and scalar math; the library's vectorized paths must agree exactly.
"""

import math

import numpy as np
import pytest

from pixpoint.errors import InvalidInput, PixpointError
from pixpoint.geometry import (
    CameraIntrinsics,
    CorrespondenceSet,
    Image,
    PointCloud,
    Pose,
    build_correspondences,
    project_points,
    voxelize,
)
from pixpoint.pipeline import ScenePair


def simple_camera(w=100, h=100, f=100.0):
    return CameraIntrinsics(fx=f, fy=f, cx=w / 2.0, cy=h / 2.0, width=w, height=h)


def random_pose(rng):
    # rotation from QR of a random matrix, sign-fixed to det +1
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Pose(q, rng.normal(scale=0.5, size=3))


# ── Oracles ──────────────────────────────────────────────────────────────

def oracle_project(p, pose, intr):
    """Scalar reimplementation of the projection contract."""
    q = [
        sum(pose.rotation[i, j] * p[j] for j in range(3)) + pose.translation[i]
        for i in range(3)
    ]
    if q[2] <= 1e-9:
        return None
    u = intr.cx + intr.fx * q[0] / q[2]
    v = intr.cy + intr.fy * q[1] / q[2]
    if not (0 <= u < intr.width and 0 <= v < intr.height):
        return None
    return u, v, q[2]


def oracle_correspondences(cloud, pose, intr):
    """Exhaustive z-buffer: every (point, pixel) pair, min depth, lowest index."""
    best = {}
    for i in range(len(cloud)):
        hit = oracle_project(cloud.positions[i], pose, intr)
        if hit is None:
            continue
        u, v, d = hit
        iu = math.floor(u + 0.5)
        iv = math.floor(v + 0.5)
        if not (0 <= iu < intr.width and 0 <= iv < intr.height):
            continue
        key = (iv, iu)
        if key not in best or (d, i) < best[key][:2]:
            best[key] = (d, i, u, v)
    return {key: (i, u, v, d) for key, (d, i, u, v) in best.items()}


def oracle_voxel_count(positions, size):
    return len({tuple(math.floor(c / size) for c in p) for p in positions})


def loop_majority_labels(labels, inverse, m):
    """voxelize's former per-pair vote loop: pairs in (voxel, label) order,
    a strictly greater count displaces the current winner."""
    pair_order = np.lexsort((labels, inverse))
    vox_s = inverse[pair_order]
    lab_s = labels[pair_order]
    new_pair = np.ones(vox_s.shape[0], dtype=bool)
    new_pair[1:] = (vox_s[1:] != vox_s[:-1]) | (lab_s[1:] != lab_s[:-1])
    starts = np.flatnonzero(new_pair)
    pair_cnt = np.diff(np.append(starts, vox_s.shape[0]))
    out = np.zeros(m, dtype=np.int64)
    best = np.full(m, -1, dtype=np.int64)
    for pv, pl, pc in zip(vox_s[starts], lab_s[starts], pair_cnt):
        if pc > best[pv]:
            best[pv] = pc
            out[pv] = pl
    return out


# ── projection ───────────────────────────────────────────────────────────

def project_one(p):
    """(u, v, depth, valid) of one point under the identity pose and simple_camera()."""
    u, v, d, valid = project_points(np.array([p], float), Pose.identity(), simple_camera())
    return float(u[0]), float(v[0]), float(d[0]), bool(valid[0])


def unproject_inline(u, v, d, pose, intr):
    """Inverse of the projection contract for positive depth."""
    q = np.stack([(u - intr.cx) / intr.fx * d, (v - intr.cy) / intr.fy * d, d], axis=-1)
    return (q - pose.translation) @ pose.rotation


class TestProjection:
    def test_on_optical_axis(self):
        assert project_one((0.0, 0.0, 2.0)) == (50.0, 50.0, 2.0, True)

    def test_similar_triangles(self):
        u, v, d, valid = project_one((0.2, -0.1, 1.0))
        assert valid
        assert np.allclose((u, v, d), (70.0, 40.0, 1.0), atol=1e-12)

    def test_behind_camera(self):
        for p in ((0.0, 0.0, -1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1e-10)):
            _, _, d, valid = project_one(p)
            assert d <= 1e-9 and not valid

    def test_outside_frame(self):
        u, _, d, valid = project_one((10.0, 0.0, 1.0))
        assert d == 1.0 and u >= 100 and not valid

    def test_frame_is_half_open(self):
        # u = x / z * 100 + 50 and v alike: 0 is inside, width and height are not
        assert project_one((-0.5, -0.5, 1.0)) == (0.0, 0.0, 1.0, True)
        assert project_one((0.5, 0.0, 1.0)) == (100.0, 50.0, 1.0, False)
        assert project_one((0.0, 0.5, 1.0)) == (50.0, 100.0, 1.0, False)
        assert project_one((0.49, 0.49, 1.0))[3]

    def test_unproject_examples(self):
        # the two hand-worked examples, inverted and projected back
        intr = simple_camera()
        uvd = np.array([(50.0, 50.0, 2.0), (70.0, 40.0, 1.0)])
        examples = unproject_inline(*uvd.T, Pose.identity(), intr)
        assert np.allclose(examples, [(0, 0, 2), (0.2, -0.1, 1.0)])
        u, v, d, valid = project_points(examples, Pose.identity(), intr)
        assert valid.all()
        assert np.allclose(np.stack([u, v, d], axis=-1), uvd, atol=1e-12)

    def test_round_trip_10k_random_points(self):
        # inverse(project(p)) = p within 1e-9 over 10,000 in-view samples
        # under a random pose
        intr = simple_camera()
        rng = np.random.default_rng(7)
        pose = random_pose(rng)
        p = rng.uniform(-3, 3, size=(250_000, 3))  # about 5% land in view
        u, v, d, valid = project_points(p, pose, intr)
        assert valid.sum() >= 10_000
        keep = np.flatnonzero(valid)[:10_000]
        back = unproject_inline(u[keep], v[keep], d[keep], pose, intr)
        assert np.linalg.norm(back - p[keep], axis=1).max() < 1e-9


class TestPoseValidation:
    def test_rejects_non_orthonormal(self):
        nan_row = np.eye(3)
        nan_row[0, 0] = np.nan
        for r in (np.eye(3) * 1.001, np.eye(3) + 2e-9, nan_row):
            with pytest.raises(ValueError):
                Pose(r, np.zeros(3))
        Pose(np.eye(3) * (1 + 2e-10), np.zeros(3))  # within 1e-9

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(r, np.zeros(3))

    def test_rejects_non_finite_translation(self):
        for t in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)):
            with pytest.raises(ValueError):
                Pose(np.eye(3), np.array(t))


class TestUnitRangeValidation:
    # NaN compares False both ways, so the range check must reject it too
    def test_image_rejects_nan_and_out_of_range_pixels(self):
        for bad in (np.nan, -0.01, 1.01):
            px = np.full((2, 3, 3), 0.5)
            px[1, 2, 0] = bad
            with pytest.raises(ValueError):
                Image(px)
        Image(np.stack([np.zeros((2, 3)), np.ones((2, 3)), np.full((2, 3), 0.5)], axis=-1))

    def test_point_cloud_rejects_nan_and_out_of_range_colors(self):
        pos = np.zeros((4, 3))
        for bad in (np.nan, -0.01, 1.01):
            col = np.full((4, 3), 0.5)
            col[3, 1] = bad
            with pytest.raises(ValueError):
                PointCloud(pos, col)
        PointCloud(pos, np.tile([0.0, 1.0, 0.5], (4, 1)))

    @pytest.mark.parametrize("field", ["u", "v", "depth"])
    def test_correspondence_set_rejects_non_finite_values(self, field):
        for bad in (np.nan, np.inf, -np.inf):
            arrays = {"u": np.array([0.0, 1.0]), "v": np.array([0.0, 1.0]), "depth": np.ones(2)}
            arrays[field][1] = bad
            with pytest.raises(InvalidInput):
                CorrespondenceSet(np.array([0, 1]), **arrays)
        CorrespondenceSet(np.array([0, 1]), np.zeros(2), np.zeros(2), np.ones(2))


def valid_pair_parts():
    cloud = PointCloud(np.zeros((1, 3)), np.zeros((1, 3)))
    return cloud, Image(np.zeros((4, 4, 3))), Pose.identity(), simple_camera(w=4, h=4, f=4.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Image(np.full((2, 2, 3), 1.5)),
        lambda: PointCloud(np.zeros((2, 3)), np.zeros((3, 3))),
        lambda: Pose(2.0 * np.eye(3), np.zeros(3)),
        lambda: CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4),
        lambda: CorrespondenceSet(np.arange(1), np.array([np.nan]), np.ones(1), np.ones(1)),
        lambda: ScenePair(*valid_pair_parts()[:3], simple_camera(w=8, h=8, f=8.0)),
    ],
    ids=["Image", "PointCloud", "Pose", "CameraIntrinsics", "CorrespondenceSet", "ScenePair"],
)
def test_data_classes_raise_a_pixpoint_error(make):
    with pytest.raises(PixpointError):
        make()
    ScenePair(*valid_pair_parts())


# ── correspondences ──────────────────────────────────────────────────────

class TestCorrespondences:
    def test_zbuffer_keeps_nearest_on_shared_ray(self):
        intr = simple_camera()
        cloud = PointCloud(np.array([[0.0, 0, 2.0], [0.0, 0, 1.0]]), np.zeros((2, 3)))
        cs = build_correspondences(cloud, Pose.identity(), intr)
        assert len(cs) == 1
        assert cs.point_index[0] == 1
        assert cs.depth[0] == 1.0

    def test_point_outside_frustum_gives_empty_set(self):
        intr = simple_camera()
        cloud = PointCloud(np.array([[0.0, 0, -5.0]]), np.zeros((1, 3)))
        cs = build_correspondences(cloud, Pose.identity(), intr)
        assert len(cs) == 0

    def test_empty_cloud_raises(self):
        empty = PointCloud(np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(InvalidInput, match="^cloud must be nonempty$"):
            build_correspondences(empty, Pose.identity(), simple_camera())

    def test_depth_tie_breaks_to_lowest_index(self):
        intr = simple_camera()
        p = np.array([[0.01, 0.0, 1.0], [0.01, 0.0, 1.0], [0.01, 0.0, 1.0]])
        cs = build_correspondences(PointCloud(p, np.zeros((3, 3))), Pose.identity(), intr)
        assert len(cs) == 1
        assert cs.point_index[0] == 0

    def test_matches_exhaustive_oracle_on_random_scenes(self):
        rng = np.random.default_rng(11)
        intr = simple_camera(w=40, h=30, f=35.0)
        for _ in range(25):
            pose = random_pose(rng)
            pts = rng.uniform(-2, 2, size=(500, 3))
            cloud = PointCloud(pts, np.full((500, 3), 0.5))
            cs = build_correspondences(cloud, pose, intr)
            expect = oracle_correspondences(cloud, pose, intr)
            got = {
                (int(r), int(c)): (int(i), float(u), float(v), float(d))
                for r, c, i, u, v, d in zip(
                    cs.pixel_rows(), cs.pixel_columns(), cs.point_index, cs.u, cs.v, cs.depth
                )
            }
            assert got.keys() == expect.keys()
            for key in expect:
                assert got[key][0] == expect[key][0]
                assert np.allclose(got[key][1:], expect[key][1:], atol=1e-12)

    def test_each_point_wins_at_most_one_pixel(self):
        # stage 2 scatters point gradients by plain assignment on this
        rng = np.random.default_rng(13)
        intr = simple_camera(w=24, h=20, f=20.0)
        for _ in range(20):
            pts = rng.uniform(-1.5, 1.5, size=(600, 3))
            pts[300:] = pts[:300]  # exact copies share a pixel and a depth
            cs = build_correspondences(PointCloud(pts, np.full((600, 3), 0.5)), random_pose(rng), intr)
            assert len(cs) > 0
            assert np.unique(cs.point_index).size == len(cs)

    def test_zbuffer_dominance_property(self):
        rng = np.random.default_rng(3)
        intr = simple_camera(w=32, h=32, f=24.0)
        pts = rng.uniform(-1.5, 1.5, size=(800, 3))
        cloud = PointCloud(pts, np.full((800, 3), 0.5))
        pose = random_pose(rng)
        cs = build_correspondences(cloud, pose, intr)
        assert len(cs) > 0
        winner = {(int(r), int(c)): float(d) for r, c, d in zip(cs.pixel_rows(), cs.pixel_columns(), cs.depth)}
        for i in range(len(cloud)):
            hit = oracle_project(cloud.positions[i], pose, intr)
            if hit is None:
                continue
            u, v, d = hit
            key = (math.floor(v + 0.5), math.floor(u + 0.5))
            if key in winner:
                assert d >= winner[key] - 1e-12

    def test_rigid_invariance(self):
        rng = np.random.default_rng(21)
        intr = simple_camera(w=48, h=48, f=40.0)
        pts = rng.uniform(-2, 2, size=(400, 3))
        cloud = PointCloud(pts, np.full((400, 3), 0.5))
        pose = random_pose(rng)
        base = build_correspondences(cloud, pose, intr)

        rig = random_pose(rng)  # reuse as an arbitrary rigid transform
        moved = PointCloud(pts @ rig.rotation.T + rig.translation, cloud.colors)
        # the camera that sees each moved point where pose saw the original
        r2 = pose.rotation @ rig.rotation.T
        pose2 = Pose(r2, pose.translation - r2 @ rig.translation)
        other = build_correspondences(moved, pose2, intr)

        assert np.array_equal(base.point_index, other.point_index)
        assert np.allclose(base.u, other.u, atol=1e-9)
        assert np.allclose(base.v, other.v, atol=1e-9)
        assert np.allclose(base.depth, other.depth, atol=1e-9)


# ── voxelize ─────────────────────────────────────────────────────────────

class TestVoxelize:
    def test_same_voxel_centroid(self):
        cloud = PointCloud(
            np.array([[0.01, 0.01, 0.01], [0.04, 0.02, 0.03]]),
            np.array([[0.2, 0.2, 0.2], [0.4, 0.4, 0.4]]),
        )
        res = voxelize(cloud, 0.05)
        out, index_map = res.cloud, res.index_map
        assert len(out) == 1
        assert np.allclose(out.positions[0], (0.025, 0.015, 0.02))
        assert np.allclose(out.colors[0], 0.3)
        assert np.array_equal(index_map, [0, 0])

    @pytest.mark.parametrize("size", [0.0, -0.05, float("nan")])
    def test_bad_voxel_size_raises(self, size):
        cloud = PointCloud(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(InvalidInput, match="^voxel_size must be positive"):
            voxelize(cloud, size)

    def test_floor_convention_splits_at_boundary(self):
        cloud = PointCloud(np.array([[0.04, 0, 0], [0.06, 0, 0]]), np.zeros((2, 3)))
        out = voxelize(cloud, 0.05).cloud
        assert len(out) == 2

    def test_count_matches_hash_oracle(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(1000, 3))
        cloud = PointCloud(pts, np.full((1000, 3), 0.5))
        res = voxelize(cloud, 0.05)
        out, index_map = res.cloud, res.index_map
        assert len(out) == oracle_voxel_count(pts, 0.05)
        assert index_map.shape == (1000,)
        assert index_map.min() >= 0 and index_map.max() == len(out) - 1

    @pytest.mark.parametrize("spread", [1.0, 1e12], ids=["unit", "wide"])
    def test_voxels_numbered_as_unique_rows_number_them(self, spread):
        # negative coordinates, and a span whose cell product overflows int64
        rng = np.random.default_rng(21)
        pts = rng.uniform(-1, 1, size=(3000, 3))
        pts[rng.choice(3000, size=40, replace=False)] *= spread
        pts[:200] = pts[200:400]  # shared voxels
        res = voxelize(PointCloud(pts, np.full((3000, 3), 0.5)), 0.05)
        keys = np.floor(pts / 0.05).astype(np.int64)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        assert np.array_equal(res.index_map, inverse.ravel())
        assert len(res.cloud) == uniq.shape[0]

    def test_majority_label_tie_takes_lowest_class(self):
        pts = np.array([[0.01, 0, 0], [0.02, 0, 0], [0.03, 0, 0], [0.04, 0, 0]])
        labels = np.array([3, 1, 3, 1])
        cloud = PointCloud(pts, np.zeros((4, 3)), labels)
        out = voxelize(cloud, 0.05).cloud
        assert out.labels[0] == 1

    def test_majority_label_plain(self):
        pts = np.zeros((3, 3)) + [[0.01, 0, 0], [0.02, 0, 0], [0.03, 0, 0]]
        cloud = PointCloud(pts, np.zeros((3, 3)), np.array([2, 2, 0]))
        out = voxelize(cloud, 0.05).cloud
        assert out.labels[0] == 2

    @pytest.mark.parametrize("seed, n_classes", [(0, 2), (1, 3), (2, 7)])
    def test_majority_labels_match_reference_loop(self, seed, n_classes):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(4096, 3))
        labels = rng.integers(0, n_classes, size=4096)
        res = voxelize(PointCloud(pts, np.full((4096, 3), 0.5), labels), 0.2)
        out, index_map = res.cloud, res.index_map
        expected = loop_majority_labels(labels, index_map, len(out))
        assert out.labels.dtype == expected.dtype
        assert np.array_equal(out.labels, expected)

    def test_idempotence_count_non_increasing(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 1, size=(2000, 3))
        cloud = PointCloud(pts, np.full((2000, 3), 0.5))
        once = voxelize(cloud, 0.07).cloud
        twice = voxelize(once, 0.07).cloud
        assert len(twice) <= len(once)

    def test_index_map_consistent_with_membership(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1, 1, size=(300, 3))
        cloud = PointCloud(pts, np.full((300, 3), 0.5))
        res = voxelize(cloud, 0.1)
        out, index_map = res.cloud, res.index_map
        keys = np.floor(pts / 0.1).astype(int)
        out_keys = np.floor(out.positions / 0.1).astype(int)
        # every original point's voxel key matches its representative's key
        assert np.array_equal(out_keys[index_map], keys)
