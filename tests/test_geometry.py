"""Projection, correspondence, and voxelization tests.

The DERIVED expectations come from independent oracles written with plain
loops and scalar math; the library's vectorized paths must agree exactly.
"""

import math

import numpy as np
import pytest

from pixpoint.errors import DegenerateDepth
from pixpoint.geometry import (
    CameraIntrinsics,
    OutOfView,
    PointCloud,
    Pose,
    build_correspondences,
    project_point,
    unproject,
    voxelize,
)


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


# ── project / unproject ─────────────────────────────────────────────────

class TestProjection:
    def test_on_optical_axis(self):
        intr = simple_camera()
        u, v, d = project_point((0.0, 0.0, 2.0), Pose.identity(), intr)
        assert (u, v, d) == (50.0, 50.0, 2.0)

    def test_similar_triangles(self):
        intr = simple_camera()
        u, v, d = project_point((0.2, -0.1, 1.0), Pose.identity(), intr)
        assert np.allclose((u, v, d), (70.0, 40.0, 1.0), atol=1e-12)

    def test_behind_camera(self):
        intr = simple_camera()
        assert project_point((0, 0, -1.0), Pose.identity(), intr) is OutOfView.BEHIND_CAMERA

    def test_outside_frame(self):
        intr = simple_camera()
        assert project_point((10.0, 0, 1.0), Pose.identity(), intr) is OutOfView.OUTSIDE_FRAME

    def test_unproject_examples(self):
        intr = simple_camera()
        assert np.allclose(unproject(50, 50, 2.0, Pose.identity(), intr), (0, 0, 2))
        assert np.allclose(unproject(70, 40, 1.0, Pose.identity(), intr), (0.2, -0.1, 1.0))

    def test_unproject_rejects_nonpositive_depth(self):
        intr = simple_camera()
        with pytest.raises(DegenerateDepth):
            unproject(50, 50, 0.0, Pose.identity(), intr)

    def test_round_trip_10k_random_points(self):
        # criterion: unproject(project(p)) = p within 1e-9 over 10,000 samples
        rng = np.random.default_rng(7)
        intr = simple_camera()
        pose = random_pose(rng)
        done = 0
        worst = 0.0
        while done < 10_000:
            p = rng.uniform(-3, 3, size=3)
            hit = project_point(p, pose, intr)
            if isinstance(hit, OutOfView):
                continue
            u, v, d = hit
            back = unproject(u, v, d, pose, intr)
            worst = max(worst, float(np.linalg.norm(back - p)))
            done += 1
        assert worst < 1e-9


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
        pose2 = pose.compose_with_world_transform(rig.rotation, rig.translation)
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
        out, index_map = voxelize(cloud, 0.05)
        assert len(out) == 1
        assert np.allclose(out.positions[0], (0.025, 0.015, 0.02))
        assert np.allclose(out.colors[0], 0.3)
        assert np.array_equal(index_map, [0, 0])

    def test_floor_convention_splits_at_boundary(self):
        cloud = PointCloud(np.array([[0.04, 0, 0], [0.06, 0, 0]]), np.zeros((2, 3)))
        out, _ = voxelize(cloud, 0.05)
        assert len(out) == 2

    def test_count_matches_hash_oracle(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(1000, 3))
        cloud = PointCloud(pts, np.full((1000, 3), 0.5))
        out, index_map = voxelize(cloud, 0.05)
        assert len(out) == oracle_voxel_count(pts, 0.05)
        assert index_map.shape == (1000,)
        assert index_map.min() >= 0 and index_map.max() == len(out) - 1

    def test_majority_label_tie_takes_lowest_class(self):
        pts = np.array([[0.01, 0, 0], [0.02, 0, 0], [0.03, 0, 0], [0.04, 0, 0]])
        labels = np.array([3, 1, 3, 1])
        cloud = PointCloud(pts, np.zeros((4, 3)), labels)
        out, _ = voxelize(cloud, 0.05)
        assert out.labels[0] == 1

    def test_majority_label_plain(self):
        pts = np.zeros((3, 3)) + [[0.01, 0, 0], [0.02, 0, 0], [0.03, 0, 0]]
        cloud = PointCloud(pts, np.zeros((3, 3)), np.array([2, 2, 0]))
        out, _ = voxelize(cloud, 0.05)
        assert out.labels[0] == 2

    @pytest.mark.parametrize("seed, n_classes", [(0, 2), (1, 3), (2, 7)])
    def test_majority_labels_match_reference_loop(self, seed, n_classes):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(4096, 3))
        labels = rng.integers(0, n_classes, size=4096)
        out, index_map = voxelize(PointCloud(pts, np.full((4096, 3), 0.5), labels), 0.2)
        expected = loop_majority_labels(labels, index_map, len(out))
        assert out.labels.dtype == expected.dtype
        assert np.array_equal(out.labels, expected)

    def test_idempotence_count_non_increasing(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 1, size=(2000, 3))
        cloud = PointCloud(pts, np.full((2000, 3), 0.5))
        once, _ = voxelize(cloud, 0.07)
        twice, _ = voxelize(once, 0.07)
        assert len(twice) <= len(once)

    def test_index_map_consistent_with_membership(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1, 1, size=(300, 3))
        cloud = PointCloud(pts, np.full((300, 3), 0.5))
        out, index_map = voxelize(cloud, 0.1)
        keys = np.floor(pts / 0.1).astype(int)
        out_keys = np.floor(out.positions / 0.1).astype(int)
        # every original point's voxel key matches its representative's key
        assert np.array_equal(out_keys[index_map], keys)
