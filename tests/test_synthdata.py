"""Scene generator: determinism, ground-truth exactness, sampling statistics,
and the vectorised surface sampling against its per-point loop."""

import numpy as np
import pytest

from pixpoint import synthdata
from pixpoint.errors import PlacementFailure
from pixpoint.geometry import project_points
from pixpoint.rngutil import rng_for
from pixpoint.synthdata import (
    BACKGROUND_COLOR,
    Box,
    SceneConfig,
    generate_scene,
    place_camera,
)


def small_cfg(**kw):
    base = dict(n_points=1000, n_cameras=2, image_size=(48, 48), seed=3)
    base.update(kw)
    return SceneConfig(**base)


def loop_surface_points(rects, choice, st, palette, jitter):
    """The per-point loop generate_scene used before it was vectorised."""
    n = len(choice)
    positions = np.empty((n, 3))
    colors = np.empty((n, 3))
    labels = np.empty(n, dtype=np.int64)
    for i, ri in enumerate(choice):
        r = rects[ri]
        positions[i] = r.origin + st[i, 0] * r.e1 + st[i, 1] * r.e2
        colors[i] = palette[r.class_id] + jitter[r.object_id]
        labels[i] = r.class_id
    np.clip(colors, 0.0, 1.0, out=colors)
    return positions, colors, labels


class RecordingRng:
    """Passes each call through to a Generator and records (method, result)."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, out))
            return out

        return call


class TestGenerateScene:
    def test_point_count_contract(self):
        scene = generate_scene(small_cfg(n_points=1000))
        assert len(scene.cloud) == 1000
        assert scene.cloud.labels is not None

    def test_ground_truth_reprojects_exactly(self):
        scene = generate_scene(small_cfg())
        for view in scene.cameras:
            cs = view.correspondences
            assert len(cs) > 0
            u, v, _, valid = project_points(
                scene.cloud.positions[cs.point_index], view.pose, view.intrinsics
            )
            assert valid.all()
            assert np.abs(u - cs.u).max() < 1e-6
            assert np.abs(v - cs.v).max() < 1e-6

    def test_rendered_pixels_match_point_colors(self):
        scene = generate_scene(small_cfg())
        view = scene.cameras[0]
        px = view.image.pixels
        rows, cols = view.correspondences.pixel_rows(), view.correspondences.pixel_columns()
        assert np.array_equal(px[rows, cols], scene.cloud.colors[view.correspondences.point_index])
        # background pixels carry the sentinel color
        mask = np.ones(px.shape[:2], dtype=bool)
        mask[rows, cols] = False
        assert np.all(px[mask] == BACKGROUND_COLOR)

    def test_determinism(self):
        a = generate_scene(small_cfg(seed=9))
        b = generate_scene(small_cfg(seed=9))
        assert np.array_equal(a.cloud.positions, b.cloud.positions)
        assert np.array_equal(a.cloud.colors, b.cloud.colors)
        for va, vb in zip(a.cameras, b.cameras):
            assert np.array_equal(va.pose.rotation, vb.pose.rotation)
            assert np.array_equal(va.image.pixels, vb.image.pixels)
        c = generate_scene(small_cfg(seed=10))
        assert not np.array_equal(a.cloud.positions, c.cloud.positions)

    @pytest.mark.parametrize("seed, n_points", [(0, 400), (1, 2048), (2, 4096)])
    def test_points_match_the_per_point_loop(self, monkeypatch, seed, n_points):
        rects, rngs = [], []
        real_rect, real_rng_for = synthdata.Rect, synthdata.rng_for

        def recording_rect(*args):
            rects.append(real_rect(*args))
            return rects[-1]

        def recording_rng_for(*args):
            rngs.append(RecordingRng(real_rng_for(*args)))
            return rngs[-1]

        monkeypatch.setattr(synthdata, "Rect", recording_rect)
        monkeypatch.setattr(synthdata, "rng_for", recording_rng_for)
        cfg = small_cfg(n_points=n_points, seed=seed)
        scene = generate_scene(cfg)
        # the surface draws: object jitter, rect per point, then (s, t) per point
        (calls,) = [rng.calls for rng in rngs]
        at = [name for name, _ in calls].index("choice")
        jitter, choice, st = (out for _, out in calls[at - 1 : at + 2])
        expected = loop_surface_points(rects, choice, st, np.asarray(cfg.palette), jitter)
        cloud = scene.cloud
        for got, want in zip((cloud.positions, cloud.colors, cloud.labels), expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_label_coverage(self):
        for seed in range(5):
            scene = generate_scene(small_cfg(seed=seed, n_objects=3))
            assert np.unique(scene.cloud.labels).size >= 3

    def test_area_uniform_sampling_within_5_sigma(self):
        # aggregate counts per surface class over 10 seeds against the
        # multinomial expectation from exact areas
        lx, ly, lz = 4.0, 4.0, 2.5
        cfg0 = small_cfg(n_objects=0, n_points=2000, n_cameras=1)
        total = np.zeros(3)
        for seed in range(10):
            scene = generate_scene(small_cfg(n_objects=0, n_points=2000, n_cameras=1, seed=seed))
            for cls in range(3):
                total[cls] += int((scene.cloud.labels == cls).sum())
        areas = np.array([lx * ly, 2 * lx * lz + 2 * ly * lz, lx * ly])
        p = areas / areas.sum()
        n = 10 * 2000
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(total - n * p) < 5 * sigma)

    def test_camera_inside_object_exhausts_retries(self):
        # one box covering the whole camera sampling region
        rng = rng_for(0, "test")
        room = (2.0, 2.0, 2.0)
        covering = Box(np.array([0.0, 0.0, 0.0]), np.array([2.0, 2.0, 2.0]))
        with pytest.raises(PlacementFailure):
            place_camera(rng, room, [covering], orient_jitter_deg=5.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(n_points=10)
        with pytest.raises(ValueError):
            SceneConfig(n_cameras=0)
        with pytest.raises(ValueError):
            SceneConfig(palette=((0.5, 0.5, 0.5),) * 3)
