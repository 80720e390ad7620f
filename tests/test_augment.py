"""Augmentation provenance tests.

Affine expectations are hand-composed in the tests from the same sampled
parameters; bilinear checks use an independent loop implementation.
"""

import numpy as np
import pytest

from pixpoint import augment, pipeline
from pixpoint.augment import (
    ColorJitter,
    CoordMap,
    Grayscale,
    HorizontalFlip,
    PointDropout,
    RandomResizedCrop,
    RotationZ,
    TransformSpec2D,
    TransformSpec3D,
    augment_cloud,
    augment_image,
    match_positive_pixels,
)
from pixpoint.errors import DegenerateCrop, EmptyCloud, EmptyOverlap, InvalidInput
from pixpoint.geometry import Image, PointCloud
from pixpoint.rngutil import rng_for


def checker_image(w=16, h=12, seed=0):
    rng = np.random.default_rng(seed)
    return Image(rng.uniform(0, 1, size=(h, w, 3)))


def bilinear_oracle(pixels, u, v):
    """Plain-loop bilinear interpolation at a single continuous coord."""
    h, w = pixels.shape[:2]
    x0 = min(max(int(np.floor(u)), 0), w - 1)
    y0 = min(max(int(np.floor(v)), 0), h - 1)
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    fx, fy = u - x0, v - y0
    top = pixels[y0, x0] * (1 - fx) + pixels[y0, x1] * fx
    bot = pixels[y1, x0] * (1 - fx) + pixels[y1, x1] * fx
    return top * (1 - fy) + bot * fy


class TestAugmentImage:
    def test_empty_spec_is_identity(self):
        img = checker_image()
        out, cmap = augment_image(img, TransformSpec2D(()), rng_seed=0)
        assert np.array_equal(out.pixels, img.pixels)
        ident = CoordMap.identity(img.width, img.height)
        assert np.array_equal(cmap.src, ident.src)
        assert cmap.valid.all()

    def test_forced_flip_mirror_formula(self):
        img = checker_image(w=9, h=5)
        out, cmap = augment_image(img, TransformSpec2D((HorizontalFlip(p=1.0),)), rng_seed=3)
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(5.0))
        assert np.allclose(cmap.src[..., 0], 8.0 - xs)
        assert np.allclose(cmap.src[..., 1], ys)
        assert np.array_equal(out.pixels, img.pixels[:, ::-1])

    def test_crop_then_flip_matches_hand_composed_affines(self):
        img = checker_image(w=20, h=20, seed=4)
        spec = TransformSpec2D(
            (RandomResizedCrop(scale_range=(0.25, 0.5), out_size=(20, 20)), HorizontalFlip(p=1.0))
        )
        seed = 42
        _, cmap = augment_image(img, spec, rng_seed=seed)

        # replay the parameter draws, then compose the affines by hand
        rng = rng_for(seed, "augment2d")
        scale = rng.uniform(0.25, 0.5)
        cw = int(np.floor(np.sqrt(scale) * 20 + 0.5))
        ch = int(np.floor(np.sqrt(scale) * 20 + 0.5))
        x0 = int(rng.integers(0, 20 - cw + 1))
        y0 = int(rng.integers(0, 20 - ch + 1))
        worst = 0.0
        for y in range(20):
            for x in range(20):
                xf = 19.0 - x  # flip first (outermost op maps output -> crop output)
                su = x0 + xf * (cw - 1) / 19.0
                sv = y0 + y * (ch - 1) / 19.0
                worst = max(worst, abs(cmap.src[y, x, 0] - su), abs(cmap.src[y, x, 1] - sv))
        assert worst < 1e-6

    def test_geometric_color_consistency(self):
        # output pixel color equals bilinear sample of the original at its source
        img = checker_image(w=24, h=18, seed=5)
        spec = TransformSpec2D(
            (
                RandomResizedCrop(scale_range=(0.3, 0.9), out_size=(16, 16)),
                HorizontalFlip(p=0.5),
                RandomResizedCrop(scale_range=(0.5, 1.0), out_size=(12, 10)),
            )
        )
        out, cmap = augment_image(img, spec, rng_seed=9)
        for y in range(out.height):
            for x in range(out.width):
                u, v = cmap.src[y, x]
                expect = bilinear_oracle(img.pixels, u, v)
                assert np.allclose(out.pixels[y, x], expect, atol=1e-6)

    def test_determinism_bit_identical(self):
        img = checker_image(seed=6)
        spec = TransformSpec2D(
            (
                RandomResizedCrop((0.4, 1.0), (16, 12)),
                HorizontalFlip(0.5),
                ColorJitter((0.7, 1.3), (0.7, 1.3), (0.7, 1.3)),
                Grayscale(0.5),
            )
        )
        out1, map1 = augment_image(img, spec, rng_seed=77)
        out2, map2 = augment_image(img, spec, rng_seed=77)
        assert np.array_equal(out1.pixels, out2.pixels)
        assert np.array_equal(map1.src, map2.src)
        out3, _ = augment_image(img, spec, rng_seed=78)
        assert not np.array_equal(out1.pixels, out3.pixels)

    def test_composition_order_matters(self):
        img = checker_image(w=20, h=20, seed=8)
        crop = RandomResizedCrop((0.25, 0.25), (20, 20))
        flip = HorizontalFlip(p=1.0)
        _, map_cf = augment_image(img, TransformSpec2D((crop, flip)), rng_seed=123)
        _, map_fc = augment_image(img, TransformSpec2D((flip, crop)), rng_seed=123)
        assert not np.allclose(map_cf.src, map_fc.src)

    def test_degenerate_crop_raises(self):
        img = checker_image(w=4, h=4)
        spec = TransformSpec2D((RandomResizedCrop((0.001, 0.001), (4, 4)),))
        with pytest.raises(DegenerateCrop):
            augment_image(img, spec, rng_seed=0)

    def test_photometric_ops_keep_identity_coordmap(self):
        img = checker_image(seed=10)
        spec = TransformSpec2D((ColorJitter((0.5, 1.5), None, None), Grayscale(1.0)))
        out, cmap = augment_image(img, spec, rng_seed=1)
        ident = CoordMap.identity(img.width, img.height)
        assert np.array_equal(cmap.src, ident.src)
        # grayscale forced: equal channels
        assert np.allclose(out.pixels[..., 0], out.pixels[..., 1])
        assert np.allclose(out.pixels[..., 1], out.pixels[..., 2])
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


class TestIdentityResampleSkipped:
    """augment_image returns the materialised image itself when the last
    resample would map the output grid onto it, pixel for pixel."""

    SPECS = {
        "default": (pipeline.default_spec_2d(out_size=(12, 10)).ops, 1),
        "crop_only": ((RandomResizedCrop((0.4, 1.0), (12, 10)),), 1),
        "jitter_only": ((ColorJitter((0.7, 1.3), (0.7, 1.3), (0.7, 1.3)),), 0),
        "jitter_then_crop": (
            (ColorJitter((0.7, 1.3), (0.7, 1.3), None), RandomResizedCrop((0.4, 1.0), (12, 10))),
            1,
        ),
        "empty": ((), 0),
    }

    @staticmethod
    def always_resampled(img, ops, seed, size):
        # a full-window crop to the final size is the identity map, drawn
        # after every other parameter; it only forces the final resample
        return augment_image(img, TransformSpec2D(ops + (RandomResizedCrop((1.0, 1.0), size),)), seed)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_equals_always_resampling_and_counts_calls(self, monkeypatch, name):
        ops, expected_calls = self.SPECS[name]
        calls = []

        def counted(*args):
            calls.append(1)
            return bilinear(*args)

        bilinear = augment.bilinear_sample
        monkeypatch.setattr(augment, "bilinear_sample", counted)
        img = checker_image(w=16, h=12, seed=13)
        for seed in range(6):
            del calls[:]
            out, cmap = augment_image(img, TransformSpec2D(ops), rng_seed=seed)
            assert len(calls) == expected_calls
            ref, ref_map = self.always_resampled(img, ops, seed, (out.width, out.height))
            assert np.array_equal(out.pixels, ref.pixels)
            assert np.array_equal(cmap.src, ref_map.src)
            assert np.array_equal(cmap.valid, ref_map.valid)


class TestMatchPositivePixels:
    def test_identity_maps_give_identical_coords(self):
        m = CoordMap.identity(8, 8)
        pa, pb = match_positive_pixels(m, m, count=10, rng_seed=0)
        assert pa.shape == (10, 2)
        assert np.array_equal(pa, pb)

    def test_zero_overlap_raises(self):
        a = CoordMap.identity(8, 8)
        shifted = CoordMap(a.src + 100.0, a.valid.copy())
        with pytest.raises(EmptyOverlap):
            match_positive_pixels(a, shifted, count=4, rng_seed=0)

    def test_matches_agree_with_exhaustive_scan(self):
        img = checker_image(w=20, h=20, seed=12)
        spec = TransformSpec2D((RandomResizedCrop((0.5, 0.9), (14, 14)), HorizontalFlip(0.5)))
        _, map_a = augment_image(img, spec, rng_seed=31)
        _, map_b = augment_image(img, spec, rng_seed=32)

        # brute force: every (a, b) output-pixel pair within 0.5 px
        expect = set()
        for ay in range(14):
            for ax in range(14):
                for by in range(14):
                    for bx in range(14):
                        d = np.linalg.norm(map_a.src[ay, ax] - map_b.src[by, bx])
                        if d <= 0.5:
                            expect.add((ax, ay, bx, by))
        assert expect, "fixture should overlap"

        pa, pb = match_positive_pixels(map_a, map_b, count=10**6, rng_seed=5)
        got = {(int(a[0]), int(a[1]), int(b[0]), int(b[1])) for a, b in zip(pa, pb)}
        assert got == expect

    def test_returns_fewer_when_few_matches(self):
        m = CoordMap.identity(3, 3)
        pa, pb = match_positive_pixels(m, m, count=50, rng_seed=0)
        assert pa.shape[0] == 9

    def test_count_below_one_raises(self):
        m = CoordMap.identity(3, 3)
        with pytest.raises(InvalidInput, match="^count must be >= 1, got 0$"):
            match_positive_pixels(m, m, count=0, rng_seed=0)


class TestAugmentCloud:
    def cloud(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        return PointCloud(
            rng.uniform(-1, 1, (n, 3)), rng.uniform(0, 1, (n, 3)), rng.integers(0, 4, n)
        )

    def test_identity_spec(self):
        c = self.cloud()
        spec = TransformSpec3D((RotationZ((0.0, 0.0)), PointDropout(1.0)))
        out, index_map = augment_cloud(c, spec, rng_seed=0)
        assert np.allclose(out.positions, c.positions)
        assert np.array_equal(index_map, np.arange(100))

    def test_quarter_turn(self):
        c = PointCloud(np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)))
        halfpi = np.pi / 2.0
        out, _ = augment_cloud(c, TransformSpec3D((RotationZ((halfpi, halfpi)),)), 0)
        assert np.allclose(out.positions[0], (0.0, 1.0, 0.0), atol=1e-9)

    def test_dropout_survivors_within_3_sigma(self):
        c = self.cloud(n=10_000, seed=1)
        out, index_map = augment_cloud(c, TransformSpec3D((PointDropout(0.5),)), rng_seed=2)
        sigma = np.sqrt(10_000 * 0.25)
        assert abs(len(out) - 5000) < 3 * sigma
        kept = index_map[index_map >= 0]
        assert kept.size == len(out)
        assert np.unique(kept).size == kept.size  # injective

    def test_two_rotations_compose_to_one_about_z(self):
        c = self.cloud(n=50, seed=3)
        spec = TransformSpec3D((RotationZ((0.0, 6.0)), RotationZ((0.0, 6.0))))
        out, _ = augment_cloud(c, spec, rng_seed=7)
        assert np.allclose(out.positions[:, 2], c.positions[:, 2], atol=1e-12)
        radius = np.linalg.norm(c.positions[:, :2], axis=1)
        assert np.allclose(np.linalg.norm(out.positions[:, :2], axis=1), radius, atol=1e-12)
        # the linear map that best sends the input to the output is one rotation
        m = np.linalg.lstsq(c.positions, out.positions, rcond=None)[0].T
        assert np.allclose(c.positions @ m.T, out.positions, atol=1e-12)
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    def test_jitter_clamps_and_keeps_geometry(self):
        c = self.cloud(n=200, seed=4)
        spec = TransformSpec3D((ColorJitter((0.0, 3.0), (0.0, 3.0), (0.0, 3.0)),))
        out, _ = augment_cloud(c, spec, rng_seed=11)
        assert out.colors.min() >= 0.0 and out.colors.max() <= 1.0
        assert np.array_equal(out.positions, c.positions)

    def test_all_dropped_raises(self):
        c = self.cloud(n=5, seed=5)
        with pytest.raises(EmptyCloud):
            # keep_prob tiny: with this seed every point drops
            augment_cloud(c, TransformSpec3D((PointDropout(1e-12),)), rng_seed=0)

    def test_empty_cloud_raises(self):
        empty = PointCloud(np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(InvalidInput, match="^cloud must be nonempty$"):
            augment_cloud(empty, TransformSpec3D(()), rng_seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PointDropout(0.0)
        with pytest.raises(ValueError):
            RotationZ((-1.0, 1.0))
        with pytest.raises(ValueError):
            RandomResizedCrop((0.0, 1.0), (8, 8))
