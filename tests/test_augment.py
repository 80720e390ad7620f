"""Augmentation provenance tests.

Affine expectations are hand-composed in the tests from the same sampled
parameters; bilinear checks use an independent loop implementation,
and `four_gather_bilinear`, the vectorised resample bilinear_sample
replaced, is its exact reference.
`dense_map` expands a CoordMap's affine into a full grid of original
coordinates, and `hash_match` matches two such grids by hashing them into
unit cells and searching the 3x3 cells around each A pixel's own, which
hold every point within 0.5 px of it: the reference for the set of pairs
match_positive_pixels finds. `stepwise_augment_cloud` applies the scan
recipe's rotate, drop and jitter steps one at a time, each written out,
with the recipe's values spelled out: the reference augment_cloud
equals bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pixpoint import augment, pipeline
from pixpoint.augment import (
    ColorJitter,
    CoordMap,
    Grayscale,
    HorizontalFlip,
    RandomResizedCrop,
    TransformSpec2D,
    augment_cloud,
    augment_image,
    match_positive_pixels,
)
from pixpoint.errors import DegenerateCrop, EmptyCloud, EmptyOverlap, InvalidInput
from pixpoint.geometry import Image, PointCloud


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


def four_gather_bilinear(pixels, xs, ys):
    """The resample bilinear_sample replaced: the four corners of every
    output pixel gathered at once, at coords (xs, ys) that broadcast."""
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


def dense_map(cmap, width, height):
    """A CoordMap as a dense grid: src (H, W, 2) holds each output pixel's
    original (u, v), computed from the affine at every pixel; valid marks
    the pixels within 1e-9 of a width x height original image."""
    xs, ys = np.meshgrid(np.arange(cmap.width, dtype=np.float64), np.arange(cmap.height, dtype=np.float64))
    t = cmap.affine
    ox = t[0, 0] * xs + t[0, 1] * ys + t[0, 2]
    oy = t[1, 0] * xs + t[1, 1] * ys + t[1, 2]
    eps = 1e-9
    valid = (ox >= -eps) & (ox <= width - 1 + eps) & (oy >= -eps) & (oy <= height - 1 + eps)
    return SimpleNamespace(src=np.stack([ox, oy], axis=-1), valid=valid, width=cmap.width)


def dense_src(cmap):
    return dense_map(cmap, cmap.width, cmap.height).src


def _expand_ranges(left, right):
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows = np.repeat(np.arange(left.shape[0]), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.arange(total) - starts + np.repeat(left, counts)
    return rows, cols


def hash_match(map_a, map_b):
    """Every match of two dense_maps, by a cell hash: every valid B pixel
    is keyed by its unit cell, and each valid A pixel looks up its own cell
    and the 8 around it. Returns (pixels_a, pixels_b) as (n, 2) arrays of
    (column, row)."""
    av = map_a.valid.ravel()
    bv = map_b.valid.ravel()
    a_src = map_a.src.reshape(-1, 2)[av]
    b_src = map_b.src.reshape(-1, 2)[bv]
    a_lin = np.flatnonzero(av)
    b_lin = np.flatnonzero(bv)
    if a_src.shape[0] == 0 or b_src.shape[0] == 0:
        raise EmptyOverlap("no valid pixels to match")

    # a point within 0.5 px lies in a cell at most one from the source
    # point's own, even where the two sums with off round apart
    off = 16.0  # guard against negative cells near the image border
    b_cell = np.floor(b_src + off).astype(np.int64)
    b_key = b_cell[:, 0] << 20 | b_cell[:, 1]
    b_order = np.argsort(b_key, kind="stable")
    b_key_sorted = b_key[b_order]

    rows_all = []
    cols_all = []
    a_cell = np.floor(a_src + off).astype(np.int64)
    for du in (-1, 0, 1):
        for dv in (-1, 0, 1):
            cell = a_cell + [du, dv]
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
        keep = d2 <= augment.MATCH_RADIUS_PX**2
        ai, bi = ai[keep], bi[keep]
    if ai.size == 0:
        raise EmptyOverlap("no source coordinates coincide within 0.5 px")
    a_flat = a_lin[ai]
    b_flat = b_lin[bi]
    pixels_a = np.stack([a_flat % map_a.width, a_flat // map_a.width], axis=1)
    pixels_b = np.stack([b_flat % map_b.width, b_flat // map_b.width], axis=1)
    return pixels_a, pixels_b


class TestAugmentImage:
    def test_empty_spec_is_identity(self):
        img = checker_image()
        out, cmap = augment_image(img, TransformSpec2D(()), np.random.default_rng(0))
        assert np.array_equal(out.pixels, img.pixels)
        ident = CoordMap.identity(img.width, img.height)
        assert np.array_equal(dense_src(cmap), dense_src(ident))
        assert dense_map(cmap, img.width, img.height).valid.all()

    def test_forced_flip_mirror_formula(self):
        img = checker_image(w=9, h=5)
        out, cmap = augment_image(img, TransformSpec2D((HorizontalFlip(p=1.0),)), np.random.default_rng(3))
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(5.0))
        src = dense_src(cmap)
        assert np.allclose(src[..., 0], 8.0 - xs)
        assert np.allclose(src[..., 1], ys)
        assert np.array_equal(out.pixels, img.pixels[:, ::-1])

    def test_crop_then_flip_matches_hand_composed_affines(self):
        img = checker_image(w=20, h=20, seed=4)
        spec = TransformSpec2D(
            (RandomResizedCrop(scale_range=(0.25, 0.5), out_size=(20, 20)), HorizontalFlip(p=1.0))
        )
        seed = 42
        _, cmap = augment_image(img, spec, np.random.default_rng(seed))

        # replay the parameter draws, then compose the affines by hand
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.25, 0.5)
        cw = int(np.floor(np.sqrt(scale) * 20 + 0.5))
        ch = int(np.floor(np.sqrt(scale) * 20 + 0.5))
        x0 = int(rng.integers(0, 20 - cw + 1))
        y0 = int(rng.integers(0, 20 - ch + 1))
        src = dense_src(cmap)
        worst = 0.0
        for y in range(20):
            for x in range(20):
                xf = 19.0 - x  # flip first (outermost op maps output -> crop output)
                su = x0 + xf * (cw - 1) / 19.0
                sv = y0 + y * (ch - 1) / 19.0
                worst = max(worst, abs(src[y, x, 0] - su), abs(src[y, x, 1] - sv))
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
        out, cmap = augment_image(img, spec, np.random.default_rng(9))
        src = dense_src(cmap)
        for y in range(out.height):
            for x in range(out.width):
                u, v = src[y, x]
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
        out1, map1 = augment_image(img, spec, np.random.default_rng(77))
        out2, map2 = augment_image(img, spec, np.random.default_rng(77))
        assert np.array_equal(out1.pixels, out2.pixels)
        assert np.array_equal(dense_src(map1), dense_src(map2))
        out3, _ = augment_image(img, spec, np.random.default_rng(78))
        assert not np.array_equal(out1.pixels, out3.pixels)

    def test_composition_order_matters(self):
        img = checker_image(w=20, h=20, seed=8)
        crop = RandomResizedCrop((0.25, 0.25), (20, 20))
        flip = HorizontalFlip(p=1.0)
        _, map_cf = augment_image(img, TransformSpec2D((crop, flip)), np.random.default_rng(123))
        _, map_fc = augment_image(img, TransformSpec2D((flip, crop)), np.random.default_rng(123))
        assert not np.allclose(dense_src(map_cf), dense_src(map_fc))

    def test_degenerate_crop_raises(self):
        img = checker_image(w=4, h=4)
        spec = TransformSpec2D((RandomResizedCrop((0.001, 0.001), (4, 4)),))
        with pytest.raises(DegenerateCrop):
            augment_image(img, spec, np.random.default_rng(0))

    def test_photometric_ops_keep_identity_coordmap(self):
        img = checker_image(seed=10)
        spec = TransformSpec2D((ColorJitter((0.5, 1.5), None, None), Grayscale(1.0)))
        out, cmap = augment_image(img, spec, np.random.default_rng(1))
        ident = CoordMap.identity(img.width, img.height)
        assert np.array_equal(dense_src(cmap), dense_src(ident))
        # grayscale forced: equal channels
        assert np.allclose(out.pixels[..., 0], out.pixels[..., 1])
        assert np.allclose(out.pixels[..., 1], out.pixels[..., 2])
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


@pytest.mark.parametrize("out_size", [(8.5, 8), (8.0, 8), (0, 8), (8, -1), (True, 8), (8, 8, 3)])
def test_crop_out_size_must_be_positive_ints(out_size):
    with pytest.raises(InvalidInput, match="out_size"):
        RandomResizedCrop((0.5, 1.0), out_size)


class TestBilinearSample:
    @pytest.mark.parametrize("h, w", [(12, 16), (1, 7), (9, 1), (64, 64)])
    def test_equals_the_four_gather_formula_exactly(self, h, w):
        # random coords off the affine grids, unordered, with both ends
        # of each axis and whole pixels among them
        rng = np.random.default_rng(h * 100 + w)
        pixels = rng.uniform(0, 1, size=(h, w, 3))
        xs = np.concatenate([[0.0, w - 1.0, w // 2], rng.uniform(0, w - 1, size=20)])
        ys = np.concatenate([[h - 1.0, 0.0, h // 2], rng.uniform(0, h - 1, size=11)])
        got = augment.bilinear_sample(pixels, xs, ys)
        assert got.shape == (ys.size, xs.size, 3)
        assert np.array_equal(got, four_gather_bilinear(pixels, xs[None, :], ys[:, None]))


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
        spec = TransformSpec2D(ops + (RandomResizedCrop((1.0, 1.0), size),))
        return augment_image(img, spec, np.random.default_rng(seed))

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
            out, cmap = augment_image(img, TransformSpec2D(ops), np.random.default_rng(seed))
            assert len(calls) == expected_calls
            ref, ref_map = self.always_resampled(img, ops, seed, (out.width, out.height))
            assert np.array_equal(out.pixels, ref.pixels)
            dense, ref_dense = (dense_map(m, img.width, img.height) for m in (cmap, ref_map))
            assert np.array_equal(dense.src, ref_dense.src)
            assert np.array_equal(dense.valid, ref_dense.valid)


class TestMatchPositivePixels:
    def test_identity_maps_give_identical_coords(self):
        m = CoordMap.identity(8, 8)
        pa, pb = match_positive_pixels(m, m, count=10, rng=np.random.default_rng(0))
        assert pa.shape == (10, 2)
        assert np.array_equal(pa, pb)

    def test_zero_overlap_raises(self):
        a = CoordMap.identity(8, 8)
        shifted = CoordMap(a.affine + [[0.0, 0.0, 100.0], [0.0, 0.0, 100.0], [0.0, 0.0, 0.0]], 8, 8)
        with pytest.raises(EmptyOverlap):
            match_positive_pixels(a, shifted, count=4, rng=np.random.default_rng(0))

    def test_matches_agree_with_exhaustive_scan(self):
        img = checker_image(w=20, h=20, seed=12)
        spec = TransformSpec2D((RandomResizedCrop((0.5, 0.9), (14, 14)), HorizontalFlip(0.5)))
        _, map_a = augment_image(img, spec, np.random.default_rng(31))
        _, map_b = augment_image(img, spec, np.random.default_rng(32))
        src_a, src_b = dense_src(map_a), dense_src(map_b)

        # brute force: every (a, b) output-pixel pair within 0.5 px
        expect = set()
        for ay in range(14):
            for ax in range(14):
                for by in range(14):
                    for bx in range(14):
                        d = np.linalg.norm(src_a[ay, ax] - src_b[by, bx])
                        if d <= 0.5:
                            expect.add((ax, ay, bx, by))
        assert expect, "fixture should overlap"

        pa, pb = match_positive_pixels(map_a, map_b, count=10**6, rng=np.random.default_rng(5))
        got = {(int(a[0]), int(a[1]), int(b[0]), int(b[1])) for a, b in zip(pa, pb)}
        assert got == expect

    def test_returns_fewer_when_few_matches(self):
        m = CoordMap.identity(3, 3)
        pa, pb = match_positive_pixels(m, m, count=50, rng=np.random.default_rng(0))
        assert pa.shape[0] == 9

    def test_count_below_one_raises(self):
        m = CoordMap.identity(3, 3)
        with pytest.raises(InvalidInput, match="^count must be an int >= 1$"):
            match_positive_pixels(m, m, count=0, rng=np.random.default_rng(0))
        with pytest.raises(InvalidInput, match="^count must be an int >= 1$"):
            match_positive_pixels(m, m, count=2.5, rng=np.random.default_rng(0))


def _chain(size):
    return (
        RandomResizedCrop((0.05, 1.0), (40, 36)),
        HorizontalFlip(0.5),
        RandomResizedCrop((0.05, 1.0), size),
        HorizontalFlip(0.5),
    )


# crop/flip chains of a 64 x 48 image down to crop scale 0.05, where B's
# window per axis is wider than 2 pixels, to 1-pixel axes (scale 0) and
# to 5 columns read from a window one pixel wide (scale 0 over 5 pixels)
CHAINED_SPECS = {f"{w}x{h}": TransformSpec2D(_chain((w, h))) for w, h in [(64, 64), (32, 20), (13, 9), (1, 1), (1, 7)]}
CHAINED_SPECS["5x5-from-1-wide"] = TransformSpec2D(_chain((2, 9))[:3] + (RandomResizedCrop((0.2, 0.2), (5, 5)),))


def pair_keys(pixels_a, pixels_b):
    """One int64 per pair: its A column, A row, B column and B row in
    16 bits each."""
    c = np.concatenate([pixels_a, pixels_b], axis=1).astype(np.int64)
    return ((c[:, 0] << 16 | c[:, 1]) << 16 | c[:, 2]) << 16 | c[:, 3]


def assert_same_matches(map_a, map_b, image_size, seed, counts=(10**6,)):
    """For each count, match_positive_pixels samples min(count, matches)
    distinct pairs of hash_match's set, so all of them when count reaches
    it, or both raise EmptyOverlap; returns whether they matched anything."""
    try:
        want = hash_match(dense_map(map_a, *image_size), dense_map(map_b, *image_size))
    except EmptyOverlap:
        with pytest.raises(EmptyOverlap):
            match_positive_pixels(map_a, map_b, counts[0], np.random.default_rng(seed))
        return False
    want_keys = pair_keys(*want)
    assert np.unique(want_keys).size == want_keys.size
    for count in counts:
        got = match_positive_pixels(map_a, map_b, count, np.random.default_rng(seed))
        assert all(g.dtype == w.dtype for g, w in zip(got, want))
        got = pair_keys(*got)
        assert np.unique(got).size == got.size == min(count, want_keys.size)
        assert np.isin(got, want_keys).all()
    return True


class TestAgainstHashMatcher:
    """The closed form finds every pair the widened cell hash finds, and
    no other."""

    def test_default_spec_pairs(self):
        img = checker_image(w=64, h=64, seed=14)
        spec = pipeline.default_spec_2d()
        for seed in range(120):
            _, map_a = augment_image(img, spec, np.random.default_rng(2 * seed))
            _, map_b = augment_image(img, spec, np.random.default_rng(2 * seed + 1))
            assert assert_same_matches(map_a, map_b, (64, 64), seed, (512, 10**6))

    @pytest.mark.parametrize("name_a", sorted(CHAINED_SPECS))
    def test_chained_crop_flip_specs(self, name_a):
        img = checker_image(w=64, h=48, seed=15)
        matched = wide = 0
        for name_b, spec_b in sorted(CHAINED_SPECS.items()):
            for seed in range(20):
                _, map_a = augment_image(img, CHAINED_SPECS[name_a], np.random.default_rng(2 * seed))
                _, map_b = augment_image(img, spec_b, np.random.default_rng(2 * seed + 1))
                hit = assert_same_matches(map_a, map_b, (64, 48), seed, (50, 10**6))
                matched += hit
                wide += hit and min(abs(map_b.affine[0, 0]), abs(map_b.affine[1, 1])) < 0.5
        assert matched > 0 and wide > 0

    @pytest.mark.parametrize("scale", [5 / 6, 7 / 6, 11 / 10])
    @pytest.mark.parametrize("flip", [False, True])
    def test_pairs_exactly_half_a_pixel_apart(self, scale, flip):
        """B's pixels at x * scale (or mirrored) fall exactly 0.5 px from
        integer source points, where a window computed from the rounded
        preimage may start one pixel late or end one pixel early."""
        sign, shift = (-1.0, 39 * scale) if flip else (1.0, 0.0)
        axis = [[sign * scale, 0.0, shift], [0.0, scale, 0.0], [0.0, 0.0, 1.0]]
        map_b = CoordMap(axis, 40, 30)
        map_a = CoordMap.identity(34, 26)
        assert assert_same_matches(map_a, map_b, (48, 48), 0)
        assert assert_same_matches(map_b, map_a, (48, 48), 0)

    def test_pair_in_neither_cell_is_matched(self):
        """At u = 16.5 - 2**-48, floor(u + 15.5) is 31 but u + 16.5 rounds
        to 33, so B's column 16, 0.5 - 2**-48 px away, lies in neither of
        the two unit cells around u that a 2x2 cell hash would search. It
        is within 0.5 px, so it is matched, in both directions."""
        map_a = CoordMap([[1.0, 0.0, 0.5 - 2**-48], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 40, 3)
        map_b = CoordMap.identity(40, 3)
        assert assert_same_matches(map_a, map_b, (48, 48), 0)
        assert assert_same_matches(map_b, map_a, (48, 48), 0)
        for first, second in ((map_a, map_b), (map_b, map_a)):
            pixels_a, pixels_b = match_positive_pixels(first, second, 10**6, np.random.default_rng(0))
            assert pair_keys([[16, 0]], [[16, 0]])[0] in pair_keys(pixels_a, pixels_b)

    def test_disjoint_views_raise_on_both(self):
        left = CoordMap(np.diag([0.5, 0.5, 1.0]), 16, 16)  # original [0, 7.5] x [0, 7.5]
        right = CoordMap([[0.5, 0.0, 20.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]], 16, 16)
        assert not assert_same_matches(left, right, (32, 32), 0)
        assert not assert_same_matches(right, left, (32, 32), 0)


@pytest.mark.parametrize("name", sorted(CHAINED_SPECS) + ["default"])
def test_views_map_into_the_original(name):
    """The four corners of every view, hence all its pixels, map into the
    original image (within the 1e-9 the dense valid grid allowed), which is
    why a CoordMap needs no validity mask."""
    img = checker_image(w=64, h=48, seed=16)
    spec = CHAINED_SPECS.get(name, pipeline.default_spec_2d())
    for seed in range(40):
        _, cmap = augment_image(img, spec, np.random.default_rng(seed))
        w, h = cmap.width - 1, cmap.height - 1
        u, v, _ = cmap.affine @ np.array([[0, w, 0, w], [0, 0, h, h], [1, 1, 1, 1]], dtype=np.float64)
        assert u.min() >= -1e-9 and u.max() <= 63 + 1e-9
        assert v.min() >= -1e-9 and v.max() <= 47 + 1e-9


class TestCoordMap:
    BAD = {
        "shape": (np.eye(2), 4, 4, "finite 3x3"),
        "nan": (np.diag([1.0, np.nan, 1.0]), 4, 4, "finite 3x3"),
        "inf": ([[1.0, 0.0, np.inf], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 4, 4, "finite 3x3"),
        "last-row": (np.diag([1.0, 1.0, 2.0]), 4, 4, "last row"),
        "projective": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.1, 0.0, 1.0]], 4, 4, "last row"),
        "rotation": ([[0.0, -1.0, 3.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], 4, 4, "off-diagonal"),
        "shear": ([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]], 4, 4, "off-diagonal"),
        "width-0": (np.eye(3), 0, 4, "width"),
        "height-0": (np.eye(3), 4, 0, "height"),
        "width-float": (np.eye(3), 4.0, 4, "width"),
        "width-bool": (np.eye(3), True, 4, "width"),
    }

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_rejects_bad_maps(self, name):
        affine, width, height, match = self.BAD[name]
        with pytest.raises(InvalidInput, match=match):
            CoordMap(affine, width, height)

    def test_holds_a_read_only_copy(self):
        affine = np.diag([2.0, -1.0, 1.0])
        cmap = CoordMap(affine, np.int64(3), 2)
        affine[0, 0] = 5.0
        assert cmap.affine[0, 0] == 2.0 and not cmap.affine.flags.writeable
        assert np.array_equal(cmap.source_axis(0), [0.0, 2.0, 4.0])
        assert np.array_equal(cmap.source_axis(1), [0.0, -1.0])


def stepwise_augment_cloud(cloud, rng):
    """The scan recipe one step at a time: rotate every point about z by
    U[0, 2 pi - 1e-9), drop each point unless U[0, 1) < 0.9 and remap the
    index map over the survivors, then scale the colours' brightness,
    contrast and saturation by U[0.8, 1.2) each and clamp."""
    pos, col = np.array(cloud.positions), np.array(cloud.colors)
    lab = None if cloud.labels is None else np.array(cloud.labels)
    index_map = np.arange(len(cloud), dtype=np.int64)

    theta = rng.uniform(0.0, 2.0 * np.pi - 1e-9)
    c, s = np.cos(theta), np.sin(theta)
    pos = pos @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T

    keep = rng.random(pos.shape[0]) < 0.9
    pos, col = pos[keep], col[keep]
    lab = None if lab is None else lab[keep]
    new_of_current = np.full(keep.shape[0], -1, dtype=np.int64)
    new_of_current[keep] = np.arange(int(keep.sum()))
    index_map = new_of_current[index_map]

    col = col * rng.uniform(0.8, 1.2)
    mean = float((col @ augment.LUMA).mean())
    col = (col - mean) * rng.uniform(0.8, 1.2) + mean
    luma = (col @ augment.LUMA)[..., None]
    col = luma + (col - luma) * rng.uniform(0.8, 1.2)
    return PointCloud(pos, np.clip(col, 0.0, 1.0), lab), index_map


class TestAugmentCloud:
    def cloud(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        return PointCloud(
            rng.uniform(-1, 1, (n, 3)), rng.uniform(0, 1, (n, 3)), rng.integers(0, 4, n)
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("labels", [True, False])
    def test_equals_the_stepwise_recipe_bit_for_bit(self, seed, labels):
        c = self.cloud(n=300, seed=seed)
        if not labels:
            c = PointCloud(c.positions, c.colors)
        out, index_map = augment_cloud(c, np.random.default_rng(seed))
        want, want_map = stepwise_augment_cloud(c, np.random.default_rng(seed))
        assert np.array_equal(index_map, want_map)
        assert np.array_equal(out.positions, want.positions)
        assert np.array_equal(out.colors, want.colors)
        assert (out.labels is None) == (not labels)
        if labels:
            assert np.array_equal(out.labels, want.labels)

    def test_identity_spec(self, monkeypatch):
        monkeypatch.setattr(augment, "ROTATION_RANGE", (0.0, 0.0))
        monkeypatch.setattr(augment, "KEEP_PROB", 1.0)
        c = self.cloud()
        out, index_map = augment_cloud(c, np.random.default_rng(0))
        assert np.allclose(out.positions, c.positions)
        assert np.array_equal(index_map, np.arange(100))

    def test_quarter_turn(self, monkeypatch):
        halfpi = np.pi / 2.0
        monkeypatch.setattr(augment, "ROTATION_RANGE", (halfpi, halfpi))
        c = PointCloud(np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)))
        out, _ = augment_cloud(c, np.random.default_rng(0))
        assert np.allclose(out.positions[0], (0.0, 1.0, 0.0), atol=1e-9)

    def test_dropout_survivors_within_3_sigma(self, monkeypatch):
        monkeypatch.setattr(augment, "KEEP_PROB", 0.5)
        c = self.cloud(n=10_000, seed=1)
        out, index_map = augment_cloud(c, np.random.default_rng(2))
        sigma = np.sqrt(10_000 * 0.25)
        assert abs(len(out) - 5000) < 3 * sigma
        kept = index_map[index_map >= 0]
        assert kept.size == len(out)
        assert np.unique(kept).size == kept.size  # injective

    def test_jitter_clamps_and_keeps_geometry(self, monkeypatch):
        monkeypatch.setattr(augment, "ROTATION_RANGE", (0.0, 0.0))
        monkeypatch.setattr(augment, "KEEP_PROB", 1.0)
        monkeypatch.setattr(augment, "CLOUD_JITTER", ColorJitter((0.0, 3.0), (0.0, 3.0), (0.0, 3.0)))
        c = self.cloud(n=200, seed=4)
        out, _ = augment_cloud(c, np.random.default_rng(11))
        assert out.colors.min() >= 0.0 and out.colors.max() <= 1.0
        assert np.array_equal(out.positions, c.positions)

    def test_all_dropped_raises(self, monkeypatch):
        # keep probability tiny: with this seed every point drops
        monkeypatch.setattr(augment, "KEEP_PROB", 1e-12)
        c = self.cloud(n=5, seed=5)
        with pytest.raises(EmptyCloud):
            augment_cloud(c, np.random.default_rng(0))

    def test_empty_cloud_raises(self):
        empty = PointCloud(np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(InvalidInput, match="^cloud must be nonempty$"):
            augment_cloud(empty, np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomResizedCrop((0.0, 1.0), (8, 8))

