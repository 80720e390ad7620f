"""Both training stages run end to end on tiny configurations.

Stage 1: determinism, that computing conv3 only at the sampled pixels
trains as the dense encoder does, that a negative cap above the batch
scores as the pool of all the batch's rows does, and the
starved-iteration error.
Stage 2: determinism in both negative_source modes, the untouched frozen
stage-1 model, that reading kNN from the per-scan neighbour tables trains
exactly as an exact search of every slot's surviving points would, that
on a voxelised scene the tables and the neighbours read from them equal
brute force, that pairs sharing one scan share
its voxelisation and table yet train as pairs holding copies do, and that
each pair is matched once: a slot's matches are the scan's own z-buffer
winners that survive dropout, with the frozen embeddings at their pixels.
In each stage one slot's batch rows replay from (seed, iteration, slot)
outside the run.
Both: config validation, a finite-difference check of one whole step's
gradient (stage 2 in both modes), skipped slots counted with the learning
rate still following the schedule, a non-finite loss naming the batch
that produced it, and each info_nce call taking its LossConfig as the
fourth positional argument with the pool's row count, which
bench/tracer.py reads.
"""

import re
import tracemalloc
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from gradcheck import gradient_check
from test_nn import brute_knn, float64_params

from pixpoint import optim, pipeline
from pixpoint.augment import (
    ColorJitter,
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
from pixpoint.errors import (
    EmptyCloud,
    EmptyOverlap,
    InvalidInput,
    IterationStarved,
    NonFiniteLoss,
    PixpointError,
)
from pixpoint.geometry import CameraIntrinsics, Image, PointCloud, Pose, build_correspondences, voxelize
from pixpoint.loss import LossConfig
from pixpoint.nn import (
    EncoderParams2D,
    EncoderParams3D,
    HeadParams,
    checkpoint_checksum,
    encode_images_forward,
    head_forward,
    knn_from_table,
    knn_indices,
)
from pixpoint.optim import lr_schedule
from pixpoint.rngutil import rng_for
from pixpoint.synthdata import SceneConfig, generate_scene

DIMS = 8


@pytest.fixture(scope="module")
def dataset():
    scenes = [
        generate_scene(SceneConfig(n_points=400, image_size=(24, 24), seed=s)) for s in (3, 4)
    ]
    return [pair for scene in scenes for pair in pipeline.pairs_from_scene(scene)]


STAGE1 = pipeline.Stage1Config(
    batch_pairs=3,
    pixels_per_pair=96,
    iterations=3,
    spec_a=pipeline.default_spec_2d((24, 24)),
    spec_b=pipeline.default_spec_2d((24, 24)),
    feature_dim=DIMS,
    embed_dim=DIMS,
    negative_cap=64,
    seed=2,
)

STAGE2 = pipeline.Stage2Config(
    batch_pairs=3,
    correspondences_per_pair=32,
    voxel_size=0.1,
    iterations=4,
    feature_dim=DIMS,
    embed_dim=DIMS,
    knn=4,
    seed=6,
)


def tensors_of(enc, head):
    params = {f"enc.{k}": v for k, v in enc.tensors().items()}
    params.update({f"head.{k}": v for k, v in head.tensors().items()})
    return params


def run_stage1(dataset, **changes):
    images = [pair.image for pair in dataset]
    enc, head, report = pipeline.pretrain_2d(images, replace(STAGE1, **changes))
    return tensors_of(enc, head), report


def test_stage1_two_runs_are_bit_identical(dataset):
    first, report_a = run_stage1(dataset)
    second, report_b = run_stage1(dataset)
    assert checkpoint_checksum(first) == checkpoint_checksum(second)
    assert np.array_equal(report_a.loss_history, report_b.loss_history)
    assert np.all(np.isfinite(report_a.loss_history))


def train_sampled_and_dense(dataset, monkeypatch):
    """Final tensors of stage 1 as it runs (conv3 at the sampled pixels),
    then with conv3 run densely and its rows gathered."""
    sampled, _ = run_stage1(dataset)
    dense_forward = pipeline.encode_images_forward
    dense_backward = pipeline.encode_images_backward
    repeats = []

    def forward_then_gather(params, images, at):
        feats, cache = dense_forward(params, images)
        return feats.reshape(-1, feats.shape[-1])[at], (cache, at, feats.shape)

    def scatter_then_backward(params, cache_at, grad_rows):
        cache, at, shape = cache_at
        grad = np.zeros(shape)
        grad.reshape(-1, grad_rows.shape[1])[at] = grad_rows
        return dense_backward(params, cache, grad)

    def match_recording_repeats(*args):
        pix_a, pix_b = match(*args)
        repeats.append(len(np.unique(pix_a, axis=0)) < len(pix_a))
        return pix_a, pix_b

    match = pipeline.match_positive_pixels
    monkeypatch.setattr(pipeline, "encode_images_forward", forward_then_gather)
    monkeypatch.setattr(pipeline, "encode_images_backward", scatter_then_backward)
    monkeypatch.setattr(pipeline, "match_positive_pixels", match_recording_repeats)
    dense, _ = run_stage1(dataset)
    # one A pixel matched several B pixels somewhere, so the dedupe ran
    assert any(repeats)
    return sampled, dense


def test_stage1_sampled_conv3_trains_like_the_dense_encoder(dataset, monkeypatch):
    # float64 parameters, so that the two summation orders agree to 1e-10
    init = EncoderParams2D.initialize
    widened = SimpleNamespace(initialize=lambda *a: float64_params(init(*a)))
    monkeypatch.setattr(pipeline, "EncoderParams2D", widened)
    sampled, dense = train_sampled_and_dense(dataset, monkeypatch)
    for name in sampled:
        assert np.allclose(sampled[name], dense[name], rtol=0.0, atol=1e-10), name


def test_stage1_sampled_conv3_trains_like_the_dense_encoder_in_float32(dataset, monkeypatch):
    # float32 GEMMs sum in another order at each of the two; after 3 steps
    # they differ by about 5 float32 eps of the largest entry
    sampled, dense = train_sampled_and_dense(dataset, monkeypatch)
    for name in sampled:
        assert sampled[name].dtype == (np.float32 if name.startswith("enc.") else np.float64)
        atol = 64 * np.finfo(np.float32).eps * np.abs(dense[name]).max()
        assert np.allclose(sampled[name], dense[name], rtol=0.0, atol=atol), name


def step_gradient_error(dataset, monkeypatch, run, encoder, **extra):
    """Max relative error, at 30 coordinates, between the gradient the first
    step hands to the optimiser and finite differences of that step's loss
    as a function of the initial parameters. The loss is differenced per
    query, then summed: the step's total, about 1e3, rounds f+ - f- to
    about 1e-13, which over 2 eps is 5e-8, near the smallest gradients."""
    grads = {}
    per_query = []
    monkeypatch.setattr(pipeline, "sgd_step", lambda params, g, state, lr0: grads.update(g) or 0.0)
    info_nce = pipeline.info_nce

    def recording(*args, **kwargs):
        out = info_nce(*args, **kwargs)
        per_query.append(out.per_query)
        return out

    monkeypatch.setattr(pipeline, "info_nce", recording)

    def loss_fn(tensors):
        part = {"enc": {}, "head": {}}
        for name, value in tensors.items():
            prefix, field = name.split(".")
            part[prefix][field] = value
        enc = encoder.from_tensors(part["enc"], **extra)
        head = HeadParams.from_tensors(part["head"])
        monkeypatch.setattr(pipeline, encoder.__name__, SimpleNamespace(initialize=lambda *a: enc))
        monkeypatch.setattr(pipeline, "HeadParams", SimpleNamespace(initialize=lambda *a: head))
        per_query.clear()
        run(dataset, iterations=1)
        return per_query[0], dict(grads)

    start, _ = run(dataset, iterations=1)  # the stub step leaves them initial
    return gradient_check(loss_fn, start, eps=1e-6, rng_seed=3, n_coords=30)


def test_stage1_step_peak_stays_below_30_mib():
    # one iteration at the benchmark's stage-1 sizes: 8 pairs of 64x64
    # views, 512 pixels each, 16 channels. Under pytest 21.0 MiB, when the
    # encoder's backward writes each gradient over its activation and the
    # step drops each array once read; 22.5 when the slots' float64 views
    # live through the backward. The bound lies between the two. A script
    # outside pytest reads both 1.1 MiB higher (22.1 and 23.6).
    rng = np.random.default_rng(31)
    images = [Image(rng.uniform(0.0, 1.0, size=(64, 64, 3))) for _ in range(16)]
    cfg = pipeline.Stage1Config(
        batch_pairs=8,
        pixels_per_pair=512,
        negative_cap=512,
        iterations=1,
        spec_a=pipeline.default_spec_2d((64, 64)),
        spec_b=pipeline.default_spec_2d((64, 64)),
        seed=32,
    )
    tracemalloc.start()
    try:
        pipeline.pretrain_2d(images, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2**20


def test_stage1_cap_above_the_batch_scores_all_in_batch(dataset, monkeypatch):
    real = pipeline.info_nce
    calls = []

    def recording(queries, positives, *args, **kwargs):
        out = real(queries, positives, *args, **kwargs)
        calls.append((queries, positives, out.total))
        return out

    monkeypatch.setattr(pipeline, "info_nce", recording)
    _, report = run_stage1(dataset, negative_cap=10**6, iterations=1)
    queries, positives, total = calls[0]
    rows = np.concatenate([queries, positives])
    whole, _ = pipeline._batch_info_nce(rows, slice(0, len(rows)), STAGE1.tau)
    assert total == pytest.approx(whole.total, rel=1e-12, abs=0.0)
    assert report.loss_history[0] == total


@pytest.mark.parametrize("cap", [None, 0, 2.5])
def test_stage1_negative_cap_must_be_a_positive_int(cap):
    with pytest.raises(ValueError, match="^negative_cap must be an int >= 1$"):
        pipeline.Stage1Config(negative_cap=cap)


def test_stage1_step_gradient_matches_finite_differences(dataset, monkeypatch):
    assert step_gradient_error(dataset, monkeypatch, run_stage1, EncoderParams2D) < 1e-4


def test_stage1_starved_iteration_names_it(dataset, monkeypatch):
    def never_overlap(*args):
        raise EmptyOverlap("no source coordinates coincide within 0.5 px")

    monkeypatch.setattr(pipeline, "match_positive_pixels", never_overlap)
    with pytest.raises(IterationStarved, match="iteration 0:"):
        run_stage1(dataset)


def test_stage1_slot_replays_from_seed_iteration_and_slot(dataset, monkeypatch):
    """A slot's positive pixels are rebuilt outside the run from the image
    its iteration picked and the slot's stream, rng_for(seed, "stage1",
    it).spawn(batch_pairs)[k]: view a, view b, then the match, drawn on
    from that stream until two views overlap."""
    real = pipeline.match_positive_pixels
    matched = []

    def recording(*args):
        matched.append(real(*args))  # a retried slot's EmptyOverlap records nothing
        return matched[-1]

    monkeypatch.setattr(pipeline, "match_positive_pixels", recording)
    _, report = run_stage1(dataset)
    assert report.skipped == 0  # so slot k of iteration it is match it * batch_pairs + k

    cfg, it, k = STAGE1, 1, 2
    picks = rng_for(cfg.seed, "stage1", it).integers(0, len(dataset), size=cfg.batch_pairs)
    rng = rng_for(cfg.seed, "stage1", it).spawn(cfg.batch_pairs)[k]
    img = dataset[int(picks[k])].image
    for _ in range(pipeline.MAX_PAIR_RETRIES):
        _, map_a = augment_image(img, cfg.spec_a, rng)
        _, map_b = augment_image(img, cfg.spec_b, rng)
        try:
            pix_a, pix_b = match_positive_pixels(map_a, map_b, cfg.pixels_per_pair, rng)
        except EmptyOverlap:
            continue
        break
    got_a, got_b = matched[it * cfg.batch_pairs + k]
    assert pix_a.shape == (cfg.pixels_per_pair, 2)
    assert np.array_equal(got_a, pix_a) and np.array_equal(got_b, pix_b)


def run_stage2(dataset, **changes):
    frozen = (EncoderParams2D.initialize(5, DIMS), HeadParams.initialize(5, DIMS, DIMS))
    enc, head, report = pipeline.pretrain_3d(dataset, frozen, replace(STAGE2, **changes))
    return tensors_of(enc, head), report


NEGATIVE_SOURCES = [pipeline.POINTS_ONLY, pipeline.POINTS_AND_PIXELS]


@pytest.mark.parametrize("source", NEGATIVE_SOURCES)
def test_two_runs_are_bit_identical(dataset, source):
    first, report_a = run_stage2(dataset, negative_source=source)
    second, report_b = run_stage2(dataset, negative_source=source)
    assert checkpoint_checksum(first) == checkpoint_checksum(second)
    assert np.array_equal(report_a.loss_history, report_b.loss_history)
    assert np.all(np.isfinite(report_a.loss_history))


def test_frozen_model_is_untouched(dataset):
    _, report = run_stage2(dataset)
    assert report.frozen_checksum_start is not None
    assert report.frozen_checksum_start == report.frozen_checksum_end


def test_neighbour_tables_train_like_an_exact_search(dataset, monkeypatch):
    reused, _ = run_stage2(dataset)
    searched = []

    def search_survivors(table, table_rows, index_map, positions, k, points):
        searched.append(k)
        return knn_indices(positions[index_map >= 0], k)[index_map[points]]

    monkeypatch.setattr(pipeline, "knn_from_table", search_survivors)
    assert checkpoint_checksum(run_stage2(dataset)[0]) == checkpoint_checksum(reused)
    assert searched


@pytest.mark.parametrize("seed", [0, 1])
def test_neighbour_tables_match_brute_force_on_a_voxelised_scene(seed):
    """Stage 2's table path on a benchmark-like scan, about 600 voxels at
    0.05 m: the table at the union of both cameras' z-buffer winners, and
    the neighbours it gives among a slot's survivors of the default
    augmentation, equal an exhaustive search."""
    k = 8
    scene = generate_scene(SceneConfig(n_points=600, image_size=(64, 64), seed=seed))
    scan = voxelize(scene.cloud, 0.05).cloud
    pos = scan.positions
    assert 550 < len(scan) <= 600
    winners = [build_correspondences(scan, v.pose, v.intrinsics).point_index for v in scene.cameras]
    rows = np.union1d(*winners)
    table = knn_indices(pos, pipeline.NEIGHBOUR_TABLE_FACTOR * k, by_distance=True, rows=rows)
    assert np.array_equal(table, brute_knn(pos, pipeline.NEIGHBOUR_TABLE_FACTOR * k, by_distance=True)[rows])

    _, index_map = augment_cloud(scan, pipeline.default_spec_3d(), rng_for(seed, "dropout"))
    survivors = index_map >= 0
    assert 0 < (~survivors).sum() and survivors.sum() > k
    points = winners[0][survivors[winners[0]]]
    got = knn_from_table(table, rows, index_map, pos, k, points)
    assert np.array_equal(got, brute_knn(pos[survivors], k)[index_map[points]])


def with_own_clouds(dataset):
    """The same pairs, each holding its own equal copy of its cloud."""
    return [
        replace(pair, cloud=PointCloud(pair.cloud.positions, pair.cloud.colors, pair.cloud.labels))
        for pair in dataset
    ]


def test_pairs_sharing_a_cloud_train_like_pairs_with_copies(dataset):
    shared, report_shared = run_stage2(dataset)
    copied, report_copied = run_stage2(with_own_clouds(dataset))
    assert checkpoint_checksum(copied) == checkpoint_checksum(shared)
    assert np.array_equal(report_copied.loss_history, report_shared.loss_history)


@pytest.mark.parametrize("own_clouds", [False, True], ids=["shared", "copied"])
def test_each_cloud_is_voxelised_and_searched_once(dataset, monkeypatch, own_clouds):
    data = with_own_clouds(dataset) if own_clouds else dataset
    voxelised, searched = [], []

    def counting_voxelize(cloud, size):
        voxelised.append(id(cloud))
        return voxelize(cloud, size)

    def counting_knn(positions, k, by_distance=False, rows=None):
        searched.append((positions, rows))
        return knn_indices(positions, k, by_distance, rows)

    monkeypatch.setattr(pipeline, "voxelize", counting_voxelize)
    monkeypatch.setattr(pipeline, "knn_indices", counting_knn)
    run_stage2(data)
    picked = {
        int(i)
        for it in range(STAGE2.iterations)
        for i in rng_for(STAGE2.seed, "stage2", it).integers(0, len(data), size=STAGE2.batch_pairs)
    }
    clouds = {id(pair.cloud) for pair in data}
    picked_clouds = {id(data[i].cloud) for i in picked}
    assert sorted(voxelised) == sorted(clouds)
    assert len(searched) == len(picked_clouds)
    # each table has a row for each z-buffer winner of its scan's pairs, only
    unions = {}
    for pair in data:
        scan = voxelize(pair.cloud, STAGE2.voxel_size).cloud
        winners = build_correspondences(scan, pair.pose, pair.intrinsics).point_index
        union = np.union1d(unions.get(id(pair.cloud), (None, winners))[1], winners)
        unions[id(pair.cloud)] = (scan.positions, union)
    expected = [unions[c] for c in picked_clouds]
    for positions, rows in searched:
        assert rows.size < len(positions)
        assert sum(np.array_equal(positions, p) and np.array_equal(rows, u) for p, u in expected) == 1
    if not own_clouds:  # two pairs of one scan were picked, so a table was shared
        assert len(clouds) < len(data) and len(picked_clouds) < len(picked)


def test_frozen_embeddings_are_the_dense_encoders_at_the_winners(dataset):
    enc2d, head2d = EncoderParams2D.initialize(5, DIMS), HeadParams.initialize(5, DIMS, DIMS)
    pair = dataset[0]
    scan = voxelize(pair.cloud, STAGE2.voxel_size).cloud
    point_index, targets = pipeline.frozen_pixel_embeddings(enc2d, head2d, pair, scan)
    corrs = build_correspondences(scan, pair.pose, pair.intrinsics)
    feats, _ = encode_images_forward(enc2d, np.asarray(pair.image.pixels)[None])
    want, _ = head_forward(head2d, feats[0, corrs.pixel_row, corrs.pixel_column])
    assert np.array_equal(point_index, corrs.point_index) and len(point_index) > 0
    assert np.array_equal(targets, want)
    # a camera every point of the scan lies behind
    away = replace(pair, pose=Pose(np.eye(3), np.array([0.0, 0.0, -1e3])))
    assert len(build_correspondences(scan, away.pose, away.intrinsics)) == 0
    point_index, targets = pipeline.frozen_pixel_embeddings(enc2d, head2d, away, scan)
    assert point_index.shape == (0,) and targets.shape == (0, DIMS)


@pytest.mark.parametrize("iterations", [1, 4])
def test_each_pair_is_matched_once(dataset, monkeypatch, iterations):
    matched = []

    def counting(cloud, pose, intr):
        matched.append(pose)
        return build_correspondences(cloud, pose, intr)

    monkeypatch.setattr(pipeline, "build_correspondences", counting)
    run_stage2(dataset, iterations=iterations)
    assert [id(pose) for pose in matched] == [id(pair.pose) for pair in dataset]


def test_slot_matches_are_the_scans_surviving_z_buffer_winners(dataset, monkeypatch):
    """Under heavy dropout, every sampled point is a z-buffer winner of the
    un-augmented voxelised scan that survived, and its positive is the
    frozen embedding at that winner's pixel."""
    index_maps, rows, positives = [], [], []
    augment, forward, loss = pipeline.augment_cloud, pipeline.point_forward, pipeline.info_nce

    def recording_augment(*args):
        out = augment(*args)
        index_maps.append(out[1])
        return out

    def recording_forward(*args):
        rows.append(args[-1])
        return forward(*args)

    def recording_loss(queries, pos, *args, **kwargs):
        positives.append(pos)
        return loss(queries, pos, *args, **kwargs)

    monkeypatch.setattr(pipeline, "augment_cloud", recording_augment)
    monkeypatch.setattr(pipeline, "point_forward", recording_forward)
    monkeypatch.setattr(pipeline, "info_nce", recording_loss)
    spec = TransformSpec3D((RotationZ((0.0, 6.0)), PointDropout(0.5)))
    _, report = run_stage2(dataset, spec3d=spec)
    assert report.skipped == 0  # so slot j of the run is the j-th of each record

    enc2d, head2d = EncoderParams2D.initialize(5, DIMS), HeadParams.initialize(5, DIMS, DIMS)
    pixel_of = []  # per pair: winning point -> (row, column) of its pixel
    zmaps = []
    for pair in dataset:
        scan = voxelize(pair.cloud, STAGE2.voxel_size).cloud
        corrs = build_correspondences(scan, pair.pose, pair.intrinsics)
        pixels = zip(corrs.pixel_row, corrs.pixel_column)
        pixel_of.append(dict(zip(corrs.point_index.tolist(), pixels)))
        feats, _ = encode_images_forward(enc2d, np.asarray(pair.image.pixels)[None])
        z, _ = head_forward(head2d, feats.reshape(-1, DIMS))
        zmaps.append(z.reshape(feats.shape[1], feats.shape[2], DIMS))

    slot = 0
    for it in range(STAGE2.iterations):
        picks = rng_for(STAGE2.seed, "stage2", it).integers(0, len(dataset), size=STAGE2.batch_pairs)
        offset = 0
        for pair_idx in picks:
            index_map, slot_rows = index_maps[slot], rows[slot]
            originals = np.flatnonzero(index_map >= 0)[slot_rows]  # each survived dropout
            slot_positives = positives[it][offset : offset + len(slot_rows)]
            for point, pos in zip(originals.tolist(), slot_positives):
                assert point in pixel_of[pair_idx]  # a z-buffer winner of the scan
                r, c = pixel_of[pair_idx][point]
                assert np.allclose(pos, zmaps[pair_idx][r, c], rtol=0.0, atol=1e-12)
            offset += len(slot_rows)
            slot += 1
        assert offset == len(positives[it])
    assert slot == len(rows) == len(index_maps)


def test_stage2_slot_replays_from_seed_iteration_and_slot(dataset, monkeypatch):
    """A slot's rows and positives are rebuilt outside the run from the
    pair its iteration picked and the slot's stream, rng_for(seed,
    "stage2", it).spawn(batch_pairs)[k]: the augmentation, then the pick."""
    forward, loss = pipeline.point_forward, pipeline.info_nce
    fed, positives = [], []

    def recording_forward(enc, positions, colors, nb, rows):
        fed.append((positions, colors, rows))
        return forward(enc, positions, colors, nb, rows)

    def recording_loss(queries, pos, *args, **kwargs):
        positives.append(pos)
        return loss(queries, pos, *args, **kwargs)

    monkeypatch.setattr(pipeline, "point_forward", recording_forward)
    monkeypatch.setattr(pipeline, "info_nce", recording_loss)
    _, report = run_stage2(dataset)
    assert report.skipped == 0  # so slot k of iteration it is call it * batch_pairs + k

    cfg, it, k = STAGE2, 2, 1
    picks = rng_for(cfg.seed, "stage2", it).integers(0, len(dataset), size=cfg.batch_pairs)
    pair = dataset[int(picks[k])]
    scan = voxelize(pair.cloud, cfg.voxel_size).cloud
    frozen = (EncoderParams2D.initialize(5, DIMS), HeadParams.initialize(5, DIMS, DIMS))
    point_index, targets = pipeline.frozen_pixel_embeddings(*frozen, pair, scan)
    rng = rng_for(cfg.seed, "stage2", it).spawn(cfg.batch_pairs)[k]
    cloud, index_map = augment_cloud(scan, cfg.spec3d, rng)
    rows = index_map[point_index]
    alive = np.flatnonzero(rows >= 0)
    n_take = min(cfg.correspondences_per_pair, alive.size)
    pick = alive[rng.choice(alive.size, size=n_take, replace=False)]

    slot = it * cfg.batch_pairs + k
    positions, colors, got_rows = fed[slot]
    offset = sum(len(r) for _, _, r in fed[it * cfg.batch_pairs : slot])
    assert np.array_equal(positions, cloud.positions) and np.array_equal(colors, cloud.colors)
    assert n_take == cfg.correspondences_per_pair and np.array_equal(got_rows, rows[pick])
    assert np.array_equal(positives[it][offset : offset + n_take], targets[pick])


@pytest.mark.parametrize("source", NEGATIVE_SOURCES)
def test_stage2_step_gradient_matches_finite_differences(dataset, monkeypatch, source):
    run = partial(run_stage2, negative_source=source)
    error = step_gradient_error(dataset, monkeypatch, run, EncoderParams3D, k=STAGE2.knn)
    assert error < 1e-4


def camera(**changes):
    return CameraIntrinsics(**{"fx": 8.0, "fy": 8.0, "cx": 0.0, "cy": 0.0, "width": 16, "height": 16, **changes})


CONFIGS = {1: pipeline.Stage1Config, 2: pipeline.Stage2Config, "scene": SceneConfig, "camera": camera}
COUNTS = [
    (1, "iterations", 1),
    (2, "iterations", 1),
    (2, "batch_pairs", 1),
    (1, "batch_pairs", 1),
    (1, "pixels_per_pair", 2),
    (1, "feature_dim", 1),
    (1, "embed_dim", 1),
    (1, "negative_cap", 1),
    (2, "correspondences_per_pair", 2),
    (2, "feature_dim", 1),
    (2, "embed_dim", 1),
    (2, "knn", 1),
    ("scene", "n_objects", 0),
    ("scene", "n_points", 100),
    ("scene", "n_cameras", 1),
    ("camera", "width", 1),
    ("camera", "height", 1),
]


@pytest.mark.parametrize(
    "config, field, least",
    COUNTS,
    ids=[f"stage{c}-{field}" if c in (1, 2) else f"{c}-{field}" for c, field, _ in COUNTS],
)
def test_config_rejects_counts_below_one(config, field, least):
    """Every count of a stage config, the scene config and the camera is
    an int of at least least (1, or 2 for a pair's pixels or
    correspondences, 0 boxes, 100 points); a float is rejected even when
    it holds a whole number, and so is a bool."""
    for value in (least - 1, -1, least + 0.5, float(least), True):
        with pytest.raises(InvalidInput, match=f"^{field} must be an int >= {least}$"):
            CONFIGS[config](**{field: value})


@pytest.mark.parametrize(
    "make",
    [
        lambda: pipeline.Stage1Config(pixels_per_pair=1),
        lambda: pipeline.Stage1Config(negative_cap=0),
        lambda: pipeline.Stage2Config(correspondences_per_pair=1),
        lambda: pipeline.Stage2Config(negative_source="pixels_only"),
        lambda: pipeline.Stage2Config(voxel_size=float("nan")),
        lambda: pipeline.Stage1Config(tau=0.0),
        lambda: pipeline.Stage2Config(tau=2.0),
        lambda: pipeline.Stage2Config(knn=0),
        lambda: pipeline.Stage1Config(feature_dim=0),
        lambda: pipeline.Stage2Config(feature_dim=0),
        lambda: pipeline.Stage1Config(embed_dim=0),
        lambda: pipeline.Stage2Config(embed_dim=32),
        lambda: RandomResizedCrop(scale_range=(0.0, 1.0), out_size=(8, 8)),
        lambda: HorizontalFlip(p=1.5),
        lambda: ColorJitter(brightness=(1.2, 0.8)),
        lambda: Grayscale(p=-0.1),
        lambda: TransformSpec2D((RotationZ(),)),
        lambda: RotationZ(angle_range=(0.0, 7.0)),
        lambda: PointDropout(keep_prob=0.0),
        lambda: TransformSpec3D((HorizontalFlip(),)),
        lambda: pipeline.Stage1Config(lr0=-0.1),
        lambda: pipeline.Stage2Config(lr0=float("inf")),
        lambda: lr_schedule(-1, 0.1),
        lambda: SceneConfig(n_points=99),
        lambda: SceneConfig(n_cameras=0),
        lambda: SceneConfig(n_objects=-1),
        lambda: SceneConfig(image_size=(2, 64)),
    ],
    ids=[
        "Stage1Config",
        "Stage1Config-cap",
        "Stage2Config",
        "Stage2Config-negatives",
        "Stage2Config-voxel",
        "Stage1Config-tau",
        "Stage2Config-tau",
        "Stage2Config-knn",
        "Stage1Config-feature_dim",
        "Stage2Config-feature_dim",
        "Stage1Config-embed_dim",
        "Stage2Config-embed_dim",
        "RandomResizedCrop",
        "HorizontalFlip",
        "ColorJitter",
        "Grayscale",
        "TransformSpec2D",
        "RotationZ",
        "PointDropout",
        "TransformSpec3D",
        "Stage1Config-lr0",
        "Stage2Config-lr0",
        "lr_schedule",
        "SceneConfig-n_points",
        "SceneConfig-n_cameras",
        "SceneConfig-n_objects",
        "SceneConfig-image_size",
    ],
)
def test_configs_and_transforms_raise_a_pixpoint_error(make):
    with pytest.raises(PixpointError):
        make()


def test_drivers_reject_an_empty_dataset():
    frozen = (EncoderParams2D.initialize(5, DIMS), HeadParams.initialize(5, DIMS, DIMS))
    with pytest.raises(InvalidInput, match="^dataset must be nonempty$"):
        pipeline.pretrain_2d([], STAGE1)
    with pytest.raises(InvalidInput, match="^dataset must be nonempty$"):
        pipeline.pretrain_3d([], frozen, STAGE2)


def test_scene_pair_rejects_image_of_another_size(dataset):
    pair = dataset[0]
    assert (pair.image.width, pair.image.height) == (24, 24)
    small = CameraIntrinsics(fx=8.0, fy=8.0, cx=8.0, cy=8.0, width=16, height=16)
    with pytest.raises(ValueError, match="24x24.*16x16"):
        pipeline.ScenePair(pair.cloud, pair.image, pair.pose, small)
    with pytest.raises(ValueError):
        pipeline.ScenePair(pair.cloud, Image(np.zeros((24, 16, 3))), pair.pose, pair.intrinsics)


def raise_empty_overlap(real, *args):
    raise EmptyOverlap("injected")


def raise_empty_cloud(real, *args):
    raise EmptyCloud("injected")


def keep_at_most_one_match(real, *args):
    """The real augmentation, with every point but the first dropped from
    the index map: a slot keeps at most one of its scan's matches."""
    out, index_map = real(*args)
    index_map[1:] = -1
    return out, index_map


@pytest.mark.parametrize(
    "run, cfg, name, failures, fail",
    [
        # the first pair of iteration 0 fails every retry
        (run_stage1, STAGE1, "match_positive_pixels", pipeline.MAX_PAIR_RETRIES, raise_empty_overlap),
        (run_stage2, STAGE2, "augment_cloud", 1, raise_empty_cloud),
        (run_stage2, STAGE2, "augment_cloud", 1, keep_at_most_one_match),
    ],
    ids=["stage1", "stage2", "stage2-one-winner"],
)
def test_skipped_slot_is_counted(dataset, monkeypatch, run, cfg, name, failures, fail):
    real = getattr(pipeline, name)
    calls = []

    def fail_first_calls(*args):
        calls.append(None)
        if len(calls) <= failures:
            return fail(real, *args)
        return real(*args)

    monkeypatch.setattr(pipeline, name, fail_first_calls)
    monkeypatch.setattr(optim, "DECAY_EVERY", 1)  # a new rate at every step
    _, report = run(dataset)
    assert report.skipped == 1
    for it in range(report.iterations()):
        assert report.lr_history[it] == lr_schedule(it, cfg.lr0)
    assert len(set(report.lr_history)) == report.iterations()


@pytest.mark.parametrize(
    "stage, run, seed, what",
    [(1, run_stage1, STAGE1.seed, "image"), (2, run_stage2, STAGE2.seed, "pair")],
)
def test_non_finite_loss_names_its_batch(dataset, monkeypatch, stage, run, seed, what):
    real = pipeline.info_nce
    calls = []

    def fail_at_second_iteration(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise FloatingPointError("non-finite loss")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "info_nce", fail_at_second_iteration)
    picks = rng_for(seed, f"stage{stage}", 1).integers(0, len(dataset), size=3)
    expect = (
        f"stage {stage} iteration 1: non-finite loss; "
        f"replay with seed={seed}, {what} indices {picks.tolist()}"
    )
    with pytest.raises(NonFiniteLoss, match=re.escape(expect)):
        run(dataset)


@pytest.mark.parametrize(
    "run, changes, width",
    [
        (run_stage1, {}, lambda n: min(STAGE1.negative_cap, 2 * n)),
        (run_stage2, {"negative_source": pipeline.POINTS_ONLY}, lambda n: n),
        (run_stage2, {"negative_source": pipeline.POINTS_AND_PIXELS}, lambda n: 2 * n),
    ],
    ids=["stage1", "stage2-points_only", "stage2-points_and_pixels"],
)
def test_info_nce_takes_its_config_fourth_with_the_pool_width(dataset, monkeypatch, run, changes, width):
    """bench/tracer.py reads each call's pool width as args[3].negatives."""
    real = pipeline.info_nce
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "info_nce", recording)
    run(dataset, iterations=2, **changes)
    assert len(calls) == 2
    for queries, _, pool, cfg in calls:
        assert type(cfg) is LossConfig and type(cfg.negatives) is int
        assert cfg.negatives == pool.shape[0] == width(queries.shape[0])
