"""Both training stages run end to end on tiny configurations.

Stage 1: determinism, that computing conv3 only at the sampled pixels
trains as the dense encoder does, that a negative cap above the batch
scores as the pool of all the batch's rows does, and the
starved-iteration error.
Stage 2: determinism in both negative_source modes, the untouched frozen
stage-1 model, that reading kNN
from the per-scan neighbour tables trains exactly as an exact search of
every slot's surviving points would, that pairs sharing one scan share
its voxelisation and table yet train as pairs holding copies do, and that
each pair is matched once: a slot's matches are the scan's own z-buffer
winners that survive dropout, with the frozen embeddings at their pixels.
Both: config validation, a finite-difference check of one whole step's
gradient (stage 2 in both modes), skipped slots counted with the learning
rate still following the schedule, a non-finite loss naming the batch
that produced it, and each info_nce call taking its LossConfig as the
fourth positional argument with the pool's row count, which
bench/tracer.py reads.
"""

import re
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from gradcheck import gradient_check

from pixpoint import pipeline
from pixpoint.augment import (
    ColorJitter,
    Grayscale,
    HorizontalFlip,
    PointDropout,
    RandomResizedCrop,
    RotationZ,
    TransformSpec2D,
    TransformSpec3D,
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
    knn_indices,
)
from pixpoint.optim import OptimConfig, lr_schedule
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


def test_stage1_sampled_conv3_trains_like_the_dense_encoder(dataset, monkeypatch):
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
    for name in sampled:
        assert np.allclose(sampled[name], dense[name], rtol=0.0, atol=1e-10), name


def step_gradient_error(dataset, monkeypatch, run, encoder, **extra):
    """Max relative error, at 30 coordinates, between the gradient the first
    step hands to the optimiser and finite differences of that step's loss
    as a function of the initial parameters."""
    grads = {}
    monkeypatch.setattr(pipeline, "sgd_step", lambda params, g, state, cfg: grads.update(g) or 0.0)

    def loss_fn(tensors):
        part = {"enc": {}, "head": {}}
        for name, value in tensors.items():
            prefix, field = name.split(".")
            part[prefix][field] = value
        enc = encoder.from_tensors(part["enc"], **extra)
        head = HeadParams.from_tensors(part["head"])
        monkeypatch.setattr(pipeline, encoder.__name__, SimpleNamespace(initialize=lambda *a: enc))
        monkeypatch.setattr(pipeline, "HeadParams", SimpleNamespace(initialize=lambda *a: head))
        _, report = run(dataset, iterations=1)
        return float(report.loss_history[0]), dict(grads)

    start, _ = run(dataset, iterations=1)  # the stub step leaves them initial
    return gradient_check(loss_fn, start, eps=1e-6, rng_seed=3, n_coords=30)


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
    want, _ = head_forward(head2d, feats[0, corrs.pixel_rows(), corrs.pixel_columns()])
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
        pixels = zip(corrs.pixel_rows(), corrs.pixel_columns())
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


@pytest.mark.parametrize("source", NEGATIVE_SOURCES)
def test_stage2_step_gradient_matches_finite_differences(dataset, monkeypatch, source):
    run = partial(run_stage2, negative_source=source)
    error = step_gradient_error(dataset, monkeypatch, run, EncoderParams3D, k=STAGE2.knn)
    assert error < 1e-4


@pytest.mark.parametrize(
    "config, field",
    [
        (pipeline.Stage1Config, "iterations"),
        (pipeline.Stage2Config, "iterations"),
        (pipeline.Stage2Config, "batch_pairs"),
    ],
    ids=["stage1-iterations", "stage2-iterations", "stage2-batch_pairs"],
)
def test_config_rejects_counts_below_one(config, field):
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            config(**{field: value})


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
        lambda: OptimConfig(lr0=-0.1),
        lambda: OptimConfig(lr0=0.1, momentum=1.0),
        lambda: OptimConfig(lr0=0.1, dampening=1.5),
        lambda: OptimConfig(lr0=0.1, weight_decay=-1e-4),
        lambda: OptimConfig(lr0=0.1, gamma=0.0),
        lambda: OptimConfig(lr0=0.1, decay_every=0),
        lambda: lr_schedule(-1, OptimConfig(lr0=0.1)),
        lambda: SceneConfig(room_extent=(4.0, 0.0, 2.5)),
        lambda: SceneConfig(n_points=99),
        lambda: SceneConfig(n_cameras=0),
        lambda: SceneConfig(palette=((0.5, 0.5, 0.5),) * 3),
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
        "OptimConfig-lr0",
        "OptimConfig-momentum",
        "OptimConfig-dampening",
        "OptimConfig-weight_decay",
        "OptimConfig-gamma",
        "OptimConfig-decay_every",
        "lr_schedule",
        "SceneConfig-room_extent",
        "SceneConfig-n_points",
        "SceneConfig-n_cameras",
        "SceneConfig-palette",
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


@pytest.mark.parametrize(
    "run, cfg, name, failures, error",
    [
        # the first pair of iteration 0 fails every retry
        (run_stage1, STAGE1, "match_positive_pixels", pipeline.MAX_PAIR_RETRIES, EmptyOverlap),
        (run_stage2, STAGE2, "augment_cloud", 1, EmptyCloud),
    ],
    ids=["stage1", "stage2"],
)
def test_skipped_slot_is_counted(dataset, monkeypatch, run, cfg, name, failures, error):
    real = getattr(pipeline, name)
    calls = []

    def fail_first_calls(*args):
        calls.append(None)
        if len(calls) <= failures:
            raise error("injected")
        return real(*args)

    monkeypatch.setattr(pipeline, name, fail_first_calls)
    optim = replace(cfg.optim, decay_every=1)  # a new rate at every step
    _, report = run(dataset, optim=optim)
    assert report.skipped == 1
    for it in range(report.iterations()):
        assert report.lr_history[it] == lr_schedule(it, optim)


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
