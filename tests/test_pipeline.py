"""Both training stages run end to end on tiny configurations.

Stage 1: determinism, that computing conv3 only at the sampled pixels
trains as the dense encoder does, and the starved-iteration error.
Stage 2: determinism, the untouched frozen stage-1 model, that reading kNN
from the per-scan neighbour tables trains exactly as an exact search of
every slot's surviving points would, and that pairs sharing one scan share
its voxelisation and table yet train as pairs holding copies do.
Both: config validation, a finite-difference check of one whole step's
gradient, skipped slots counted with the learning rate still following
the schedule, and a non-finite loss naming the batch that produced it.
"""

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from gradcheck import gradient_check

from pixpoint import pipeline
from pixpoint.errors import EmptyCloud, EmptyOverlap, IterationStarved, NonFiniteLoss
from pixpoint.geometry import CameraIntrinsics, Image, PointCloud, voxelize
from pixpoint.nn import (
    EncoderParams2D,
    EncoderParams3D,
    HeadParams,
    checkpoint_checksum,
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


def test_two_runs_are_bit_identical(dataset):
    first, report_a = run_stage2(dataset)
    second, report_b = run_stage2(dataset)
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

    def search_survivors(table, index_map, positions, k):
        searched.append(k)
        return knn_indices(positions[index_map >= 0], k)

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

    def counting_knn(positions, k, by_distance=False):
        searched.append(k)
        return knn_indices(positions, k, by_distance)

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
    if not own_clouds:  # two pairs of one scan were picked, so a table was shared
        assert len(clouds) < len(data) and len(picked_clouds) < len(picked)


def test_stage2_step_gradient_matches_finite_differences(dataset, monkeypatch):
    error = step_gradient_error(dataset, monkeypatch, run_stage2, EncoderParams3D, k=STAGE2.knn)
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
    [(1, run_stage1, STAGE1.seed, "image"), (2, run_stage2, STAGE2.seed, "scene")],
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
