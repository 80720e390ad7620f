"""Both training stages run end to end on tiny configurations.

Stage 1: determinism, that computing conv3 only at the sampled pixels
trains as the dense encoder does, a finite-difference check of one whole
step's gradient, and the starved-iteration error.
Stage 2: determinism, the untouched frozen stage-1 model, and that reading
kNN from the per-scene neighbour tables trains exactly as an exact search
of every slot's surviving points would.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pixpoint import pipeline
from pixpoint.errors import EmptyOverlap, IterationStarved
from pixpoint.nn import (
    EncoderParams2D,
    HeadParams,
    checkpoint_checksum,
    gradient_check,
    knn_indices,
)
from pixpoint.synthdata import SceneConfig, generate_scene

DIMS = 8


@pytest.fixture(scope="module")
def dataset():
    scenes = [
        generate_scene(SceneConfig(n_points=400, image_size=(24, 24), seed=s)) for s in (3, 4)
    ]
    return [pair for scene in scenes for pair in pipeline.pairs_from_scene(scene)]


def run_stage1(dataset, iterations=3):
    cfg = pipeline.Stage1Config(
        batch_pairs=3,
        pixels_per_pair=96,
        iterations=iterations,
        spec_a=pipeline.default_spec_2d((24, 24)),
        spec_b=pipeline.default_spec_2d((24, 24)),
        feature_dim=DIMS,
        embed_dim=DIMS,
        negative_cap=64,
        seed=2,
    )
    images = [pair.image for pair in dataset]
    enc, head, report = pipeline.pretrain_2d(images, cfg)
    params = {f"enc.{k}": v for k, v in enc.tensors().items()}
    params.update({f"head.{k}": v for k, v in head.tensors().items()})
    return params, report


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
        return feats.reshape(-1, feats.shape[-1])[at], (cache, at)

    def scatter_then_backward(params, cache_at, grad_rows):
        cache, at = cache_at
        grad = np.zeros(cache["a2"].shape[:3] + (grad_rows.shape[1],))
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


def test_stage1_step_gradient_matches_finite_differences(dataset, monkeypatch):
    # the first step's loss as a function of the initial parameters, with
    # the gradient the step hands to the optimiser
    grads = {}
    monkeypatch.setattr(pipeline, "sgd_step", lambda params, g, state, cfg: grads.update(g) or 0.0)

    def loss_fn(tensors):
        part = {"enc": {}, "head": {}}
        for name, value in tensors.items():
            prefix, field = name.split(".")
            part[prefix][field] = value
        enc, head = EncoderParams2D.from_tensors(part["enc"]), HeadParams.from_tensors(part["head"])
        monkeypatch.setattr(pipeline, "EncoderParams2D", SimpleNamespace(initialize=lambda *a: enc))
        monkeypatch.setattr(pipeline, "HeadParams", SimpleNamespace(initialize=lambda *a: head))
        _, report = run_stage1(dataset, iterations=1)
        return float(report.loss_history[0]), dict(grads)

    start, _ = run_stage1(dataset, iterations=1)  # the stub step leaves them initial
    assert gradient_check(loss_fn, start, eps=1e-6, rng_seed=3, n_coords=30) < 1e-4


def test_stage1_starved_iteration_names_it(dataset, monkeypatch):
    def never_overlap(*args):
        raise EmptyOverlap("no source coordinates coincide within 0.5 px")

    monkeypatch.setattr(pipeline, "match_positive_pixels", never_overlap)
    with pytest.raises(IterationStarved, match="iteration 0:"):
        run_stage1(dataset)


def run_stage2(dataset):
    frozen = (EncoderParams2D.initialize(5, DIMS), HeadParams.initialize(5, DIMS, DIMS))
    cfg = pipeline.Stage2Config(
        batch_pairs=3,
        correspondences_per_pair=32,
        voxel_size=0.1,
        iterations=4,
        feature_dim=DIMS,
        embed_dim=DIMS,
        knn=4,
        seed=6,
    )
    enc, head, report = pipeline.pretrain_3d(dataset, frozen, cfg)
    params = {f"enc.{k}": v for k, v in enc.tensors().items()}
    params.update({f"head.{k}": v for k, v in head.tensors().items()})
    return checkpoint_checksum(params), report


def test_two_runs_are_bit_identical(dataset):
    first, report_a = run_stage2(dataset)
    second, report_b = run_stage2(dataset)
    assert first == second
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
    assert run_stage2(dataset)[0] == reused
    assert searched
