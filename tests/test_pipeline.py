"""Stage-2 training runs end to end on a tiny configuration.

Checks determinism, the untouched frozen stage-1 model, and that reading
kNN from the per-scene neighbour tables trains exactly as an exact search
of every slot's surviving points would.
"""

import numpy as np
import pytest

from pixpoint import pipeline
from pixpoint.nn import EncoderParams2D, HeadParams, checkpoint_checksum, knn_indices
from pixpoint.synthdata import SceneConfig, generate_scene

DIMS = 8


@pytest.fixture(scope="module")
def dataset():
    scenes = [
        generate_scene(SceneConfig(n_points=400, image_size=(24, 24), seed=s)) for s in (3, 4)
    ]
    return [pair for scene in scenes for pair in pipeline.pairs_from_scene(scene)]


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
