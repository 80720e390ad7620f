"""Benchmark workloads and the inputs they generate from a seed.

Every input the program receives (scene configs, training seeds, the
frozen stage-1 model of stage 2) is derived here from the workload seed.
The shape fields are pinned; optimiser settings stay at the library
defaults. Why each workload exists is written in bench/README.md.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from pixpoint import pipeline
from pixpoint.nn import EncoderParams2D, HeadParams
from pixpoint.synthdata import SceneConfig


@dataclass(frozen=True)
class Workload:
    name: str
    stage: int
    # iterations of one training run; fixed so that a seed always yields
    # the same losses and final parameters
    iterations: int
    # percentile reported as iter_tail_s: the highest with 10 iterations
    # beyond it at the sample count of a 36-second run (never below the
    # median). Fixed, so that two commits are compared at the same one.
    tail_percentile: int
    n_points: int = 2048
    negative_source: str = pipeline.POINTS_ONLY
    n_scenes: int = 8
    image_size: int = 64
    batch_pairs: int = 8
    pixels_per_pair: int = 512
    negative_cap: int = 512
    correspondences_per_pair: int = 256
    voxel_size: float = 0.05
    knn: int = 8
    dims: int = 16

    @property
    def n_pairs(self) -> int:
        return 2 * self.n_scenes  # SceneConfig.n_cameras == 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("s1_pixels", stage=1, iterations=12, tail_percentile=70),
        Workload("s2_points", stage=2, iterations=14, tail_percentile=75),
        Workload(
            "s2_dense",
            stage=2,
            iterations=4,
            tail_percentile=50,
            n_points=4096,
            negative_source=pipeline.POINTS_AND_PIXELS,
        ),
    )
}


def sub_seed(seed: int, tag: str, index: int = 0) -> int:
    """Independent 32-bit seed for one input of a workload seed."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(tag.encode()), index])
    return int(ss.generate_state(1)[0])


def scene_configs(wl: Workload, seed: int) -> list:
    size = (wl.image_size, wl.image_size)
    return [
        SceneConfig(n_points=wl.n_points, n_cameras=2, image_size=size, seed=sub_seed(seed, "scene", i))
        for i in range(wl.n_scenes)
    ]


def stage1_config(wl: Workload, seed: int) -> pipeline.Stage1Config:
    spec = pipeline.default_spec_2d((wl.image_size, wl.image_size))
    return pipeline.Stage1Config(
        batch_pairs=wl.batch_pairs,
        pixels_per_pair=wl.pixels_per_pair,
        negative_cap=wl.negative_cap,
        feature_dim=wl.dims,
        embed_dim=wl.dims,
        spec_a=spec,
        spec_b=spec,
        iterations=wl.iterations,
        seed=sub_seed(seed, "train"),
    )


def stage2_config(wl: Workload, seed: int) -> pipeline.Stage2Config:
    return pipeline.Stage2Config(
        batch_pairs=wl.batch_pairs,
        correspondences_per_pair=wl.correspondences_per_pair,
        voxel_size=wl.voxel_size,
        knn=wl.knn,
        feature_dim=wl.dims,
        embed_dim=wl.dims,
        negative_source=wl.negative_source,
        iterations=wl.iterations,
        seed=sub_seed(seed, "train"),
    )


def frozen_model(wl: Workload, seed: int):
    """Seeded, untrained stage-1 model: stage-1 changes never move stage-2 inputs."""
    s = sub_seed(seed, "frozen2d")
    return EncoderParams2D.initialize(s, wl.dims), HeadParams.initialize(s, wl.dims, wl.dims)


def chance_negatives(wl: Workload, queries: float) -> float:
    """Negatives per query K, so that ln(K + 1) is the loss at chance."""
    if wl.stage == 1:
        return wl.negative_cap if wl.negative_cap < 2 * queries else 2 * queries - 2
    if wl.negative_source == pipeline.POINTS_ONLY:
        return queries - 1
    return 2 * queries - 2
