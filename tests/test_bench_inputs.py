"""The benchmark's inputs still build from this library.

bench/workloads.py is imported as it stands and builds every workload's
scene and stage configs and frozen model; the names that bench/ reads
from the library are checked to exist with the signatures it relies on.
A renamed or deleted config field or function would otherwise break
only the benchmark.
"""

import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from pixpoint import pipeline
from pixpoint.loss import LossConfig
from pixpoint.synthdata import SceneConfig

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_workload_builds_its_inputs(workloads):
    assert workloads.WORKLOADS
    for wl in workloads.WORKLOADS.values():
        scenes = workloads.scene_configs(wl, seed=1)
        assert len(scenes) == wl.n_scenes
        assert all(isinstance(cfg, SceneConfig) and cfg.n_cameras * len(scenes) == wl.n_pairs for cfg in scenes)
        assert isinstance(workloads.stage1_config(wl, 1), pipeline.Stage1Config)
        assert isinstance(workloads.stage2_config(wl, 1), pipeline.Stage2Config)
        enc, head = workloads.frozen_model(wl, 1)
        assert (enc.feature_dim, head.embed_dim) == (wl.dims, wl.dims)


def test_the_names_the_harness_reads_exist():
    # bench/tracer.py reads each info_nce call's LossConfig as its fourth
    # positional argument, and the pool's row count from cfg.negatives
    assert list(inspect.signature(pipeline.info_nce).parameters)[:4] == [
        "queries",
        "positives",
        "negatives",
        "cfg",
    ]
    assert "negatives" in {f.name for f in fields(LossConfig)}
    assert callable(pipeline.pairs_from_scene)
    assert callable(pipeline.default_spec_2d)
