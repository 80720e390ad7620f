"""The benchmark's inputs still build from this library.

bench/workloads.py is imported as it stands and builds every workload's
scene and stage configs and frozen model; the names that bench/ reads
from the library are checked to exist with the signatures it relies on,
and every span that bench/tracer.py turns into a per-layer metric is
checked to be one its wrappers record. A renamed or deleted config field
or function would otherwise break only the benchmark, or silently zero a
metric. The bench files are imported, never written.
"""

import importlib
import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from pixpoint import pipeline
from pixpoint.loss import LossConfig
from pixpoint.nn import EncoderParams2D
from pixpoint.synthdata import SceneConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def workloads():
    return load_bench_module("workloads")


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


def traced_span_names(tracer):
    """Every span name the tracer's wrappers can record: each public
    function that a module of TRACED_MODULES holds, named by its defining
    module's layer, with a NAMERS entry replaced by the names it gives for
    the conv layers of the stage-1 encoder."""
    names = set()
    for mod_name in tracer.TRACED_MODULES:
        for attr, fn in vars(importlib.import_module(mod_name)).items():
            layer = tracer.LAYER_OF_MODULE.get(getattr(fn, "__module__", None))
            if not attr.startswith("_") and layer is not None and inspect.isfunction(fn):
                names.add(f"{layer}.{fn.__name__}")
    enc = EncoderParams2D.initialize(0)
    for name, namer in tracer.NAMERS.items():
        assert name in names
        names.discard(name)
        names.update(namer((None, w), {}) for w in (enc.conv1_w, enc.conv2_w, enc.conv3_w))
    return names


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
    # each span of ITER_METRICS and SETUP_METRICS comes from a function the
    # tracer wraps, except synthdata.generate_scene, which bench/worker.py
    # spans itself; a renamed or deleted function would zero its metric
    tracer = load_bench_module("tracer")
    spanned = traced_span_names(tracer)
    assert {"conv2d.conv1_fwd", "conv2d.conv3_bwd"} <= spanned
    assert 'span("synthdata.generate_scene")' in (BENCH / "worker.py").read_text()
    spanned.add("synthdata.generate_scene")
    for name in (*tracer.ITER_METRICS, *tracer.SETUP_METRICS):
        assert name in spanned, name
