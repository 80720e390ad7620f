"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from pixpoint import pipeline  # noqa: E402
from pixpoint.errors import IterationStarved  # noqa: E402
from pixpoint.nn import conv2d, points  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tiny(name):
    """The workload at small sizes; large enough that spans still cover 95%."""
    return dataclasses.replace(
        WORKLOADS[name],
        iterations=2,
        n_scenes=2,
        n_points=1000,
        image_size=32,
        pixels_per_pair=64,
        negative_cap=64,
        correspondences_per_pair=64,
    )


def declared_units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_exactly_the_declared_metrics(name, trace, tmp_path):
    result = run.run_workload(tiny(name), seed=3, seconds=0, trace=trace, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == declared_units("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_wrappers_are_installed_and_then_restored_after_an_error():
    modules = (pipeline, points, conv2d)
    before = [dict(vars(m)) for m in modules]
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.Tracer().installed():
            assert points.knn_indices.__wrapped__ is before[1]["knn_indices"]
            assert conv2d.conv3x3_forward.__wrapped__ is before[2]["conv3x3_forward"]
            assert pipeline.info_nce.__wrapped__ is before[0]["info_nce"]
            raise RuntimeError("inside")
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items())


def test_oracle_rejects_a_corrupted_knn_table():
    pos = np.random.default_rng(0).uniform(0.0, 1.0, size=(300, 3))
    table = points.knn_indices(pos, 8)
    assert oracle.mismatched_rows(pos, 8, table).size == 0
    corrupt = table.copy()
    corrupt[17, 3] = next(i for i in range(300) if i not in table[17])
    assert oracle.mismatched_rows(pos, 8, corrupt).tolist() == [17]


def test_oracle_breaks_distance_ties_by_lower_index_like_knn_indices():
    grid = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    assert oracle.mismatched_rows(grid, 8, points.knn_indices(grid, 8)).size == 0


def test_failed_run_is_counted_with_its_unfinished_slots(monkeypatch):
    wl = tiny("s1_pixels")
    good = worker.train(wl, seed=3)

    def starved(dataset, cfg):
        raise IterationStarved("iteration 1: every pair of the batch was skipped")

    monkeypatch.setattr(pipeline, "pretrain_2d", starved)
    bad = worker.train(wl, seed=3)
    assert not bad["ok"] and bad["error"]["type"] == "IterationStarved"
    assert bad["slots_failed"] == wl.batch_pairs * (wl.iterations - 1)
    good.update(peak_rss_mb=1.0)
    run.check_records(wl, [good, bad])
    metrics, detail = run.end_to_end(wl, [good, bad])
    assert detail["slot_fail_ratio"] == pytest.approx(bad["slots_failed"] / (2 * wl.batch_pairs * wl.iterations))
    assert metrics["slot_ok_ratio"][0] == pytest.approx(1.0 - detail["slot_fail_ratio"])


def test_tail_is_the_nearest_rank_percentile():
    assert run.tail(list(range(1, 41)), 75) == (30, 10)
    assert run.tail(list(range(1, 13)), 50) == (6, 6)


def test_driver_self_time_counts_only_the_training_loop():
    t = tracer.Tracer()

    def add(name, start, end, parent=None):
        span = tracer.Span(name, start, parent)
        span.end = end
        t.spans.append(span)
        return len(t.spans) - 1

    root = add("pipeline.pretrain_3d", 0.0, 10.0)
    add("geometry.voxelize", 1.0, 2.0, root)  # set-up; the root's own set-up runs until 4.0
    add("points.knn_indices", 4.0, 5.0, root)
    add("loss.info_nce", 5.5, 6.0, root)
    add("checkpoint.checkpoint_checksum", 9.0, 9.5, root)
    assert t.summary()["driver_self_s"] == pytest.approx(0.5)


@pytest.mark.parametrize("name", ["s1_pixels", "s2_points"])
def test_loss_ratio_does_not_depend_on_how_the_loss_total_is_reduced(name, monkeypatch):
    wl = tiny(name)
    summed = worker.train(wl, seed=3)
    info_nce = pipeline.info_nce

    def mean_reduced(*args, **kwargs):
        out = info_nce(*args, **kwargs)
        return dataclasses.replace(out, total=out.total / out.per_query.shape[0])

    monkeypatch.setattr(pipeline, "info_nce", mean_reduced)
    mean = worker.train(wl, seed=3)
    assert mean["loss"] != summed["loss"]
    assert run.quality(wl, mean)["loss_ratio"] == run.quality(wl, summed)["loss_ratio"]


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "s1_pixels", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
