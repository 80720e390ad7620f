"""One training run of a workload, in its own process.

Usage: python3 bench/worker.py '<json: {"workload": {...}, "seed": n, "traced": bool}>'

Generates the workload's scenes, runs pretrain_2d or pretrain_3d and
prints one JSON record: timings, peak RSS, the TrainReport fields the
correctness gate needs, the final-parameter checksum and, when traced,
the tracer's per-layer sums. A run that raises a PixpointError is
recorded as failed instead of crashing.
"""

from __future__ import annotations

import contextlib
import json
import re
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pixpoint import pipeline, synthdata  # noqa: E402
from pixpoint.errors import PixpointError  # noqa: E402
from pixpoint.nn import checkpoint_checksum  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload, frozen_model, scene_configs, stage1_config, stage2_config  # noqa: E402


def _span_or_nothing(tracer):
    return tracer.span if tracer else (lambda name: contextlib.nullcontext())


@contextlib.contextmanager
def recording_query_loss(means: list, counts: list):
    """Record each info_nce call's mean per-query loss and query count.

    Taken from `per_query`, so the record does not depend on how the
    library reduces `total`. In a traced run it wraps the tracer's
    wrapper, so the `loss.info_nce` span does not include it.
    """
    fn = pipeline.info_nce

    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        means.append(float(out.per_query.mean()))
        counts.append(int(out.per_query.shape[0]))
        return out

    pipeline.info_nce = recorded
    try:
        yield
    finally:
        pipeline.info_nce = fn


def train(wl, seed: int, tracer=None) -> dict:
    span = _span_or_nothing(tracer)
    query_loss, query_count = [], []
    t0 = time.perf_counter()
    scenes = []
    for cfg in scene_configs(wl, seed):
        with span("synthdata.generate_scene"):
            scenes.append(synthdata.generate_scene(cfg))
    try:
        with recording_query_loss(query_loss, query_count):
            if wl.stage == 1:
                dataset = [view.image for scene in scenes for view in scene.cameras]
                enc, head, report = pipeline.pretrain_2d(dataset, stage1_config(wl, seed))
            else:
                dataset = [pair for scene in scenes for pair in pipeline.pairs_from_scene(scene)]
                frozen = frozen_model(wl, seed)
                enc, head, report = pipeline.pretrain_3d(dataset, frozen, stage2_config(wl, seed))
    except PixpointError as e:
        return failed_record(wl, e)
    wall = time.perf_counter() - t0

    params = {f"enc.{k}": v for k, v in enc.tensors().items()}
    params.update({f"head.{k}": v for k, v in head.tensors().items()})
    return {
        "ok": True,
        "error": None,
        "iterations": report.iterations(),
        "iter_seconds": report.iter_seconds.tolist(),
        "setup_s": wall - float(report.iter_seconds.sum()),
        "loss": report.loss_history.tolist(),
        "gap": report.gap_history.tolist(),
        "query_loss": query_loss,
        "query_count": query_count,
        "slots_attempted": wl.batch_pairs * wl.iterations,
        "slots_failed": int(report.skipped),
        "embeddings_audited": int(report.embeddings_audited),
        "max_norm_error": float(report.max_norm_error),
        "frozen_checksum_start": report.frozen_checksum_start,
        "frozen_checksum_end": report.frozen_checksum_end,
        "checksum": checkpoint_checksum(params),
    }


def failed_record(wl, error) -> dict:
    """Record for a run that raised; slots of unfinished iterations count as failed."""
    m = re.search(r"iteration (\d+)", str(error))
    done = int(m.group(1)) if m else 0
    return {
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error), "iteration": done if m else None},
        "slots_attempted": wl.batch_pairs * wl.iterations,
        "slots_failed": wl.batch_pairs * (wl.iterations - done),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def main(spec: dict) -> dict:
    wl = Workload(**spec["workload"])
    if not spec["traced"]:
        record = train(wl, spec["seed"])
    else:
        tracer = Tracer()
        with tracer.installed():
            record = train(wl, spec["seed"], tracer)
        record["trace"] = tracer.summary()
    record["peak_rss_mb"] = peak_rss_mb()
    record["traced"] = spec["traced"]
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
