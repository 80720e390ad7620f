"""pixpoint benchmark: both pre-training stages on pinned synthetic scenes.

Usage (from the repository root):

    python3 bench/run.py --workload s1_pixels --seed 1 --seconds 36 --trace 0

`--workload all` runs every workload in turn and prints one result line each.

Runs one workload for about --seconds seconds as a series of training
runs, each in a fresh process with the BLAS thread count pinned. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of traced runs (alternating with untraced runs, which give the
tracing overhead). Every run passes the correctness gate, or the
command exits nonzero with a message and prints no result. The last
line of standard output is the result JSON; the full record, with the
environment, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from oracle import mismatched_rows
from tracer import ITER_METRICS, MEAN_METRICS, SETUP_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = 1  # at most nproc; one thread keeps runs comparable across machines
CHILD_TIMEOUT_S = 150
MIN_COVERAGE = 0.95
NORM_TOL = 1e-12


class GateFailure(Exception):
    """The program's output failed a correctness check."""


# ── environment ──────────────────────────────────────────────────────────

def source_digest() -> str:
    """sha256 over the program and benchmark sources: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/pixpoint/**/*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy has no dict mode; record what is missing
        blas = {}
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ── training runs ────────────────────────────────────────────────────────

def run_child(wl, seed: int, traced: bool) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    spec = json.dumps({"workload": asdict(wl), "seed": seed, "traced": traced})
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), spec],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"training run crashed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["process_wall_s"] = time.perf_counter() - t0
    return record


def run_children(wl, seed: int, seconds: float, trace: bool) -> list:
    """As many training runs as fit in `seconds`, judged by the first one.

    The count is rounded from the first run's wall time rather than cut by
    a running clock, so runs of similar speed get the same sample count.
    At least two runs, so the final checksums can be compared; with
    tracing they alternate untraced/traced.
    """
    records = [run_child(wl, seed, False)]
    count = max(2, round(seconds / records[0]["process_wall_s"]))
    for i in range(1, count):
        records.append(run_child(wl, seed, trace and i % 2 == 1))
    return records


# ── correctness gate ─────────────────────────────────────────────────────

def check_knn_gate(wl, seed: int) -> int:
    """knn_indices on one voxelised cloud of the workload against the oracle."""
    from pixpoint.geometry import voxelize
    from pixpoint.nn import points
    from pixpoint.synthdata import generate_scene
    from workloads import scene_configs

    cloud = voxelize(generate_scene(scene_configs(wl, seed)[0]).cloud, wl.voxel_size).cloud
    bad = mismatched_rows(cloud.positions, wl.knn, points.knn_indices(cloud.positions, wl.knn))
    if bad.size:
        raise GateFailure(f"knn_indices disagrees with the oracle on {bad.size} rows, first {bad[:5].tolist()}")
    return len(cloud)


def check_records(wl, records: list) -> None:
    ok = [r for r in records if r["ok"]]
    if not ok:
        errors = sorted({f"{r['error']['type']}: {r['error']['message']}" for r in records})
        raise GateFailure(f"every training run failed: {errors}")
    for r in ok:
        if not all(math.isfinite(x) for x in r["loss"]):
            raise GateFailure("a loss is not finite")
        if r["embeddings_audited"] == 0:
            raise GateFailure("no embeddings were audited")
        if r["max_norm_error"] > NORM_TOL:
            raise GateFailure(f"embedding norm error {r['max_norm_error']:.3e} > {NORM_TOL}")
        if wl.stage == 2 and r["frozen_checksum_start"] != r["frozen_checksum_end"]:
            raise GateFailure("stage 2 changed the frozen stage-1 model")
        if len(r["query_loss"]) != r["iterations"]:
            raise GateFailure(f"{len(r['query_loss'])} info_nce calls in {r['iterations']} iterations, expected one each")
    first = ok[0]
    for r in ok[1:]:
        if r["checksum"] != first["checksum"]:
            raise GateFailure("final-parameter checksum differs between runs of one seed")
        if (r["loss"], r["gap"], r["query_loss"]) != (first["loss"], first["gap"], first["query_loss"]):
            raise GateFailure("loss or alignment-gap history differs between runs of one seed")


def check_registry(out_dir: Path, key: str, checksum: str) -> None:
    """The checksum of a (code, workload, seed) must repeat across invocations too."""
    path = out_dir / "checksums.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if seen.setdefault(key, checksum) != checksum:
        raise GateFailure(f"final-parameter checksum {checksum[:12]} differs from an earlier run's {seen[key][:12]}")
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))


# ── metrics ──────────────────────────────────────────────────────────────

def tail(samples: list, p: int) -> tuple:
    """(value, samples beyond): the nearest-rank p-th percentile."""
    ordered = sorted(samples)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def quality(wl, record: dict) -> dict:
    """Loss against chance and alignment gap over the final quarter of iterations.

    The loss is the mean of `per_query` that the worker recorded at each
    info_nce call, not `loss_history`, so it stays a per-query loss
    whether the library sums or averages `total`.
    """
    from workloads import chance_negatives

    window = math.ceil(record["iterations"] / 4)
    nominal = wl.batch_pairs * (wl.pixels_per_pair if wl.stage == 1 else wl.correspondences_per_pair)
    counts = record["query_count"][-window:]
    queries = sum(counts) / window  # equals nominal when no batch fell short
    loss = sum(record["query_loss"][-window:]) / window
    return {
        "loss_ratio": loss / math.log(chance_negatives(wl, queries) + 1),
        "align_gap": sum(record["gap"][-window:]) / window,
        "window": window,
        "queries_per_iter": queries,
        "full_batches": all(n == nominal for n in counts),
    }


def slot_fail_ratio(records: list) -> float:
    return sum(r["slots_failed"] for r in records) / sum(r["slots_attempted"] for r in records)


def end_to_end(wl, records: list) -> tuple:
    ok = [r for r in records if r["ok"]]
    iters = [s for r in ok for s in r["iter_seconds"]]
    tail_s, beyond = tail(iters, wl.tail_percentile)
    setups = [r["setup_s"] for r in ok]  # one per fresh training process
    q = quality(wl, ok[0])
    fail = slot_fail_ratio(records)
    metrics = {
        "iter_s": (statistics.median(iters), "s"),
        "iter_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
        "loss_ratio": (q["loss_ratio"], "ratio"),
        "slot_ok_ratio": (1.0 - fail, "ratio"),
    }
    detail = {
        "iter_samples": len(iters),
        "iter_tail_percentile": wl.tail_percentile,
        "iter_tail_samples_beyond": beyond,
        "setup_samples": len(setups),
        "align_gap": q["align_gap"],
        "slot_fail_ratio": fail,
        "quality": q,
    }
    return metrics, detail


def per_layer(wl, records: list) -> tuple:
    traced = [r for r in records if r["ok"] and r["traced"]]
    plain = [r for r in records if r["ok"] and not r["traced"]]
    runs = len(traced)
    iterations = sum(r["iterations"] for r in traced)
    iter_wall = sum(sum(r["iter_seconds"]) for r in traced)

    def total(field, name):
        return sum(r["trace"][field].get(name, 0) for r in traced)

    metrics = {}
    for t, c in dict.fromkeys(ITER_METRICS.values()):
        metrics[t] = (total("iter_s", t) / iterations, "s/iter")
        metrics[c] = (total("iter_calls", c) / iterations, "calls/iter")
    for t, c in SETUP_METRICS.values():
        metrics[t] = (total("setup_s", t) / runs, "s/run")
        metrics[c] = (total("setup_calls", c) / runs, "calls/run")
    units = {"points.knn_n": "points", "loss.pool_cols": "cols", "geometry.corrs_per_slot": "corrs"}
    for m in MEAN_METRICS.values():
        n = total("note_n", m)
        metrics[m] = (total("note_sum", m) / n if n else 0.0, units[m])
    match_calls = sum(r["trace"]["match_calls"] for r in traced)
    match_ok = sum(r["trace"]["match_ok"] for r in traced)
    metrics["augment.match_useful_ratio"] = (match_ok / match_calls if match_calls else 0.0, "ratio")
    metrics["loss.align_gap"] = (quality(wl, traced[0])["align_gap"], "cos")
    metrics["pipeline.driver_self_s"] = (
        sum(r["trace"]["driver_self_s"] for r in traced) / iterations,
        "s/iter",
    )
    metrics["pipeline.slot_fail_ratio"] = (slot_fail_ratio(records), "ratio")
    traced_iter = statistics.median(s for r in traced for s in r["iter_seconds"])
    plain_iter = statistics.median(s for r in plain for s in r["iter_seconds"])
    metrics["trace.overhead_ratio"] = (traced_iter / plain_iter - 1.0, "ratio")
    coverage = sum(r["trace"]["covered_s"] for r in traced) / iter_wall
    metrics["trace.coverage"] = (coverage, "ratio")
    if coverage < MIN_COVERAGE:
        raise GateFailure(f"traced spans cover {coverage:.1%} of iteration time, below {MIN_COVERAGE:.0%}")
    return metrics, {"traced_runs": runs, "traced_iterations": iterations, "coverage": coverage}


# ── entry point ──────────────────────────────────────────────────────────

def run_workload(wl, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run, check and measure one workload; raises GateFailure on wrong output."""
    env = environment(seed)
    knn_points = check_knn_gate(wl, seed) if wl.stage == 2 else None
    records = run_children(wl, seed, seconds, trace)
    check_records(wl, records)
    ok = [r for r in records if r["ok"]]
    out_dir.mkdir(parents=True, exist_ok=True)
    key = f"{env['source_sha256']}:{json.dumps(asdict(wl), sort_keys=True)}:{seed}:{BLAS_THREADS}"
    check_registry(out_dir, key, ok[0]["checksum"])
    metrics, detail = (per_layer if trace else end_to_end)(wl, records)
    detail["knn_oracle_points"] = knn_points
    detail["checksum"] = ok[0]["checksum"]
    detail["failures"] = [r["error"] for r in records if not r["ok"]]
    detail["runs"] = [{k: v for k, v in r.items() if k not in ("loss", "gap", "trace")} for r in records]
    return {
        "correct": True,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "environment": env,
        "workload": asdict(wl),
        "detail": detail,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pixpoint" / "pipeline.py").is_file():
        print(f"error: no pixpoint sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all", file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    status = 0
    for name in names:
        wl = WORKLOADS[name]
        try:
            result = run_workload(wl, args.seed, args.seconds, bool(args.trace), out_dir)
        except GateFailure as e:
            print(f"correctness gate failed on {name} seed {args.seed}: {e}", file=sys.stderr)
            status = 1
            continue
        path = out_dir / f"{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
        d = result["detail"]
        if args.trace:
            print(f"{name}: trace coverage {d['coverage']:.2%} of iteration time over {d['traced_iterations']} traced iterations")
        else:
            print(
                f"{name}: iter_tail_s is p{d['iter_tail_percentile']} of {d['iter_samples']} iterations "
                f"({d['iter_tail_samples_beyond']} beyond); align_gap {d['align_gap']:.6f}; "
                f"slot_fail_ratio {d['slot_fail_ratio']:.6f}"
            )
        print(f"environment {json.dumps(result['environment'])}; full record in {path.relative_to(ROOT)}")
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return status


if __name__ == "__main__":
    sys.exit(main())
