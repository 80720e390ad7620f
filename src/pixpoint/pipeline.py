"""The two pre-training stages.

Stage 1 trains the 2D encoder + head with a pixel-level contrastive loss:
two augmented views per image, positives are output pixels whose source
coordinates coincide in the original image, negatives are a random pool
of at most negative_cap of the batch's sampled pixels.

Stage 2 freezes the 2D model and trains the 3D encoder + head so point
embeddings match the frozen pixel embedding at their pixel; negatives are
the other sampled points, or the points and their frozen pixel
embeddings (negative_source). Set-up voxelises each
distinct scan once and matches it to each of its pairs' pixels once,
keeping the frozen embeddings at the z-buffer winners' pixels. A slot's
matches are the winners that survive its dropout; no slot projects
again. Each scan's neighbour table is built once, when a slot first
needs it, and only at the union of its pairs' winners, as a slot samples
no other point. A slot reads the neighbours of its sampled points only;
the per-point MLP runs at those points and their neighbours, the point
head at the sampled points.

Both stages score a batch through one helper, `_batch_info_nce`. Its
rows hold the queries, then their positives; the pool is a set of those
rows, and each query excludes its own row and its own positive from it.
Stage 1 pools a random subset of its rows, stage 2 a prefix: the points,
or the points and the pixels.

Both stages are bit-deterministic given their config: every random draw
derives from (seed, stage, iteration, slot) so a failed batch can be
rebuilt in isolation.

Both run the same SGD loop, `_train`. It owns the optimiser state, the
iteration rng and batch picks, the histories and timings, the context of
`NonFiniteLoss` and the `TrainReport`. A stage supplies only its batch
step, `step(it, rng_iter, picks) -> (LossOutput, enc_grads, head_grads,
n_skipped)`. The driver and the steps are private and reach every layer
through this module's globals: `bench/tracer.py` wraps each public
function this module holds, so a public driver would become the parent
span of every layer call, and tests substitute `info_nce` or `sgd_step`
here.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .augment import (
    ColorJitter,
    Grayscale,
    HorizontalFlip,
    PointDropout,
    RandomResizedCrop,
    RotationZ,
    TransformSpec2D,
    TransformSpec3D,
    augment_cloud,
    augment_image,
    match_positive_pixels,
)
from .errors import EmptyCloud, EmptyOverlap, InvalidInput, IterationStarved, NonFiniteLoss
from .geometry import CameraIntrinsics, Image, PointCloud, Pose, build_correspondences, voxelize
from .loss import LossConfig, info_nce
from .nn import (
    EncoderParams2D,
    EncoderParams3D,
    HeadParams,
    checkpoint_checksum,
    encode_images_backward,
    encode_images_forward,
    head_backward,
    head_forward,
    knn_from_table,
    knn_indices,
    point_backward,
    point_forward,
)
from .optim import OptimConfig, OptimState, sgd_step
from .rngutil import derive_seed, rng_for

log = logging.getLogger(__name__)

POINTS_ONLY = "points_only"
POINTS_AND_PIXELS = "points_and_pixels"

MAX_PAIR_RETRIES = 10

# Width of a scene's neighbour table in multiples of k. A surviving row
# needs k - 1 survivors among its other 3k - 1 entries; at keep_prob 0.9
# and k = 8 it falls short with probability about 6e-13.
NEIGHBOUR_TABLE_FACTOR = 3


def default_spec_2d(out_size=(64, 64)) -> TransformSpec2D:
    return TransformSpec2D(
        (
            RandomResizedCrop(scale_range=(0.4, 1.0), out_size=tuple(out_size)),
            HorizontalFlip(p=0.5),
            ColorJitter(brightness=(0.7, 1.3), contrast=(0.7, 1.3), saturation=(0.7, 1.3)),
            Grayscale(p=0.1),
        )
    )


def default_spec_3d() -> TransformSpec3D:
    return TransformSpec3D(
        (
            RotationZ(angle_range=(0.0, 2.0 * np.pi - 1e-9)),
            PointDropout(keep_prob=0.9),
            ColorJitter(brightness=(0.8, 1.2), contrast=(0.8, 1.2), saturation=(0.8, 1.2)),
        )
    )


def _check_stage_config(cfg) -> None:
    """The checks that Stage1Config and Stage2Config share."""
    for name in ("batch_pairs", "iterations", "feature_dim"):
        if getattr(cfg, name) < 1:
            raise InvalidInput(f"{name} must be >= 1")
    if not 1 <= cfg.embed_dim <= cfg.feature_dim:
        raise InvalidInput(f"embed_dim must be in [1, feature_dim = {cfg.feature_dim}]")
    if not 0.0 < cfg.tau <= 1.0:  # NaN fails too
        raise InvalidInput(f"tau must be in (0, 1], got {cfg.tau}")


@dataclass(frozen=True)
class Stage1Config:
    batch_pairs: int = 8
    pixels_per_pair: int = 512
    tau: float = 0.4
    optim: OptimConfig = OptimConfig(lr0=0.01)
    iterations: int = 500
    spec_a: TransformSpec2D = default_spec_2d()
    spec_b: TransformSpec2D = default_spec_2d()
    feature_dim: int = 16
    embed_dim: int = 16
    negative_cap: int = 512  # above 2 x queries the pool is the whole batch
    seed: int = 0

    def __post_init__(self):
        _check_stage_config(self)
        if self.pixels_per_pair < 2:
            raise InvalidInput("pixels_per_pair must be >= 2")
        if not isinstance(self.negative_cap, (int, np.integer)) or self.negative_cap < 1:
            raise InvalidInput("negative_cap must be an int >= 1")


@dataclass(frozen=True)
class Stage2Config:
    batch_pairs: int = 8
    correspondences_per_pair: int = 256
    voxel_size: float = 0.05
    tau: float = 0.4
    optim: OptimConfig = OptimConfig(lr0=0.1)
    iterations: int = 500
    negative_source: str = POINTS_ONLY
    spec3d: TransformSpec3D = default_spec_3d()
    feature_dim: int = 16
    embed_dim: int = 16
    knn: int = 8
    seed: int = 0

    def __post_init__(self):
        _check_stage_config(self)
        if self.correspondences_per_pair < 2:
            raise InvalidInput("correspondences_per_pair must be >= 2")
        if self.knn < 1:
            raise InvalidInput("knn must be >= 1")
        if self.negative_source not in (POINTS_ONLY, POINTS_AND_PIXELS):
            raise InvalidInput(f"unknown negative_source {self.negative_source!r}")
        if not self.voxel_size > 0:  # NaN fails too
            raise InvalidInput("voxel_size must be positive")


@dataclass
class TrainReport:
    loss_history: np.ndarray
    gap_history: np.ndarray  # mean positive cosine - mean negative cosine
    lr_history: np.ndarray
    iter_seconds: np.ndarray
    skipped: int = 0
    embeddings_audited: int = 0
    max_norm_error: float = 0.0
    frozen_checksum_start: str | None = None
    frozen_checksum_end: str | None = None

    def iterations(self) -> int:
        return self.loss_history.shape[0]


class _NormAudit:
    """Tracks |row norm - 1| over every embedding produced in a run."""

    def __init__(self):
        self.rows = 0
        self.max_err = 0.0

    def take(self, z: np.ndarray) -> None:
        self.rows += z.shape[0]
        if z.shape[0]:
            err = float(np.abs(np.linalg.norm(z, axis=1) - 1.0).max())
            self.max_err = max(self.max_err, err)


@dataclass(frozen=True)
class ScenePair:
    """One (cloud, image) observation with its camera."""

    cloud: PointCloud
    image: Image
    pose: Pose
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        got = (self.image.width, self.image.height)
        want = (self.intrinsics.width, self.intrinsics.height)
        if got != want:
            raise InvalidInput(f"image is {got[0]}x{got[1]}, intrinsics are {want[0]}x{want[1]}")


def pairs_from_scene(scene) -> list:
    return [
        ScenePair(scene.cloud, v.image, v.pose, v.intrinsics) for v in scene.cameras
    ]


# ── the training driver ──────────────────────────────────────────────────

def _prefixed(enc: dict, head: dict) -> dict:
    """One flat name -> array dict: enc.<name> and head.<name>."""
    return {**{f"enc.{k}": v for k, v in enc.items()}, **{f"head.{k}": v for k, v in head.items()}}


def _train(stage: int, cfg, enc, head, audit: _NormAudit, n_items: int, step) -> TrainReport:
    """Train (enc, head) in place for cfg.iterations steps, each on a batch
    of cfg.batch_pairs picks among n_items dataset items (step contract: see
    the module docstring)."""
    params = _prefixed(enc.tensors(), head.tensors())
    state = OptimState()
    losses, gaps, lrs, seconds = (np.zeros(cfg.iterations) for _ in range(4))
    skipped = 0

    for it in range(cfg.iterations):
        t0 = time.perf_counter()
        rng_iter = rng_for(cfg.seed, f"stage{stage}", it)
        picks = rng_iter.integers(0, n_items, size=cfg.batch_pairs)
        try:
            out, enc_grads, head_grads, n_skipped = step(it, rng_iter, picks)
        except FloatingPointError as e:  # only info_nce raises it
            raise NonFiniteLoss(
                f"stage {stage} iteration {it}: {e}; replay with seed={cfg.seed}, "
                f"{'image' if stage == 1 else 'pair'} indices {picks.tolist()}"
            ) from None
        skipped += n_skipped

        lrs[it] = sgd_step(params, _prefixed(enc_grads, head_grads), state, cfg.optim)
        losses[it] = out.total
        gaps[it] = out.alignment_gap
        seconds[it] = time.perf_counter() - t0

    return TrainReport(
        loss_history=losses,
        gap_history=gaps,
        lr_history=lrs,
        iter_seconds=seconds,
        skipped=skipped,
        embeddings_audited=audit.rows,
        max_norm_error=audit.max_err,
    )


def _batch_info_nce(z: np.ndarray, pool, tau: float):
    """info_nce of the batch rows z: queries z[:n], their positives z[n:]
    and the pool z[pool], where pool indexes rows of z without repeats (a
    slice is taken as a view). Each query excludes its own row and its own
    positive where they are in the pool. Returns (LossOutput, the gradient
    of every row of z, the pool's added back onto its rows)."""
    n = z.shape[0] // 2
    negatives = z[pool]
    col_of = np.full(2 * n, -1, dtype=np.int64)
    col_of[pool] = np.arange(negatives.shape[0])
    excl = np.stack([col_of[:n], col_of[n:]], axis=1)  # own row and positive
    cfg = LossConfig(tau=tau, negatives=negatives.shape[0])
    out = info_nce(z[:n], z[n:], negatives, cfg, exclude_columns=excl)
    grad_z = np.concatenate([out.grad_queries, out.grad_positives])
    grad_z[pool] += out.grad_negatives
    return out, grad_z


# ── stage 1 ──────────────────────────────────────────────────────────────

def pretrain_2d(dataset: list, cfg: Stage1Config):
    """Pixel-level contrastive pre-training of the 2D encoder.

    Returns (EncoderParams2D, HeadParams, TrainReport).
    """
    if not dataset:
        raise InvalidInput("dataset must be nonempty")
    enc = EncoderParams2D.initialize(cfg.seed, cfg.feature_dim)
    head = HeadParams.initialize(cfg.seed, cfg.feature_dim, cfg.embed_dim)
    audit = _NormAudit()

    def step(it, rng_iter, picks):
        skipped = 0
        views = []
        sel_a = []  # (pixels (P,2)) per pair, view index 2k
        sel_b = []
        for k, img_idx in enumerate(picks):
            img = dataset[int(img_idx)]
            for attempt in range(MAX_PAIR_RETRIES):
                view_a, map_a = augment_image(
                    img, cfg.spec_a, derive_seed(cfg.seed, "s1a", it, k, attempt)
                )
                view_b, map_b = augment_image(
                    img, cfg.spec_b, derive_seed(cfg.seed, "s1b", it, k, attempt)
                )
                try:
                    pix_a, pix_b = match_positive_pixels(
                        map_a,
                        map_b,
                        cfg.pixels_per_pair,
                        derive_seed(cfg.seed, "s1m", it, k, attempt),
                    )
                except EmptyOverlap:
                    continue
                views.append(view_a.pixels)
                views.append(view_b.pixels)
                sel_a.append(pix_a)
                sel_b.append(pix_b)
                break
            else:
                skipped += 1
                log.warning("iteration %d: pair %d skipped after %d retries", it, k, MAX_PAIR_RETRIES)
        if not sel_a:
            raise IterationStarved(f"iteration {it}: every pair of the batch was skipped")

        batch = np.stack(views)
        # row layout: all query pixels (A sides), then all positives (B sides)
        sel = sel_a + sel_b
        pix = np.concatenate(sel)
        view_ids = np.repeat(np.r_[0 : len(views) : 2, 1 : len(views) : 2], [len(p) for p in sel])

        # conv3 runs only at the distinct sampled pixels; one A pixel can
        # match several B pixels, so rows gather through the inverse
        flat = (view_ids * batch.shape[1] + pix[:, 1]) * batch.shape[2] + pix[:, 0]
        at, inv = np.unique(flat, return_inverse=True)
        feats, conv_cache = encode_images_forward(enc, batch, at=at)
        sel_feats = feats[inv]
        z, head_cache = head_forward(head, sel_feats)
        audit.take(z)
        cap = min(int(cfg.negative_cap), z.shape[0])
        pool = rng_iter.choice(z.shape[0], size=cap, replace=False)
        out, grad_rows = _batch_info_nce(z, pool, cfg.tau)

        grad_sel, head_grads = head_backward(head, head_cache, grad_rows)
        grad_feats = np.zeros_like(feats)
        np.add.at(grad_feats, inv, grad_sel)
        enc_grads = encode_images_backward(enc, conv_cache, grad_feats)
        return out, enc_grads, head_grads, skipped

    return enc, head, _train(1, cfg, enc, head, audit, len(dataset), step)


# ── stage 2 ──────────────────────────────────────────────────────────────

def frozen_pixel_embeddings(
    enc2d: EncoderParams2D, head2d: HeadParams, pair: ScenePair, scan: PointCloud
):
    """The points of scan that win the z-buffer in pair's camera, and the
    unit-norm frozen embedding at each one's pixel: (point_index (n,),
    targets (n, M))."""
    corrs = build_correspondences(scan, pair.pose, pair.intrinsics)
    if len(corrs) == 0:
        return corrs.point_index, np.empty((0, head2d.embed_dim))
    # one winner per pixel, in ascending pixel order: conv3 runs only there
    at = corrs.pixel_rows() * pair.image.width + corrs.pixel_columns()
    feats, _ = encode_images_forward(enc2d, np.asarray(pair.image.pixels)[None], at=at)
    targets, _ = head_forward(head2d, feats)
    return corrs.point_index, targets


def pretrain_3d(dataset: list, frozen2d, cfg: Stage2Config):
    """Distill frozen pixel embeddings into the 3D encoder.

    dataset is a list of ScenePair; frozen2d is (EncoderParams2D,
    HeadParams), never updated. Returns (EncoderParams3D, HeadParams,
    TrainReport). A slot's matches are its voxelised scan's own z-buffer
    winners in the pair's camera that survive the slot's dropout, matched
    once in set-up. Pairs that share one PointCloud object, as the pairs of
    pairs_from_scene do, share its voxelisation and its neighbour table;
    the cloud is frozen, so this equals giving each pair its own copy.
    """
    if not dataset:
        raise InvalidInput("dataset must be nonempty")
    enc2d, head2d = frozen2d
    frozen_tensors = _prefixed(enc2d.tensors(), head2d.tensors())
    checksum_start = checkpoint_checksum(frozen_tensors)

    audit = _NormAudit()
    voxelised = {}  # id(pair.cloud) -> its voxelised cloud, one per scan
    # id(voxelised cloud) -> the sorted union of its pairs' z-buffer
    # winners: the only points a slot of that scan can sample
    winners = {}
    pairs = []  # per pair: (voxelised scan, its winners, their targets)
    for pair in dataset:
        if id(pair.cloud) not in voxelised:
            voxelised[id(pair.cloud)] = voxelize(pair.cloud, cfg.voxel_size).cloud
        vox = voxelised[id(pair.cloud)]
        point_index, targets = frozen_pixel_embeddings(enc2d, head2d, pair, vox)
        audit.take(targets)
        winners[id(vox)] = np.union1d(winners.get(id(vox), point_index), point_index)
        pairs.append((vox, point_index, targets))

    enc = EncoderParams3D.initialize(cfg.seed, cfg.feature_dim, cfg.knn)
    head = HeadParams.initialize(derive_seed(cfg.seed, "head3d"), cfg.feature_dim, cfg.embed_dim)
    # id(voxelised cloud) -> its neighbour table at its winners, built on
    # first use. The 3D transforms rotate and drop points without
    # reordering them, so each slot reads its exact kNN, in the scan's own
    # frame, from it.
    tables = {}
    # pool rows per query: its points, or its points and their pixels
    pool_width = 1 if cfg.negative_source == POINTS_ONLY else 2

    def step(it, rng_iter, picks):
        skipped = 0
        caches = []
        feats_chunks = []
        pos_chunks = []
        # every slot's seeds in one run of calls: interleaved with the slots'
        # array work, the same calls took about twice as long
        aug_seeds = [derive_seed(cfg.seed, "s2aug", it, k) for k in range(len(picks))]
        pick_rngs = [rng_for(cfg.seed, "s2pick", it, k) for k in range(len(picks))]
        for k, pair_idx in enumerate(picks.tolist()):
            vox, point_index, targets = pairs[pair_idx]
            try:
                cloud_aug, index_map = augment_cloud(vox, cfg.spec3d, aug_seeds[k])
            except EmptyCloud as e:
                skipped += 1
                log.warning("iteration %d: slot %d skipped (%s)", it, k, e)
                continue
            rows = index_map[point_index]  # -1 where dropout removed a winner
            alive = np.flatnonzero(rows >= 0)
            if alive.size < 2:
                skipped += 1
                log.warning("iteration %d: slot %d yielded %d correspondences", it, k, alive.size)
                continue
            n_take = min(cfg.correspondences_per_pair, alive.size)
            pick = alive[pick_rngs[k].choice(alive.size, size=n_take, replace=False)]

            table_rows = winners[id(vox)]
            if id(vox) not in tables:
                width = NEIGHBOUR_TABLE_FACTOR * enc.k
                tables[id(vox)] = knn_indices(vox.positions, width, by_distance=True, rows=table_rows)
            nb = knn_from_table(
                tables[id(vox)], table_rows, index_map, vox.positions, enc.k, point_index[pick]
            )
            out, cache = point_forward(enc, cloud_aug.positions, cloud_aug.colors, nb, rows[pick])
            feats_chunks.append(out)
            pos_chunks.append(targets[pick])
            caches.append(cache)
        if not caches:
            raise IterationStarved(f"iteration {it}: every pair of the batch was skipped")

        sel_feats = np.concatenate(feats_chunks)
        zq, head_cache = head_forward(head, sel_feats)
        audit.take(zq)
        n = zq.shape[0]
        z = np.concatenate([zq, *pos_chunks])
        out, grad_z = _batch_info_nce(z, slice(0, pool_width * n), cfg.tau)

        # the frozen targets receive no gradient: their rows grad_z[n:] are dropped
        grad_sel, head_grads = head_backward(head, head_cache, grad_z[:n])
        # the slots' gradients are summed into the first slot's arrays
        enc_grads = None
        offset = 0
        for cache, feats in zip(caches, feats_chunks):
            g = point_backward(enc, cache, grad_sel[offset : offset + feats.shape[0]])
            offset += feats.shape[0]
            if enc_grads is None:
                enc_grads = g
            else:
                for name, grad in g.items():
                    enc_grads[name] += grad
        return out, enc_grads, head_grads, skipped

    report = _train(2, cfg, enc, head, audit, len(pairs), step)
    report.frozen_checksum_start = checksum_start
    report.frozen_checksum_end = checkpoint_checksum(frozen_tensors)
    return enc, head, report
