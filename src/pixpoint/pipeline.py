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
or the points and the pixels. Both score at the one loss temperature,
`loss.TAU`. Stage 1's views come from its configs' TransformSpec2D;
stage 2 augments each slot's scan by `augment_cloud`'s one recipe, whose
settings are the `augment` constants ROTATION_RANGE, KEEP_PROB and
CLOUD_JITTER.

Both run the same SGD loop, `_train`. It owns the optimiser state, the
random streams, the batch picks, the slot loop, the histories and
timings, the context of `NonFiniteLoss` and the `TrainReport`. A stage
supplies two callbacks. `make_slot(item, rng)` builds one slot from the
picked dataset item, drawing only from rng; it raises EmptyOverlap or
EmptyCloud when the slot yields nothing, and the driver counts and logs
the skip. `score(slots, rng_iter) -> (LossOutput, enc_grads, head_grads)`
scores the batch of surviving slots, in pick order, and may empty the
list to free the slots early.

Both stages are bit-deterministic given their config. Iteration it draws
its picks, then stage 1 its negative pool, from rng_iter = rng_for(seed,
f"stage{s}", it); slot k of it draws everything from its own stream,
rng_for(seed, f"stage{s}", it).spawn(batch_pairs)[k], so a failed slot
can be rebuilt in isolation from (seed, stage, iteration, slot). A
stage-1 slot whose views do not overlap draws new views from the same
stream, up to MAX_PAIR_RETRIES times.

The driver and the callbacks are private and reach every layer
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
    RandomResizedCrop,
    TransformSpec2D,
    augment_cloud,
    augment_image,
    match_positive_pixels,
)
from .errors import EmptyCloud, EmptyOverlap, InvalidInput, IterationStarved, NonFiniteLoss, check_count
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
from .optim import OptimState, sgd_step
from .rngutil import derive_seed, rng_for

log = logging.getLogger(__name__)

POINTS_ONLY = "points_only"
POINTS_AND_PIXELS = "points_and_pixels"

MAX_PAIR_RETRIES = 10

# Width of a scene's neighbour table in multiples of k. A surviving row
# needs k - 1 survivors among its other 3k - 1 entries; at the dropout's
# KEEP_PROB 0.9 and k = 8 it falls short with probability about 6e-13.
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


def _check_stage_config(cfg, **least) -> None:
    """The checks that Stage1Config and Stage2Config share. least maps each
    count the config adds to the smallest value it takes."""
    counts = {"batch_pairs": 1, "iterations": 1, "feature_dim": 1, "embed_dim": 1, "seed": 0, **least}
    for name, low in counts.items():
        check_count(name, getattr(cfg, name), low)
    if cfg.embed_dim > cfg.feature_dim:
        raise InvalidInput(f"embed_dim must be <= feature_dim = {cfg.feature_dim}")
    if not 0.0 <= cfg.lr0 < np.inf:  # NaN fails too
        raise InvalidInput(f"lr0 must be finite and nonnegative, got {cfg.lr0}")


@dataclass(frozen=True)
class Stage1Config:
    """Stage 1's settings; counts are ints, checked when built.

    batch_pairs: images per iteration, one slot each (>= 1).
    pixels_per_pair: matched pixel pairs sampled per slot (>= 2).
    lr0: the initial SGD learning rate, finite and >= 0; the rest of the
        schedule is fixed in `optim`.
    iterations: SGD steps (>= 1).
    spec_a, spec_b: the augmentations that make each slot's two views.
    feature_dim: the encoder's output channels D (>= 1).
    embed_dim: the head's embedding width M, in [1, feature_dim].
    negative_cap: rows in each iteration's negative pool (>= 1); at or
        above the batch's rows, two per sampled pixel pair, the pool is
        the whole batch.
    seed: the root of every random stream of the run (an int >= 0).

    The loss temperature is `loss.TAU`, the one both stages train at.
    """

    batch_pairs: int = 8
    pixels_per_pair: int = 512
    lr0: float = 0.01
    iterations: int = 500
    spec_a: TransformSpec2D = default_spec_2d()
    spec_b: TransformSpec2D = default_spec_2d()
    feature_dim: int = 16
    embed_dim: int = 16
    negative_cap: int = 512
    seed: int = 0

    def __post_init__(self):
        _check_stage_config(self, pixels_per_pair=2, negative_cap=1)
        for name, spec in (("spec_a", self.spec_a), ("spec_b", self.spec_b)):
            if not isinstance(spec, TransformSpec2D):
                raise InvalidInput(f"{name} must be a TransformSpec2D, got {type(spec).__name__}")


@dataclass(frozen=True)
class Stage2Config:
    """Stage 2's settings; counts are ints, checked when built.

    batch_pairs: (scan, image) pairs per iteration, one slot each (>= 1).
    correspondences_per_pair: matched points sampled per slot (>= 2); a
        slot with fewer surviving matches takes them all.
    voxel_size: the voxel grid's cell side in metres (finite, > 0).
    lr0: the initial SGD learning rate, finite and >= 0; the rest of the
        schedule is fixed in `optim`.
    iterations: SGD steps (>= 1).
    negative_source: POINTS_ONLY (the other sampled points) or
        POINTS_AND_PIXELS (those and their frozen pixel embeddings).
    feature_dim: the point encoder's output channels D (>= 1).
    embed_dim: the head's embedding width M, in [1, feature_dim].
    knn: neighbours per point of the point encoder (>= 1).
    seed: the root of every random stream of the run (an int >= 0).

    The loss temperature is `loss.TAU`, the one both stages train at, and
    each slot's scan is augmented by `augment_cloud`'s one recipe, the
    `augment` constants ROTATION_RANGE, KEEP_PROB and CLOUD_JITTER.
    """

    batch_pairs: int = 8
    correspondences_per_pair: int = 256
    voxel_size: float = 0.05
    lr0: float = 0.1
    iterations: int = 500
    negative_source: str = POINTS_ONLY
    feature_dim: int = 16
    embed_dim: int = 16
    knn: int = 8
    seed: int = 0

    def __post_init__(self):
        _check_stage_config(self, correspondences_per_pair=2, knn=1)
        if self.negative_source not in (POINTS_ONLY, POINTS_AND_PIXELS):
            raise InvalidInput(f"unknown negative_source {self.negative_source!r}")
        if not 0.0 < self.voxel_size < np.inf:  # NaN fails too
            raise InvalidInput(f"voxel_size must be positive and finite, got {self.voxel_size}")


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
            # einsum forms no (N, M) temporary of squares, as linalg.norm does
            err = float(np.abs(np.sqrt(np.einsum("ij,ij->i", z, z)) - 1.0).max())
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


def _train(stage: int, cfg, enc, head, audit: _NormAudit, items: list, make_slot, score) -> TrainReport:
    """Train (enc, head) in place for cfg.iterations steps, each on a batch
    of cfg.batch_pairs slots drawn from picks among items (make_slot and
    score: see the module docstring)."""
    params = _prefixed(enc.tensors(), head.tensors())
    state = OptimState()
    losses, gaps, lrs, seconds = (np.zeros(cfg.iterations) for _ in range(4))
    skipped = 0

    for it in range(cfg.iterations):
        t0 = time.perf_counter()
        rng_iter = rng_for(cfg.seed, f"stage{stage}", it)
        picks = rng_iter.integers(0, len(items), size=cfg.batch_pairs)
        slots = []
        for k, (pick, rng) in enumerate(zip(picks.tolist(), rng_iter.spawn(cfg.batch_pairs))):
            try:
                slots.append(make_slot(items[pick], rng))
            except (EmptyOverlap, EmptyCloud) as e:
                skipped += 1
                log.warning("iteration %d: slot %d skipped (%s)", it, k, e)
        if not slots:
            raise IterationStarved(f"iteration {it}: every pair of the batch was skipped")
        try:
            out, enc_grads, head_grads = score(slots, rng_iter)
        except FloatingPointError as e:  # only info_nce raises it
            raise NonFiniteLoss(
                f"stage {stage} iteration {it}: {e}; replay with seed={cfg.seed}, "
                f"{'image' if stage == 1 else 'pair'} indices {picks.tolist()}"
            ) from None

        lrs[it] = sgd_step(params, _prefixed(enc_grads, head_grads), state, cfg.lr0)
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


def _batch_info_nce(z: np.ndarray, pool):
    """info_nce of the batch rows z: queries z[:n], their positives z[n:]
    and the pool z[pool], where pool indexes rows of z without repeats (a
    slice is taken as a view), at the loss temperature `loss.TAU`. Each
    query excludes its own row and its own positive where they are in the
    pool. Returns (LossOutput, the gradient of every row of z, the pool's
    added back onto its rows)."""
    n = z.shape[0] // 2
    negatives = z[pool]
    col_of = np.full(2 * n, -1, dtype=np.int64)
    col_of[pool] = np.arange(negatives.shape[0])
    excl = np.stack([col_of[:n], col_of[n:]], axis=1)  # own row and positive
    cfg = LossConfig(negatives=negatives.shape[0])
    out = info_nce(z[:n], z[n:], negatives, cfg, exclude_columns=excl)
    grad_z = np.concatenate([out.grad_queries, out.grad_positives])
    grad_z[pool] += out.grad_negatives
    return out, grad_z


# ── stage 1 ──────────────────────────────────────────────────────────────

def pretrain_2d(dataset: list, cfg: Stage1Config):
    """Pixel-level contrastive pre-training of the 2D encoder.

    The encoder trains in float32, the dtype EncoderParams2D.initialize
    makes; the head and the loss compute in float64. Returns
    (EncoderParams2D, HeadParams, TrainReport).
    """
    if not dataset:
        raise InvalidInput("dataset must be nonempty")
    enc = EncoderParams2D.initialize(cfg.seed, cfg.feature_dim)
    head = HeadParams.initialize(cfg.seed, cfg.feature_dim, cfg.embed_dim)
    audit = _NormAudit()

    def make_slot(img, rng):
        """(view a, view b, their sampled pixels a, b): views are drawn again
        from the slot's stream until two overlap, at most MAX_PAIR_RETRIES
        times."""
        for _ in range(MAX_PAIR_RETRIES):
            view_a, map_a = augment_image(img, cfg.spec_a, rng)
            view_b, map_b = augment_image(img, cfg.spec_b, rng)
            try:
                pix = match_positive_pixels(map_a, map_b, cfg.pixels_per_pair, rng)
            except EmptyOverlap:
                continue
            return (view_a.pixels, view_b.pixels, *pix)
        raise EmptyOverlap(f"no two views overlapped in {MAX_PAIR_RETRIES} tries")

    def score(slots, rng_iter):
        # batch: the views in slot order, a then b; rows: all query pixels
        # (A sides), then all positives (B sides)
        batch = np.stack([view for slot in slots for view in slot[:2]])
        sel = [slot[2] for slot in slots] + [slot[3] for slot in slots]
        slots.clear()  # so that the float64 views die with batch
        pix = np.concatenate(sel)
        view_ids = np.repeat(np.r_[0 : len(batch) : 2, 1 : len(batch) : 2], [len(p) for p in sel])

        # conv3 runs only at the distinct sampled pixels; one A pixel can
        # match several B pixels, so rows gather through the inverse. Each
        # array is dropped once its last reader returns, so that none lives
        # through the encoder's backward.
        flat = (view_ids * batch.shape[1] + pix[:, 1]) * batch.shape[2] + pix[:, 0]
        at, first, inv = np.unique(flat, return_index=True, return_inverse=True)
        feats, conv_cache = encode_images_forward(enc, batch, at=at)
        del batch
        z, head_cache = head_forward(head, feats[inv])
        del feats
        audit.take(z)
        cap = min(int(cfg.negative_cap), z.shape[0])
        pool = rng_iter.choice(z.shape[0], size=cap, replace=False)
        out, grad_rows = _batch_info_nce(z, pool)
        del z

        grad_sel, head_grads = head_backward(head, head_cache, grad_rows)
        del head_cache, grad_rows
        # sum the rows that share a pixel in float64 and in row order, as
        # np.add.at into zeros would: each pixel's first row, then its few
        # repeats; the encoder's backward casts the sum to its own dtype
        grad_feats = grad_sel[first]
        repeats = np.ones(inv.size, dtype=bool)
        repeats[first] = False
        np.add.at(grad_feats, inv[repeats], grad_sel[repeats])
        del grad_sel
        enc_grads = encode_images_backward(enc, conv_cache, grad_feats)
        return out, enc_grads, head_grads

    return enc, head, _train(1, cfg, enc, head, audit, dataset, make_slot, score)


# ── stage 2 ──────────────────────────────────────────────────────────────

def frozen_pixel_embeddings(
    enc2d: EncoderParams2D, head2d: HeadParams, pair: ScenePair, scan: PointCloud
):
    """The points of scan that win the z-buffer in pair's camera, and the
    unit-norm frozen embedding at each one's pixel: (point_index (n,),
    targets (n, M) float64). The encoder runs in its parameters' dtype, the
    head in float64."""
    corrs = build_correspondences(scan, pair.pose, pair.intrinsics)
    if len(corrs) == 0:
        return corrs.point_index, np.empty((0, head2d.embed_dim))
    # one winner per pixel, in ascending pixel order: conv3 runs only there
    at = corrs.pixel_row * pair.image.width + corrs.pixel_column
    feats, _ = encode_images_forward(enc2d, np.asarray(pair.image.pixels)[None], at=at)
    targets, _ = head_forward(head2d, feats)
    return corrs.point_index, targets


def pretrain_3d(dataset: list, frozen2d, cfg: Stage2Config):
    """Distill frozen pixel embeddings into the 3D encoder.

    dataset is a list of ScenePair; frozen2d is (EncoderParams2D,
    HeadParams), never updated. The frozen encoder runs in its own dtype
    (float32 from EncoderParams2D.initialize, as stage 1 trains it) and its
    head in float64, so the targets are float64 unit rows. Returns
    (EncoderParams3D, HeadParams, TrainReport). A slot's matches are its
    voxelised scan's own z-buffer winners in the pair's camera that survive
    the slot's dropout, matched once in set-up. Pairs that share one
    PointCloud object, as the pairs of pairs_from_scene do, share its
    voxelisation and its neighbour table; the cloud is frozen, so this
    equals giving each pair its own copy. Every slot augments its scan by
    `augment_cloud`'s one recipe, the constants of `augment`.
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

    def make_slot(entry, rng):
        """(the point encoder's rows at the slot's sampled points, its cache,
        their positives)"""
        vox, point_index, targets = entry
        cloud_aug, index_map = augment_cloud(vox, rng)
        rows = index_map[point_index]  # -1 where dropout removed a winner
        alive = np.flatnonzero(rows >= 0)
        if alive.size < 2:
            raise EmptyOverlap(f"{alive.size} of the scan's matches survived dropout")
        n_take = min(cfg.correspondences_per_pair, alive.size)
        pick = alive[rng.choice(alive.size, size=n_take, replace=False)]

        table_rows = winners[id(vox)]
        if id(vox) not in tables:
            width = NEIGHBOUR_TABLE_FACTOR * enc.k
            tables[id(vox)] = knn_indices(vox.positions, width, by_distance=True, rows=table_rows)
        nb = knn_from_table(tables[id(vox)], table_rows, index_map, vox.positions, enc.k, point_index[pick])
        feats, cache = point_forward(enc, cloud_aug.positions, cloud_aug.colors, nb, rows[pick])
        return feats, cache, targets[pick]

    def score(slots, rng_iter):
        feats_chunks, caches, pos_chunks = zip(*slots)
        zq, head_cache = head_forward(head, np.concatenate(feats_chunks))
        audit.take(zq)
        n = zq.shape[0]
        z = np.concatenate([zq, *pos_chunks])
        out, grad_z = _batch_info_nce(z, slice(0, pool_width * n))

        # the frozen targets receive no gradient: their rows grad_z[n:] are dropped
        grad_sel, head_grads = head_backward(head, head_cache, grad_z[:n])
        # the slots' gradients are summed into the first slot's arrays
        rows = np.split(grad_sel, np.cumsum([len(f) for f in feats_chunks[:-1]]))
        enc_grads = point_backward(enc, caches[0], rows[0])
        for cache, slot_rows in zip(caches[1:], rows[1:]):
            for name, grad in point_backward(enc, cache, slot_rows).items():
                enc_grads[name] += grad
        return out, enc_grads, head_grads

    report = _train(2, cfg, enc, head, audit, pairs, make_slot, score)
    report.frozen_checksum_start = checksum_start
    report.frozen_checksum_end = checkpoint_checksum(frozen_tensors)
    return enc, head, report
