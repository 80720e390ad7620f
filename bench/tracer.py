"""Span tracer that wraps pixpoint functions from outside the package.

`Tracer.installed()` replaces every public pixpoint function that the
modules in TRACED_MODULES hold as an attribute with a wrapper that records
a span (name, start, end, parent). The library calls those functions
through its own module globals, so the wrappers see every call without a
change under src/. The originals are put back when the block exits, also
when it exits by an exception.

Self time of a span is its duration minus the durations of its direct
child spans. `Tracer.summary()` folds the spans into per-layer sums:
iteration-phase spans (inside pretrain_* and not inside a set-up span)
are reported as self seconds, set-up spans as inclusive seconds.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time

TRACED_MODULES = ("pixpoint.pipeline", "pixpoint.nn.points", "pixpoint.nn.conv2d")

# Defining module -> layer prefix of the span name. Functions from any
# other module (rngutil, numpy, dataclasses) are left unwrapped, so their
# time counts as the caller's self time.
LAYER_OF_MODULE = {
    "pixpoint.augment": "augment",
    "pixpoint.geometry": "geometry",
    "pixpoint.loss": "loss",
    "pixpoint.optim": "optim",
    "pixpoint.pipeline": "pipeline",
    "pixpoint.synthdata": "synthdata",
    "pixpoint.nn.checkpoint": "checkpoint",
    "pixpoint.nn.conv2d": "conv2d",
    "pixpoint.nn.head": "head",
    "pixpoint.nn.points": "points",
}

ROOT_SPANS = ("pipeline.pretrain_2d", "pipeline.pretrain_3d")
# Spans that run once per training run, before or after the iterations.
SETUP_SPANS = (
    "synthdata.generate_scene",
    "geometry.voxelize",
    "pipeline.frozen_pixel_embeddings",
    "checkpoint.checkpoint_checksum",
)

# conv3x3_* input channels -> layer number (EncoderParams2D: 3 -> 16 -> 32 -> D)
_CONV_OF_CIN = {3: 1, 16: 2, 32: 3}


def _conv_name(kind):
    def name(args, kwargs):
        w = args[1] if len(args) > 1 else kwargs["w"]
        return f"conv2d.conv{_CONV_OF_CIN.get(w.shape[1], '?')}_{kind}"

    return name


# span name -> function of (args, kwargs) giving a more specific name
NAMERS = {
    "conv2d.conv3x3_forward": _conv_name("fwd"),
    "conv2d.conv3x3_backward": _conv_name("bwd"),
}


def _pool_cols(args, kwargs, out):
    n = args[0].shape[0]
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    if cfg.negatives == "all_in_batch":
        return 2 * n
    if cfg.negatives == "other_queries":
        return n
    return int(cfg.negatives)


# span name -> function of (args, kwargs, result) giving one number per call
NOTES = {
    "points.knn_indices": lambda args, kwargs, out: args[0].shape[0],
    "loss.info_nce": _pool_cols,
    "geometry.build_correspondences": lambda args, kwargs, out: len(out),
}

# iteration-phase span -> (self-time metric, calls metric)
ITER_METRICS = {
    "conv2d.conv1_fwd": ("conv2d.conv1_fwd_s", "conv2d.conv1_fwd_calls"),
    "conv2d.conv2_fwd": ("conv2d.conv2_fwd_s", "conv2d.conv2_fwd_calls"),
    "conv2d.conv3_fwd": ("conv2d.conv3_fwd_s", "conv2d.conv3_fwd_calls"),
    "conv2d.conv1_bwd": ("conv2d.conv1_bwd_s", "conv2d.conv1_bwd_calls"),
    "conv2d.conv2_bwd": ("conv2d.conv2_bwd_s", "conv2d.conv2_bwd_calls"),
    "conv2d.conv3_bwd": ("conv2d.conv3_bwd_s", "conv2d.conv3_bwd_calls"),
    "conv2d.encode_images_forward": ("conv2d.encode_self_s", "conv2d.encode_calls"),
    "conv2d.encode_images_backward": ("conv2d.encode_self_s", "conv2d.encode_calls"),
    "points.knn_indices": ("points.knn_indices_s", "points.knn_indices_calls"),
    "points.point_forward": ("points.point_forward_self_s", "points.point_forward_calls"),
    "points.point_backward": ("points.point_backward_s", "points.point_backward_calls"),
    "loss.info_nce": ("loss.info_nce_s", "loss.info_nce_calls"),
    "augment.augment_image": ("augment.augment_image_s", "augment.augment_image_calls"),
    "augment.match_positive_pixels": (
        "augment.match_positive_pixels_s",
        "augment.match_positive_pixels_calls",
    ),
    "augment.augment_cloud": ("augment.augment_cloud_s", "augment.augment_cloud_calls"),
    "geometry.build_correspondences": (
        "geometry.build_correspondences_s",
        "geometry.build_correspondences_calls",
    ),
    "head.head_forward": ("head.forward_s", "head.forward_calls"),
    "head.head_backward": ("head.backward_s", "head.backward_calls"),
    "optim.sgd_step": ("optim.sgd_step_s", "optim.sgd_step_calls"),
}

# set-up span -> (inclusive-time metric, calls metric), reported per training run
SETUP_METRICS = {
    "synthdata.generate_scene": ("synthdata.generate_scene_s", "synthdata.generate_scene_calls"),
    "geometry.voxelize": ("geometry.voxelize_s", "geometry.voxelize_calls"),
    "pipeline.frozen_pixel_embeddings": (
        "pipeline.frozen_pixel_embeddings_s",
        "pipeline.frozen_pixel_embeddings_calls",
    ),
}

# iteration-phase span -> metric holding the mean of its NOTES value
MEAN_METRICS = {
    "points.knn_indices": "points.knn_n",
    "loss.info_nce": "loss.pool_cols",
    "geometry.build_correspondences": "geometry.corrs_per_slot",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "ok", "note")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ok = True
        self.note = None


def _window_self_time(children) -> float:
    """Root self time from the start of its first iteration-phase child to
    the end of its last: the training loop's own Python, without the set-up
    work (norm audit, parameter init) that the root does before the loop."""
    loop = [c for c in children if c.name not in SETUP_SPANS]
    if not loop:
        return 0.0
    start, end = min(c.start for c in loop), max(c.end for c in loop)
    inside = sum(c.end - c.start for c in children if start <= c.start and c.end <= end)
    return (end - start) - inside


class Tracer:
    """Keeps spans in memory; one instance per traced training run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        except BaseException:
            s.ok = False
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        namer = NAMERS.get(name)
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            with self.span(namer(args, kwargs) if namer else name) as s:
                out = fn(*args, **kwargs)
                if note:
                    s.note = note(args, kwargs, out)
                return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced modules' pixpoint functions; restore them on exit."""
        saved = []
        try:
            for mod_name in TRACED_MODULES:
                module = importlib.import_module(mod_name)
                for attr, fn in list(vars(module).items()):
                    layer = LAYER_OF_MODULE.get(getattr(fn, "__module__", None))
                    if attr.startswith("_") or layer is None or not inspect.isfunction(fn):
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(fn, f"{layer}.{fn.__name__}"))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self) -> dict:
        """Per-layer sums over every span recorded so far (JSON-ready)."""
        child_time = [0.0] * len(self.spans)
        children = [[] for _ in self.spans]
        phase = [None] * len(self.spans)  # "iter", "setup" or None (outside training)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
                children[s.parent].append(s)
            up = phase[s.parent] if s.parent is not None else None
            if s.name in SETUP_SPANS or up == "setup":
                phase[i] = "setup"
            elif s.name in ROOT_SPANS or up == "iter":
                phase[i] = "iter"

        iter_s, iter_calls, setup_s, setup_calls = {}, {}, {}, {}
        note_sum, note_n = {}, {}
        driver_self = covered = 0.0
        match_ok = match_calls = 0
        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            if s.name in ROOT_SPANS:
                driver_self += _window_self_time(children[i])
                continue
            if phase[i] == "setup" and s.name in SETUP_METRICS:
                t, c = SETUP_METRICS[s.name]
                setup_s[t] = setup_s.get(t, 0.0) + dur
                setup_calls[c] = setup_calls.get(c, 0) + 1
            if phase[i] != "iter":
                continue
            if self.spans[s.parent].name in ROOT_SPANS:
                covered += dur
            if s.name in ITER_METRICS:
                t, c = ITER_METRICS[s.name]
                iter_s[t] = iter_s.get(t, 0.0) + dur - child_time[i]
                iter_calls[c] = iter_calls.get(c, 0) + 1
            if s.name in MEAN_METRICS and s.note is not None:
                m = MEAN_METRICS[s.name]
                note_sum[m] = note_sum.get(m, 0.0) + s.note
                note_n[m] = note_n.get(m, 0) + 1
            if s.name == "augment.match_positive_pixels":
                match_calls += 1
                match_ok += s.ok
        return {
            "iter_s": iter_s,
            "iter_calls": iter_calls,
            "setup_s": setup_s,
            "setup_calls": setup_calls,
            "note_sum": note_sum,
            "note_n": note_n,
            "driver_self_s": driver_self,
            "covered_s": covered,
            "match_ok": match_ok,
            "match_calls": match_calls,
        }
