"""Trainable parameter containers and seeded initialization.

All tensors are float64. Initialization is uniform in +-sqrt(6 / fan_in)
per layer, drawn deterministically from a seed. Containers expose their
tensors as ordered name->array dicts, and rebuild from them, so the
optimizer and the parameter checksum treat every model alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..rngutil import rng_for

DEFAULT_FEATURE_DIM = 16  # per-pixel / per-point feature width D
DEFAULT_EMBED_DIM = 16  # normalized embedding width M
DEFAULT_KNN = 8


def _uniform_init(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _TensorStruct:
    """Mixin: dataclass whose ndarray fields form an ordered tensor dict."""

    def tensors(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                out[f.name] = v
        return out

    @classmethod
    def from_tensors(cls, tensors: dict, **extra):
        expected = {f.name for f in fields(cls)}
        unknown = set(tensors) - expected
        if unknown:
            raise ValueError(f"unexpected tensors {sorted(unknown)} for {cls.__name__}")
        return cls(**tensors, **extra)


@dataclass
class EncoderParams2D(_TensorStruct):
    """Three 3x3 stride-1 pad-1 convolutions (3 -> 16 -> 32 -> D), ReLU after
    the first two. Kernels are laid out (out_ch, in_ch, kh, kw)."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    conv3_w: np.ndarray
    conv3_b: np.ndarray

    def __post_init__(self):
        d = self.conv3_w.shape[0]
        shapes = {
            "conv1_w": (16, 3, 3, 3),
            "conv1_b": (16,),
            "conv2_w": (32, 16, 3, 3),
            "conv2_b": (32,),
            "conv3_w": (d, 32, 3, 3),
            "conv3_b": (d,),
        }
        for name, want in shapes.items():
            got = getattr(self, name)
            if got.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {got.shape}")
            if not np.all(np.isfinite(got)):
                raise ValueError(f"{name} contains non-finite values")

    @property
    def feature_dim(self) -> int:
        return self.conv3_w.shape[0]

    @staticmethod
    def initialize(seed: int, feature_dim: int = DEFAULT_FEATURE_DIM) -> "EncoderParams2D":
        rng = rng_for(seed, "init2d")
        return EncoderParams2D(
            conv1_w=_uniform_init(rng, (16, 3, 3, 3), 3 * 9),
            conv1_b=_uniform_init(rng, (16,), 3 * 9),
            conv2_w=_uniform_init(rng, (32, 16, 3, 3), 16 * 9),
            conv2_b=_uniform_init(rng, (32,), 16 * 9),
            conv3_w=_uniform_init(rng, (feature_dim, 32, 3, 3), 32 * 9),
            conv3_b=_uniform_init(rng, (feature_dim,), 32 * 9),
        )


@dataclass
class EncoderParams3D(_TensorStruct):
    """Per-point MLP (6 -> 32 -> 32, ReLU), max over k nearest neighbours,
    then post MLP on [self || aggregate] (64 -> 64 -> D, ReLU between)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    v1: np.ndarray
    d1: np.ndarray
    v2: np.ndarray
    d2: np.ndarray
    k: int = DEFAULT_KNN

    def __post_init__(self):
        d = self.v2.shape[0]
        shapes = {
            "w1": (32, 6),
            "b1": (32,),
            "w2": (32, 32),
            "b2": (32,),
            "v1": (64, 64),
            "d1": (64,),
            "v2": (d, 64),
            "d2": (d,),
        }
        for name, want in shapes.items():
            got = getattr(self, name)
            if got.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {got.shape}")
            if not np.all(np.isfinite(got)):
                raise ValueError(f"{name} contains non-finite values")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def feature_dim(self) -> int:
        return self.v2.shape[0]

    @staticmethod
    def initialize(
        seed: int, feature_dim: int = DEFAULT_FEATURE_DIM, k: int = DEFAULT_KNN
    ) -> "EncoderParams3D":
        rng = rng_for(seed, "init3d")
        return EncoderParams3D(
            w1=_uniform_init(rng, (32, 6), 6),
            b1=_uniform_init(rng, (32,), 6),
            w2=_uniform_init(rng, (32, 32), 32),
            b2=_uniform_init(rng, (32,), 32),
            v1=_uniform_init(rng, (64, 64), 64),
            d1=_uniform_init(rng, (64,), 64),
            v2=_uniform_init(rng, (feature_dim, 64), 64),
            d2=_uniform_init(rng, (feature_dim,), 64),
            k=k,
        )


@dataclass
class HeadParams(_TensorStruct):
    """Linear map D -> M followed by L2 normalization (M <= D)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"inconsistent head shapes {self.weight.shape}, {self.bias.shape}"
            )
        m, d = self.weight.shape
        if m > d:
            raise ValueError(f"embedding width {m} exceeds feature width {d}")

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[0]

    @staticmethod
    def initialize(
        seed: int,
        feature_dim: int = DEFAULT_FEATURE_DIM,
        embed_dim: int = DEFAULT_EMBED_DIM,
    ) -> "HeadParams":
        rng = rng_for(seed, "inithead")
        return HeadParams(
            weight=_uniform_init(rng, (embed_dim, feature_dim), feature_dim),
            bias=_uniform_init(rng, (embed_dim,), feature_dim),
        )
