"""Projection head: linear map D -> M followed by L2 normalization.

The head is the precision boundary of a float32 2D encoder: it casts its
features to float64 and computes in its own float64 parameters. So
embeddings are plain (N, M) float64 arrays with unit rows, whatever the
encoder's dtype, and the feature gradient is float64 (the encoder's
backward casts it to its own dtype). A row of norm below NORM_ABORT
raises DegenerateEmbedding; every other row is divided by its own norm.
The loss layer re-validates the norm invariant on its inputs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateEmbedding, InvalidInput
from .params import HeadParams

NORM_ABORT = 1e-12  # below this the row is considered corrupt


def head_forward(head: HeadParams, features: np.ndarray):
    """features (N, D) -> (embeddings (N, M) unit rows, cache)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != head.weight.shape[1]:
        raise InvalidInput(f"features must be (N, {head.weight.shape[1]}), got {features.shape}")
    if not np.all(np.isfinite(features)):
        raise InvalidInput("features contain non-finite values")
    y = features @ head.weight.T + head.bias
    norms = np.linalg.norm(y, axis=1)
    if norms.size and norms.min() < NORM_ABORT:
        bad = int(np.argmin(norms))
        raise DegenerateEmbedding(
            f"pre-normalization row {bad} has norm {norms[bad]:.3e} < {NORM_ABORT}"
        )
    z = y / norms[:, None]
    cache = {"features": features, "z": z, "norms": norms}
    return z, cache


def head_backward(head: HeadParams, cache: dict, grad_z: np.ndarray):
    """Returns (grad_features, {"weight": ..., "bias": ...})."""
    z = cache["z"]
    # d(y/||y||)/dy projects out the radial component and divides by ||y||
    radial = (grad_z * z).sum(axis=1, keepdims=True)
    grad_y = (grad_z - z * radial) / cache["norms"][:, None]
    grad_features = grad_y @ head.weight
    grads = {"weight": grad_y.T @ cache["features"], "bias": grad_y.sum(axis=0)}
    return grad_features, grads
