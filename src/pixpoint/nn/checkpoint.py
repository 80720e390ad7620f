"""Content checksum of a model's tensors.

The module keeps its name because the benchmark's tracer reports this
function as the span `checkpoint.checkpoint_checksum`.
"""

from __future__ import annotations

import hashlib

import numpy as np


def checkpoint_checksum(tensors: dict) -> str:
    """sha256 over names and exact tensor bytes (order independent)."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(tensors[name], dtype="<f8").tobytes())
    return h.hexdigest()
