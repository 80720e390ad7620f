"""Fixed small encoders with analytic gradients."""

from .checkpoint import checkpoint_checksum
from .conv2d import encode_images_backward, encode_images_forward
from .head import head_backward, head_forward
from .params import (
    DEFAULT_EMBED_DIM,
    DEFAULT_FEATURE_DIM,
    DEFAULT_KNN,
    EncoderParams2D,
    EncoderParams3D,
    HeadParams,
)
from .points import encode_points, knn_from_table, knn_indices, point_backward, point_forward

__all__ = [
    "DEFAULT_EMBED_DIM",
    "DEFAULT_FEATURE_DIM",
    "DEFAULT_KNN",
    "EncoderParams2D",
    "EncoderParams3D",
    "HeadParams",
    "checkpoint_checksum",
    "encode_images_backward",
    "encode_images_forward",
    "encode_points",
    "head_backward",
    "head_forward",
    "knn_from_table",
    "knn_indices",
    "point_backward",
    "point_forward",
]
