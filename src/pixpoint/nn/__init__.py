"""Fixed small encoders with analytic gradients and checkpoint I/O."""

from .checkpoint import (
    checkpoint_checksum,
    load_checkpoint,
    load_model_2d,
    load_model_3d,
    save_checkpoint,
    save_model_2d,
    save_model_3d,
)
from .conv2d import encode_image, encode_images_backward, encode_images_forward
from .gradcheck import gradient_check
from .head import decode_normalize, head_backward, head_forward
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
    "decode_normalize",
    "encode_image",
    "encode_images_backward",
    "encode_images_forward",
    "encode_points",
    "gradient_check",
    "head_backward",
    "head_forward",
    "knn_from_table",
    "knn_indices",
    "load_checkpoint",
    "load_model_2d",
    "load_model_3d",
    "point_backward",
    "point_forward",
    "save_checkpoint",
    "save_model_2d",
    "save_model_3d",
]
