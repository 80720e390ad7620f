"""Exception types shared across the package, and the count check that
raises one.

Points that project out of view are NOT errors: projection reports them
through a validity mask (see geometry.project_points). Everything here
signals a broken precondition, malformed data, or an aborted run.
"""

import numpy as np


class PixpointError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(PixpointError, ValueError):
    """A data class (image, cloud, pose, camera, coordinate map, matches,
    pair, network parameters), a transform descriptor, a stage, loss or
    scene config, the learning-rate schedule, the loss, a stage driver, a
    data function (voxelize, build_correspondences, augment_cloud,
    match_positive_pixels) or a network function (the conv encoder, the
    head, the kNN searches, the point encoder) got bad values."""


def check_count(name: str, value, least: int) -> None:
    """Raise InvalidInput unless value is an int (a numpy integer counts, a
    bool does not) of at least least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidInput(f"{name} must be an int >= {least}")


class DegenerateCrop(PixpointError):
    """A crop window collapsed below 1x1 source pixels."""


class EmptyOverlap(PixpointError):
    """Two augmented views share no source pixels within tolerance, or a
    stage-2 slot keeps fewer than two of its scan's matched points."""


class EmptyCloud(PixpointError):
    """An augmentation dropped every point of a cloud."""


class DegenerateEmbedding(PixpointError):
    """A pre-normalization embedding row had norm below 1e-12."""


class NotNormalized(PixpointError):
    """Loss input rows were not unit-norm within tolerance."""


class ShapeError(PixpointError):
    """Parameter/gradient shape or dtype mismatch in the optimizer."""


class NonFiniteGradient(PixpointError):
    """A gradient tensor contained NaN or inf."""


class NonFiniteLoss(PixpointError):
    """The training loss became NaN or inf.

    Carries enough context (iteration, batch indices, root seed) to
    replay the offending batch deterministically.
    """


class IterationStarved(PixpointError):
    """Every pair/scene of a training iteration was skipped."""


class PlacementFailure(PixpointError):
    """Could not place a camera in free space within the retry budget."""
