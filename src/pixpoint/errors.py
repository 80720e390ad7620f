"""Exception types shared across the package.

Points that project out of view are NOT errors: projection reports them
through a validity mask (see geometry.project_points). Everything here
signals a broken precondition, malformed data, or an aborted run.
"""


class PixpointError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(PixpointError, ValueError):
    """A data class (image, cloud, pose, camera, matches, pair), a transform
    descriptor, a stage, loss, optimiser or scene config, the learning-rate
    schedule, the loss, a stage driver or a data function (voxelize,
    build_correspondences, augment_cloud, match_positive_pixels) got bad
    values."""


class DegenerateCrop(PixpointError):
    """A crop window collapsed below 1x1 source pixels."""


class EmptyOverlap(PixpointError):
    """Two augmented views share no source pixels within tolerance."""


class EmptyCloud(PixpointError):
    """An augmentation dropped every point of a cloud."""


class DegenerateEmbedding(PixpointError):
    """A pre-normalization embedding row had norm below 1e-12."""


class NotNormalized(PixpointError):
    """Loss input rows were not unit-norm within tolerance."""


class BadTemperature(PixpointError):
    """Temperature outside (0, 1]."""


class ShapeError(PixpointError):
    """Parameter/gradient shape mismatch in the optimizer."""


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
