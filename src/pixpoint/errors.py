"""Exception types shared across the package.

Out-of-view projection outcomes are NOT exceptions (they are ordinary
filtering results, see geometry.OutOfView); everything here signals a
broken precondition, malformed data, or an aborted run.
"""


class PixpointError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDepth(PixpointError):
    """Unprojection requested with depth <= 0."""


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


class ParseError(PixpointError):
    """Malformed file content.

    Attributes:
        offset: byte offset at which parsing failed (best effort).
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class RangeError(PixpointError):
    """A parsed value lies outside its documented range."""
