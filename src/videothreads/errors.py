"""Exception hierarchy for the videothreads library.

Every failure mode that callers may want to catch individually gets its own
class; all of them descend from VideoThreadsError so a blanket handler is one
except-clause away.
"""


class VideoThreadsError(Exception):
    """Base class for all errors raised by this library."""


class ShapeError(VideoThreadsError):
    """An array argument has the wrong rank or incompatible dimensions."""


class NonFiniteError(VideoThreadsError):
    """An array argument contains NaN or infinity."""


class NonFiniteRowError(NonFiniteError):
    """A row of one matrix in a stack of them (one per video) holds NaN or
    infinity.

    The row index is available as ``.row`` and the matrix's index in the
    stack as ``.video``.
    """

    def __init__(self, row: int, context: str, video: int):
        self.row = row
        self.context = context
        self.video = video
        super().__init__(f"row {row} of video {video} of {context} contains non-finite entries")


class NotSymmetricError(VideoThreadsError):
    """A matrix required to be symmetric is not (beyond tolerance)."""


class ZeroNormRowError(VideoThreadsError):
    """A row that must have positive norm is (numerically) zero.

    The offending row index is available as ``.row``; in a stack of
    matrices (one per video) the matrix's index is ``.video``, else None.
    """

    def __init__(self, row: int, context: str = "input", video: int | None = None):
        self.row = row
        self.context = context
        self.video = video
        where = f"row {row}" if video is None else f"row {row} of video {video}"
        super().__init__(f"{where} of {context} has zero norm")


class ZeroDegreeError(VideoThreadsError):
    """An adjacency row sums to zero, so the degree normalization is undefined."""


class ConvergenceError(VideoThreadsError):
    """An iterative solver (the LAPACK symmetric eigensolve) failed to converge."""


class ClusteringError(VideoThreadsError):
    """Invalid clustering request (empty input, K out of range)."""


class GraphError(VideoThreadsError):
    """Invalid video-graph construction or transformation request."""


class DataError(VideoThreadsError):
    """Base class for file reading/writing failures."""


class BadMagicError(DataError):
    """A binary file does not start with the expected magic bytes."""


class TruncatedFileError(DataError):
    """A binary file ends before its header-declared payload."""


class PayloadShapeError(DataError):
    """A binary file's payload disagrees with its header dimensions."""


class SchemaError(DataError):
    """A JSON document violates its schema.

    The offending field path is available as ``.field`` and the complaint
    about it as ``.reason``.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.reason = message
        super().__init__(f"{field}: {message}")


class TimestampOrderError(SchemaError):
    """Timestamps in a file are not strictly increasing (field ``timestamps``)."""


class EmptyBatchError(VideoThreadsError):
    """A loss was asked to score a batch with no contributing pairs."""


class GradientError(VideoThreadsError):
    """A gradient computation produced non-finite values."""


class TrainingDivergedError(VideoThreadsError):
    """Training aborted because the loss became non-finite.

    The epoch at which divergence was detected is available as ``.epoch``.
    """

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"loss became non-finite at epoch {epoch}")


class ConfigError(VideoThreadsError):
    """A run configuration file contains unknown or invalid keys."""


class TaskError(VideoThreadsError):
    """Invalid zero-shot task request (bad query, empty candidates, ...)."""
