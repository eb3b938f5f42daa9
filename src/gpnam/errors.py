"""Exception types shared by the gpnam package.

Plain ``ValueError`` is raised for invalid arguments (bad shapes, non-finite
inputs, out-of-range parameters); the classes below cover failure modes that
callers are expected to distinguish. ``cli.main`` gives each an exit code:
``ValueError`` 1; ``DataError``, ``ModelFileError`` and
``UndefinedMetricError`` 2; ``NumericBreakdownError`` 4.
"""


class GpnamError(Exception):
    """Base class for all gpnam-specific errors."""


class DataError(GpnamError):
    """Problem with an input data file."""


class EmptyDataError(DataError):
    """The data file holds no usable rows."""


class MissingColumnError(DataError):
    """A required column is absent from the file header."""


class TargetClassError(DataError):
    """The classification target does not hold two distinct values, or holds an unseen one."""


class ModelFileError(GpnamError):
    """Base class for model (de)serialization failures."""


class MalformedModelError(ModelFileError):
    """The model file cannot be parsed or lacks required fields."""


class SchemaVersionError(ModelFileError):
    """The model file declares an unsupported schema version."""


class ModelInvariantError(ModelFileError):
    """The model file parsed but violates a model invariant."""


class NumericBreakdownError(GpnamError):
    """A numeric routine produced non-finite intermediates."""


class UndefinedMetricError(GpnamError):
    """The requested metric is undefined on the given inputs."""
