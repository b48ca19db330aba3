"""Error categories surfaced by the library; each carries its CLI exit code."""


class StreamHashError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class FormatError(StreamHashError):
    """A file does not follow its declared on-disk format."""
    exit_code = 2


class ConsistencyError(StreamHashError):
    """Companion inputs disagree (e.g. image/label counts differ)."""
    exit_code = 3


class DomainError(StreamHashError):
    """A value lies outside the documented domain of an operation."""
    exit_code = 3


class DimensionError(StreamHashError):
    """Matrix/code shapes do not agree."""
    exit_code = 4


class SplitError(StreamHashError):
    """A dataset split cannot be realized as requested."""
    exit_code = 3


class DegenerateDistributionError(StreamHashError):
    """A pair distribution would have zero total mass."""
    exit_code = 3


class NumericError(StreamHashError):
    """A non-finite value appeared where finite numbers are required."""
    exit_code = 5


class ConfigError(StreamHashError):
    """An experiment configuration failed validation."""
    exit_code = 2
