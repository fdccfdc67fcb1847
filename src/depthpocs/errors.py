"""Exception hierarchy.

Everything raised on purpose by this package derives from DepthPocsError,
so callers can catch library failures in one clause. Each class carries
the process exit code the CLI returns for it: 2 for an invalid
configuration or argument (a step size, a quality, an option, a map of the
wrong shape), 3 for an unreadable file, 4 for every other failure,
such as a description that no map in [0, 256] is coded to (see decode_map).
REPORTED lists every failure the CLI reports, and the only ones a forked
process passes back as they are (see _common.Forked): a library error
with its own code, OSError with 3, MemoryError and FloatingPointError with 4.
"""


class DepthPocsError(Exception):
    """Base class for all errors raised by depthpocs."""

    exit_code = 4


class InvalidInputError(DepthPocsError, ValueError):
    """Numerical input violates an operation's preconditions."""


class CorruptDescriptionError(DepthPocsError, ValueError):
    """A quantized description is internally inconsistent."""


class InvalidConfigurationError(DepthPocsError, ValueError):
    """Camera setup is invalid or the camera pair is not rectified."""

    exit_code = 2


class InvalidParameterError(InvalidInputError):
    """An option, step size or quality out of range, or a map of the wrong shape."""

    exit_code = 2


class InvalidSceneError(DepthPocsError, ValueError):
    """A synthetic scene leaves pixels uncovered or is malformed."""

    exit_code = 2


class ConfigError(DepthPocsError, ValueError):
    """A run configuration is missing, unreadable, or inconsistent."""

    exit_code = 2


class PgmFormatError(DepthPocsError, ValueError):
    """A file does not parse as a binary 8- or 16-bit PGM graymap."""

    exit_code = 3


REPORTED = (DepthPocsError, OSError, MemoryError, FloatingPointError)
