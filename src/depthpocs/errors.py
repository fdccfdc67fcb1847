"""Exception hierarchy.

Everything raised on purpose by this package derives from DepthPocsError,
so callers can catch library failures in one clause. The CLI maps these
onto process exit codes (see cli.py).
"""


class DepthPocsError(Exception):
    """Base class for all errors raised by depthpocs."""


class InvalidInputError(DepthPocsError, ValueError):
    """Numerical input violates an operation's preconditions."""


class CorruptDescriptionError(DepthPocsError, ValueError):
    """A quantized description is internally inconsistent."""


class InvalidConfigurationError(DepthPocsError, ValueError):
    """Camera setup is invalid or the camera pair is not rectified."""


class InvalidParameterError(DepthPocsError, ValueError):
    """A tuning parameter is outside its allowed range."""


class InvalidSceneError(DepthPocsError, ValueError):
    """A synthetic scene leaves pixels uncovered or is malformed."""


class NumericalError(DepthPocsError, ArithmeticError):
    """Iteration produced values outside sane numeric bounds."""


class ConfigError(DepthPocsError, ValueError):
    """A run configuration is missing, unreadable, or inconsistent."""


class PgmFormatError(DepthPocsError, ValueError):
    """A file does not parse as a binary 8- or 16-bit PGM graymap."""
