"""Exception types shared across the package."""


class LongRemixError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LongRemixError):
    """A parameter or configuration value is invalid."""


class StateError(LongRemixError):
    """An operation was requested in a state that cannot honor it."""


class ParseError(LongRemixError):
    """A file could not be parsed; the message names the file and the
    offending row when known."""

    def __init__(self, message, row=None, path=None):
        if row is not None:
            message = f"row {row}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
