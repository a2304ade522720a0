"""Exception types shared across the package."""


class EinlabError(Exception):
    """Base class for all einlab errors."""


class InvalidRangeError(EinlabError, ValueError):
    """A numeric argument violates its documented range."""


class TooLargeError(EinlabError, ValueError):
    """Requested full state exceeds the memory guard (more than 24 spins)."""


class DimensionMismatchError(EinlabError, ValueError):
    """State-vector length does not match the environment size."""


class NoDecayError(EinlabError):
    """The coherence magnitude never dropped below the threshold on the grid."""


class ParseError(EinlabError, ValueError):
    """Malformed configuration text; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MissingKeyError(EinlabError, ValueError):
    """A key required by the selected mode is absent."""
