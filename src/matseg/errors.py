"""Exception types raised across the toolkit."""


class MatsegError(Exception):
    """Base class for all toolkit errors."""


class EmptyMeshError(MatsegError):
    """Mesh has no faces or no surface area."""


class UnknownComponentError(MatsegError):
    """A label document references a component the mesh does not have."""


class NonFiniteGeometryError(MatsegError):
    """A vertex coordinate is NaN, infinite or too large to compute with."""


class MissingUnariesError(MatsegError):
    """CRF construction was given no unary samples, or not one row per sample."""


class InvalidGraphError(MatsegError, ValueError):
    """CRF edges name a missing face, or a coefficient is not a finite number
    in [0, 1]. Also a ValueError, which callers caught before it had a class."""


class InterchangeError(MatsegError):
    """An interchange file is malformed or inconsistent; names the file and,
    where one is to blame, the line."""

    def __init__(self, path: str, message: str, line: int | None = None):
        where = path if line is None else f"{path}, line {line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class MalformedObjError(InterchangeError):
    """An OBJ file could not be parsed; names the file and the line."""


class MissingDataError(MatsegError):
    """Training was given an empty dataset."""


class OracleSizeError(MatsegError):
    """Brute-force enumeration was asked for a graph that is too large."""


class InvalidKError(MatsegError):
    """A requested count k is below 1, or a retrieval k exceeds the
    database size."""


class AlignmentError(MatsegError):
    """Predictions and ground truths have mismatched lengths."""


class ConfigError(MatsegError):
    """Configuration file contains unknown keys or invalid values."""
