"""Exception types raised across the toolkit."""


class MatsegError(Exception):
    """Base class for all toolkit errors."""


class MalformedObjError(MatsegError):
    """OBJ file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyMeshError(MatsegError):
    """Mesh has no faces or no surface area."""


class UnknownComponentError(MatsegError):
    """A label document references a component the mesh does not have."""


class NonFiniteGeometryError(MatsegError):
    """A vertex coordinate is NaN or infinite."""


class DegenerateGeometryError(MatsegError):
    """Point set is too degenerate (rank < 2) for rigid registration."""


class MissingUnariesError(MatsegError):
    """CRF construction was given no unary samples, or not one row per sample."""


class InterchangeError(MatsegError):
    """An interchange file is malformed or inconsistent; names the file and,
    where one is to blame, the line."""

    def __init__(self, path: str, message: str, line: int | None = None):
        where = path if line is None else f"{path}, line {line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class MissingDataError(MatsegError):
    """Training was given an empty dataset."""


class OracleSizeError(MatsegError):
    """Brute-force enumeration was asked for a graph that is too large."""


class InvalidKError(MatsegError):
    """Retrieval k exceeds the database size."""


class AlignmentError(MatsegError):
    """Predictions and ground truths have mismatched lengths."""


class ConfigError(MatsegError):
    """Configuration file contains unknown keys or invalid values."""
