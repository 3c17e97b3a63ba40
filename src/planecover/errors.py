"""Exception hierarchy shared by all planecover modules.

Every error carries a short stable ``code`` so the command line tool can map
failures to exit codes and emit machine-readable diagnostics.
"""

from __future__ import annotations


class CoverError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class DimensionError(CoverError):
    """Vectors or classes of mismatched length / ambient surface."""

    code = "dimension"


class DomainError(CoverError):
    """Argument outside the mathematical domain of an operation."""

    code = "domain"


class DanglingReferenceError(CoverError):
    """A named center, point or component does not exist."""

    code = "reference"


class GeometryError(CoverError):
    """Geometrically invalid request (bad Cremona base triple, bad contraction)."""

    code = "geometry"


class ParityError(CoverError):
    """Branch degrees violate the evenness needed to halve a divisor class."""

    code = "parity"

    def __init__(self, message: str, character=None):
        super().__init__(message)
        self.character = character


class InconsistencyError(CoverError):
    """Data that should be internally consistent is not."""

    code = "inconsistency"


class PreconditionError(CoverError):
    """An operation was invoked on a model that violates its precondition."""

    code = "precondition"


class MatchError(CoverError):
    """No proposition of the taxonomy matches; message names the first failure."""

    code = "no-match"


class ReductionError(CoverError):
    """A Cremona reduction recipe met a configuration it cannot handle."""

    code = "reduction"


class NonTerminationError(CoverError):
    """The resolution loop exceeded its round budget."""

    code = "non-termination"

    def __init__(self, message: str, trail=None):
        super().__init__(message)
        self.trail = trail


class ConfigError(CoverError):
    """Configuration text failed to parse or validate.

    ``problems`` is a list of ``(line, column, message)`` triples, 1-based.
    """

    code = "config"

    def __init__(self, problems):
        self.problems = list(problems)
        text = "; ".join(f"{ln}:{col}: {msg}" for ln, col, msg in self.problems)
        super().__init__(text)
