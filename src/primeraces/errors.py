"""Exception types shared across the package.

Each class carries the CLI's process exit code for it as ``exit_code``
(usage 2, capacity 3, I/O or parse 4, numeric non-convergence 5); the CLI
maps an ``OSError`` to 4 as well.
"""


class PrimeRacesError(Exception):
    """Base class for all package errors."""


class DomainError(PrimeRacesError, ValueError):
    """An argument is outside an operation's documented domain."""
    exit_code = 2


class CapacityError(PrimeRacesError):
    """A request exceeds the configured desk-scale limits."""
    exit_code = 3


class ParseError(PrimeRacesError):
    """A data file is malformed.  Carries the offending line number."""
    exit_code = 4

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ConvergenceError(PrimeRacesError):
    """A numeric routine could not reach the requested tolerance."""
    exit_code = 5
