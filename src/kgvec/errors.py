"""Exception types shared across the package.

The class of an error fixes the CLI's exit code: a ``DataError`` exits 2,
a ``ConfigError`` exits 1 and a ``NumericError`` exits 3.
"""


class KgvecError(Exception):
    """Base class for all kgvec errors."""


class ConfigError(KgvecError, ValueError):
    """Invalid or inconsistent configuration (exit 1): bad ranges, missing inputs."""


class NumericError(KgvecError):
    """A non-finite value appeared where a finite one is required (exit 3)."""


class DataError(KgvecError):
    """An input file or the data in it cannot be used (exit 2)."""


class ParseError(DataError):
    """A data file could not be parsed; message includes the line number."""


class EmptyCorpusError(DataError):
    """The corpus produced no tokens."""


class EmptyKGError(DataError):
    """No triples survived loading/filtering."""


class DegenerateDistributionError(DataError):
    """All sampling weights are zero."""


class CorruptionExhaustedError(DataError):
    """No valid corrupted triple was found within the attempt budget."""


class CheckpointError(DataError):
    """Checkpoint file is missing, truncated, or has a wrong magic/version."""


class UndefinedCorrelationError(DataError):
    """Rank correlation is undefined (fewer than two points or constant list)."""
