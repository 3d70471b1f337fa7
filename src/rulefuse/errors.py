"""Exception hierarchy. CLI maps DataError subclasses to exit code 2."""


class RuleFuseError(Exception):
    """Base class for all package errors."""


class DataError(RuleFuseError):
    """Invalid input data: bad files, misaligned volumes, out-of-range values."""


class AlignmentError(DataError):
    """Volumes disagree on dimensions or spacing."""


class VolumeFormatError(DataError):
    """Unreadable or malformed volume file."""


class DivergenceError(RuleFuseError):
    """Iterative fit produced a non-finite loss."""


class PackingError(DataError):
    """Phantom lesion placement failed after bounded retries."""
