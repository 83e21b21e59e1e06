"""Exception hierarchy shared across the package."""


class MsrError(Exception):
    """Base class for all package errors."""


class ParameterError(MsrError, ValueError):
    """Invalid or inconsistent parameters (bad code family constraints, ranges, flags)."""


class CorruptionError(MsrError, RuntimeError):
    """Data failed an integrity check (nonzero GRS residual, digest mismatch)."""


class DataLossError(MsrError, RuntimeError):
    """More nodes failed than the code can tolerate."""
