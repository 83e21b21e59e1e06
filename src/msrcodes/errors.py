"""Exception hierarchy shared across the package."""


class MsrError(Exception):
    """Base class for all package errors."""


class ParameterError(MsrError, ValueError):
    """Invalid or inconsistent parameters (bad code family constraints, ranges, flags)."""


class CorruptionError(MsrError, RuntimeError):
    """Data failed an integrity check (digest or ledger mismatch, missing or malformed shard)."""


class DataLossError(MsrError, RuntimeError):
    """More nodes failed than the code can tolerate."""
