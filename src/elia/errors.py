"""Exception types shared across the toolkit.

Each class carries the exit code the CLI returns for it, ``exit_code``: 1 by
default, 2 for store-file, store-version, backend and completion-format errors.
"""

from __future__ import annotations


class EliaError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class DuplicateIdError(EliaError):
    """An id was inserted twice into the same store collection."""


class StoreFormatError(EliaError):
    """A persisted dataset file is malformed; message names file and line."""

    exit_code = 2


class StoreVersionError(EliaError):
    """A persisted dataset was written with an unsupported format version."""

    exit_code = 2


class SchemaError(EliaError):
    """An input file is missing mandatory columns or fields."""


class ExtractionFormatError(EliaError):
    """A completion response could not be parsed into a transaction triple.

    Carries the raw response text so failed responses can be audited.
    """

    exit_code = 2

    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text


class BackendError(EliaError):
    """A completion backend call failed.

    ``retryable`` tells the batch driver whether another attempt makes sense
    (transport hiccups yes, deterministic mock misses no).
    """

    exit_code = 2

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


class RateLimitError(BackendError):
    """The backend asked us to slow down; honors a server-supplied delay."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message, retryable=True)
        self.retry_after = retry_after


class ConfigError(EliaError):
    """Invalid configuration (bad key, out-of-range value, missing API key)."""


class CycleError(EliaError):
    """Full propagation hit a cycle in strict mode, or a cycle that did not converge."""

    def __init__(self, message: str, cycle: list[str] | None = None):
        super().__init__(message)
        self.cycle = cycle or []


class NodeNotFoundError(EliaError, LookupError):
    """A graph query referenced a node that does not exist."""


class UsageError(EliaError):
    """A query or CLI invocation asked for something unsupported."""


class InputError(EliaError):
    """Caller-supplied data violates a contract (e.g. duplicate gold ids)."""
