"""Exception hierarchy for the BlobSeer reproduction.

Every error raised by the public API derives from :class:`BlobSeerError`, so
applications can catch a single base class.  More specific subclasses mirror
the failure modes described in the paper's interface specification
(Section 2.1): reading an unpublished version, reading past the end of a
snapshot, writing past the end of the previous snapshot, and so on.
"""

from __future__ import annotations


class BlobSeerError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(BlobSeerError):
    """A configuration value is invalid (e.g. page size not a power of two)."""


class UnknownBlobError(BlobSeerError):
    """The supplied blob id does not identify any known blob."""

    def __init__(self, blob_id: str):
        super().__init__(f"unknown blob id: {blob_id!r}")
        self.blob_id = blob_id


class VersionNotPublishedError(BlobSeerError):
    """A snapshot version was referenced before being published.

    Raised by READ / GET_SIZE / BRANCH when the version exists but has not
    been published yet, or does not exist at all.
    """

    def __init__(self, blob_id: str, version: int):
        super().__init__(
            f"version {version} of blob {blob_id!r} has not been published"
        )
        self.blob_id = blob_id
        self.version = version


class InvalidRangeError(BlobSeerError):
    """A read or write range is invalid for the targeted snapshot.

    The paper specifies that a READ fails when ``offset + size`` exceeds the
    snapshot size, and a WRITE fails when ``offset`` exceeds the size of the
    previous snapshot.
    """


class PageNotFoundError(BlobSeerError):
    """A data provider was asked for a page id it does not store."""

    def __init__(self, page_id: str, provider_id: str | None = None):
        where = f" on provider {provider_id!r}" if provider_id else ""
        super().__init__(f"page {page_id!r} not found{where}")
        self.page_id = page_id
        self.provider_id = provider_id


class MetadataNotFoundError(BlobSeerError):
    """A metadata tree node is missing from the metadata provider (DHT)."""

    def __init__(self, key: object):
        super().__init__(f"metadata node not found: {key!r}")
        self.key = key


class ProviderUnavailableError(BlobSeerError):
    """A data or metadata provider is unreachable (killed / deregistered).

    With replication another replica can serve the same page or node: this
    is the error the failover read path acts on.
    """

    def __init__(self, provider_id: str):
        super().__init__(f"provider {provider_id!r} is unavailable")
        self.provider_id = provider_id


class NoProvidersError(BlobSeerError):
    """The provider manager has no registered providers to allocate from."""


class StoreClosedError(BlobSeerError):
    """An operation was issued against a closed client store.

    ``BlobStore.close()`` / ``AsyncBlobStore.aclose()`` are idempotent, but
    a closed store refuses further operations with this error instead of
    failing obscurely deeper in the stack.
    """

    def __init__(self, what: str = "store"):
        super().__init__(f"{what} is closed")


class UpdateAbortedError(BlobSeerError):
    """An in-flight update was aborted (by the client or by a timeout)."""

    def __init__(self, blob_id: str, version: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"update for version {version} of blob {blob_id!r} was aborted{detail}"
        )
        self.blob_id = blob_id
        self.version = version
        self.reason = reason


class ConcurrencyError(BlobSeerError):
    """An internal concurrency invariant was violated.

    This should never happen in normal operation; it indicates a bug in the
    version manager or in a caller driving the low-level API out of order
    (e.g. finishing an update that was never registered).
    """


class IntegrityError(BlobSeerError):
    """Stored data failed a checksum verification."""

    def __init__(self, what: str, expected: str, actual: str):
        super().__init__(
            f"integrity check failed for {what}: expected {expected}, got {actual}"
        )
        self.what = what
        self.expected = expected
        self.actual = actual


class ShortReadError(IntegrityError):
    """A page read returned fewer bytes than the requested window.

    Every read request is sized from the metadata tree (a leaf's recorded
    page length bounds what the client asks for), so a provider handing
    back less than the full window means the stored page was truncated or
    corrupted.  Before this error existed, the zero-copy path silently left
    the tail of the destination buffer untouched — serving zeros as data.
    """

    def __init__(self, what: str, expected: int, actual: int):
        super().__init__(what, f"{expected} bytes", f"{actual} bytes")


class SimulationError(BlobSeerError):
    """The discrete-event simulator was driven into an invalid state."""
