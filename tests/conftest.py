"""Shared fixtures for the test suite.

Most tests run against a small in-memory cluster with a tiny page size so
that multi-page and multi-level-tree behaviour is exercised with small
buffers.
"""

from __future__ import annotations

import os

import pytest

from repro import BlobStore, Cluster
from repro.aio import SyncRuntime, run_sync
from repro.analysis.sanitizer import LockSanitizer
from repro.config import BlobSeerConfig

#: Tiny page size so a few hundred bytes already span many pages/tree levels.
TEST_PAGE_SIZE = 64


@pytest.fixture
def lock_sanitizer():
    """Install the runtime concurrency sanitizer for one test.

    Every ``threading.Lock``/``RLock`` (and ``Condition``) created while
    the test runs is instrumented: inconsistent lock orders and locks held
    across a real ``await`` raise immediately (see
    :mod:`repro.analysis.sanitizer`).  Locks created before the test —
    module-level and process-shared ones — stay unsanitized.
    """
    sanitizer = LockSanitizer()
    sanitizer.install()
    try:
        yield sanitizer
    finally:
        sanitizer.uninstall()


@pytest.fixture(autouse=True)
def _sanitize_from_env(request):
    """Sanitize every test when ``REPRO_SANITIZE=1`` (async/chaos CI jobs).

    Tests that already use ``lock_sanitizer`` are skipped here — only one
    sanitizer may be installed at a time.
    """
    if not os.environ.get("REPRO_SANITIZE"):
        yield
        return
    if "lock_sanitizer" in request.fixturenames:
        yield
        return
    sanitizer = LockSanitizer()
    sanitizer.install()
    try:
        yield
    finally:
        sanitizer.uninstall()


@pytest.fixture
def cluster() -> Cluster:
    """A small in-memory deployment (8 data providers, 8 DHT buckets)."""
    return Cluster.in_memory(
        num_data_providers=8,
        num_metadata_providers=8,
        page_size=TEST_PAGE_SIZE,
    )


@pytest.fixture
def store(cluster) -> BlobStore:
    """A cold-cache client: ``cache_metadata`` and ``cache_pages`` default
    to True (shared, LRU-bounded), but the suite's exact trip-count,
    DHT-traffic and provider-traffic assertions need cold-cache
    determinism; cache behaviour has its own tests with explicit
    :class:`~repro.cache.NodeCache` / :class:`~repro.cache.PageCache`
    instances."""
    return BlobStore(cluster, cache_metadata=False, cache_pages=False)


@pytest.fixture
def blob_id(store) -> str:
    return store.create()


@pytest.fixture
def replicated_cluster() -> Cluster:
    """A deployment with 3-way metadata replication and checksum verification."""
    config = BlobSeerConfig(
        page_size=TEST_PAGE_SIZE,
        num_data_providers=6,
        num_metadata_providers=6,
        metadata_replication=3,
        verify_checksums=True,
    )
    return Cluster(config)


def run_inline(method, batch, runtime=None, **kwargs):
    """Drive one batched ``*_async`` component call to completion without an
    event loop: ``method(batch, runtime, **kwargs)`` on a
    :class:`~repro.aio.SyncRuntime` (or the given subclass of it)."""
    if runtime is None:
        runtime = SyncRuntime()
    return run_sync(method(batch, runtime, **kwargs))


def make_payload(size: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-random payload of ``size`` bytes."""
    pattern = bytes((seed * 131 + index * 7) % 256 for index in range(251))
    repeats = -(-size // len(pattern))
    return (pattern * repeats)[:size]
