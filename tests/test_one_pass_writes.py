"""An update pays one pass over its bytes.

``AsyncBlobStore._update`` keeps an exact ``bytes`` input (or a view over
one) without copying it and copies any other buffer once; every page the
update covers alone is stored as a view of that immutable buffer, and a
checksum is computed only by a provider that verifies reads.  Each
property is checked on the sync runtime and on the event loop.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro import AsyncBlobStore, BlobSeerConfig, Cluster
from repro.aio import SYNC_RUNTIME, AsyncRuntime, run_sync
from repro.errors import IntegrityError
from repro.providers import page_store
from repro.sim import SimDeployment
from repro.util import integrity
from repro.vm import LeaseCache

from .conftest import TEST_PAGE_SIZE, make_payload

SYNC_AND_LOOP = [
    pytest.param(lambda: SYNC_RUNTIME, run_sync, id="sync"),
    pytest.param(AsyncRuntime, asyncio.run, id="async"),
]


def _cluster(**overrides) -> Cluster:
    return Cluster(
        BlobSeerConfig(
            page_size=TEST_PAGE_SIZE,
            num_data_providers=4,
            num_metadata_providers=4,
            **overrides,
        )
    )


def _store(cluster: Cluster, make_runtime) -> AsyncBlobStore:
    """A client that reads from the providers, never from a cache."""
    return AsyncBlobStore(
        cluster, cache_metadata=False, cache_pages=False, runtime=make_runtime()
    )


def _stored_payloads(cluster: Cluster) -> list:
    """Every payload held by the cluster's in-memory page stores."""
    return [
        payload
        for provider in cluster.provider_manager.providers()
        for payload in provider._store._pages.values()
    ]


def _update(store: AsyncBlobStore, run, data, offset: int | None):
    """Create a blob, APPEND ``data`` (``offset`` None) or WRITE it at
    ``offset``, publish it: ``(blob_id, version)``."""

    async def scenario():
        blob_id = await store.create()
        if offset is None:
            version = await store.append(blob_id, data)
        else:
            version = await store.write(blob_id, data, offset)
        await store.sync(blob_id, version)
        return blob_id, version

    return run(scenario())


class TestMutableInputs:
    """A caller may reuse its buffer the moment an update returns."""

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    @pytest.mark.parametrize("offset", [None, 0], ids=["append", "write"])
    @pytest.mark.parametrize(
        "wrap",
        [bytearray, lambda b: memoryview(bytearray(b))],
        ids=["bytearray", "view"],
    )
    def test_mutating_the_buffer_after_the_call_leaves_the_version_intact(
        self, make_runtime, run, offset, wrap
    ):
        store = _store(_cluster(), make_runtime)
        expected = make_payload(5 * TEST_PAGE_SIZE, seed=42)
        buffer = wrap(expected)
        blob_id, version = _update(store, run, buffer, offset)
        buffer[:] = bytes(len(expected))
        assert run(store.read(blob_id, version, 0, len(expected))) == expected
        # Nothing stored is a view of the caller's mutable buffer.
        for payload in _stored_payloads(store._cluster):
            assert not isinstance(payload, memoryview) or type(payload.obj) is bytes


class TestImmutableInputs:
    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    @pytest.mark.parametrize("offset", [None, 0], ids=["append", "write"])
    def test_full_pages_are_views_of_the_callers_bytes(self, make_runtime, run, offset):
        store = _store(_cluster(), make_runtime)
        payload = make_payload(4 * TEST_PAGE_SIZE, seed=7)
        blob_id, version = _update(store, run, payload, offset)
        stored = _stored_payloads(store._cluster)
        assert len(stored) == 4
        for page in stored:
            assert isinstance(page, memoryview) and page.readonly
            assert page.obj is payload
        assert run(store.read(blob_id, version, 0, len(payload))) == payload

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    def test_a_view_over_bytes_is_kept_without_a_copy(self, make_runtime, run):
        store = _store(_cluster(), make_runtime)
        backing = make_payload(6 * TEST_PAGE_SIZE, seed=3)
        window = memoryview(backing)[TEST_PAGE_SIZE : 5 * TEST_PAGE_SIZE]
        blob_id, version = _update(store, run, window, None)
        for page in _stored_payloads(store._cluster):
            assert page.obj is backing
        read = run(store.read(blob_id, version, 0, 4 * TEST_PAGE_SIZE))
        assert read == backing[TEST_PAGE_SIZE : 5 * TEST_PAGE_SIZE]

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    @pytest.mark.parametrize("offset", [None, 0], ids=["append", "write"])
    def test_a_one_page_input_is_stored_as_the_object_itself(
        self, make_runtime, run, offset
    ):
        store = _store(_cluster(), make_runtime)
        payload = make_payload(TEST_PAGE_SIZE, seed=9)
        _update(store, run, payload, offset)
        (stored,) = _stored_payloads(store._cluster)
        assert stored is payload

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    def test_only_boundary_pages_that_keep_old_bytes_are_copied(
        self, make_runtime, run
    ):
        cluster = _cluster()
        store = _store(cluster, make_runtime)
        old = make_payload(4 * TEST_PAGE_SIZE, seed=1)
        blob_id, _ = _update(store, run, old, None)
        before = {id(page) for page in _stored_payloads(cluster)}
        new = make_payload(2 * TEST_PAGE_SIZE, seed=2)
        offset = TEST_PAGE_SIZE // 2

        async def overwrite():
            version = await store.write(blob_id, new, offset)
            await store.sync(blob_id, version)
            return version

        version = run(overwrite())
        written = [p for p in _stored_payloads(cluster) if id(p) not in before]
        # Three pages: a copied head and tail around one view of ``new``.
        assert len(written) == 3
        assert sum(type(p) is bytes for p in written) == 2
        (interior,) = [p for p in written if isinstance(p, memoryview)]
        assert interior.obj is new
        expected = old[:offset] + new + old[offset + len(new) :]
        assert run(store.read(blob_id, version, 0, len(old))) == expected


class TestChecksumOnDemand:
    @pytest.fixture
    def checksum_calls(self, monkeypatch):
        calls = []
        real = integrity.checksum

        def counting(data, algorithm="crc32"):
            calls.append(len(data))
            return real(data, algorithm)

        monkeypatch.setattr(page_store, "checksum", counting)
        monkeypatch.setattr(integrity, "checksum", counting)
        return calls

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    def test_a_default_cluster_computes_no_checksum(
        self, make_runtime, run, checksum_calls
    ):
        store = _store(_cluster(), make_runtime)
        payload = make_payload(3 * TEST_PAGE_SIZE, seed=5)
        blob_id, version = _update(store, run, payload, None)
        assert run(store.read(blob_id, version, 0, len(payload))) == payload
        assert checksum_calls == []

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    def test_a_verifying_cluster_checksums_every_page(
        self, make_runtime, run, checksum_calls
    ):
        store = _store(_cluster(verify_checksums=True), make_runtime)
        payload = make_payload(3 * TEST_PAGE_SIZE, seed=5)
        _update(store, run, payload, None)
        assert checksum_calls == [TEST_PAGE_SIZE] * 3

    @pytest.mark.parametrize(("make_runtime", "run"), SYNC_AND_LOOP)
    def test_a_flipped_stored_byte_still_raises(self, make_runtime, run):
        cluster = _cluster(verify_checksums=True)
        store = _store(cluster, make_runtime)
        payload = make_payload(3 * TEST_PAGE_SIZE, seed=11)
        blob_id, version = _update(store, run, payload, None)
        providers = cluster.provider_manager.providers()
        provider = next(p for p in providers if p.page_count())
        page_id = provider.page_ids()[0]
        # The stored page is a view of ``payload``; corrupt a copy of it.
        assert isinstance(provider._store._pages[page_id], memoryview)
        corrupted = bytearray(provider._store._pages[page_id])
        corrupted[0] ^= 0xFF
        provider._store._pages[page_id] = bytes(corrupted)
        with pytest.raises(IntegrityError):
            run(store.read(blob_id, version, 0, len(payload)))


class TestSimulatedAppendPayload:
    def test_the_payload_is_a_read_only_view_of_the_shared_zeros(self):
        deployment = SimDeployment(num_provider_nodes=2, page_size=TEST_PAGE_SIZE)
        blob_id = deployment.create_blob()
        payload = deployment.append_payload(blob_id, 4 * TEST_PAGE_SIZE)
        assert isinstance(payload, memoryview) and payload.readonly
        assert payload == bytes(4 * TEST_PAGE_SIZE)
        assert deployment.untimed_append(blob_id, 4 * TEST_PAGE_SIZE) == 1


class TestLeaseCacheSubscription:
    def test_a_dropped_cache_unsubscribes_itself(self):
        cluster = Cluster.in_memory(
            num_data_providers=2, num_metadata_providers=2, page_size=TEST_PAGE_SIZE
        )
        vm = cluster.version_manager
        listeners = vm._publish_listeners
        baseline = len(listeners)  # the cluster's own lease cache
        kept = [LeaseCache(vm) for _ in range(3)]
        dropped = [LeaseCache(vm) for _ in range(50)]
        gone = [weakref.ref(cache) for cache in dropped]
        del dropped
        gc.collect()
        assert all(ref() is None for ref in gone)
        assert len(listeners) == baseline + len(kept)

        store = AsyncBlobStore(cluster, runtime=SYNC_RUNTIME)
        blob_id = run_sync(store.create())
        version = run_sync(store.append(blob_id, make_payload(TEST_PAGE_SIZE)))
        run_sync(store.sync(blob_id, version))
        # The publication reaches every live cache.
        assert [cache.stats().renewals for cache in kept] == [1, 1, 1]
        del kept
        gc.collect()
        assert len(listeners) == baseline
