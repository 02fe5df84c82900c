"""The single update pipeline (``AsyncBlobStore._update``): every WRITE and
APPEND kind runs the same code, under both runtimes.

* a table over the five update kinds pins bytes (against a ``bytearray``
  model) and the exact trip counters each kind reported before the four
  hand-copied update paths were merged — unifying them must not move one;
* regression tests for the reference-snapshot rule (DESIGN.md §6): an
  update that keeps old bytes in a boundary page waits for its nearest
  NON-ABORTED predecessor, so an aborted predecessor neither zeroes an
  in-flight append's bytes nor cascades its abort into the next unaligned
  writer, and an in-flight earlier writer's bytes in a shared page are
  kept; an aligned WRITE reads no old bytes and never waits.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import AsyncBlobStore, BlobStore, Cluster

from .conftest import TEST_PAGE_SIZE, make_payload
from .test_async_store import _SyncAsAsync

PAGE = TEST_PAGE_SIZE

RUNTIMES = pytest.mark.parametrize(
    "event_loop", [False, True], ids=["sync", "event_loop"]
)

#: kind -> (sizes of the appends that set the blob up, operation, offset,
#: size, expected (vm_round_trips, data_round_trips, metadata_round_trips,
#: pages_written, border_nodes_fetched)).  Cold store (no node/page cache),
#: leases on, 8 providers, 64-byte pages; the first four numbers are what
#: the commit before the merge returned under either runtime, the last what
#: the level-by-level border plan fetched before the border walk moved onto
#: the engine's pipelined descent.  The cold store makes this the one table
#: where that walk fetches from the DHT.  An unaligned WRITE pays one SYNC
#: on its predecessor (none at v1); an aligned one reads no old bytes and
#: pays none.
UPDATE_KINDS = {
    "aligned_write": ([4 * PAGE], "write", PAGE, 2 * PAGE, (2, 2, 3, 2, 3)),
    "unaligned_write": ([4 * PAGE], "write", 30, 100, (3, 5, 3, 3, 2)),
    "unaligned_write_at_v1": ([], "write", 0, 100, (3, 2, 1, 2, 0)),
    "aligned_append": ([4 * PAGE], "append", None, 2 * PAGE, (2, 2, 1, 2, 0)),
    "unaligned_append": ([100], "append", None, 50, (3, 3, 2, 2, 1)),
}


def make_cluster(page_size: int = PAGE) -> Cluster:
    return Cluster.in_memory(
        num_data_providers=8, num_metadata_providers=8, page_size=page_size
    )


@RUNTIMES
@pytest.mark.parametrize("kind", UPDATE_KINDS)
def test_update_kinds_keep_bytes_and_trip_counters(kind, event_loop):
    setup, operation, offset, size, expected = UPDATE_KINDS[kind]

    async def scenario():
        knobs = dict(cache_metadata=False, cache_pages=False)
        cluster = make_cluster()
        store = (
            AsyncBlobStore(cluster, **knobs)
            if event_loop
            else _SyncAsAsync(BlobStore(cluster, **knobs))
        )
        blob_id = await store.create()
        model = bytearray()
        for seed, nbytes in enumerate(setup):
            result = await store.append_ex(blob_id, make_payload(nbytes, seed))
            await store.sync(blob_id, result.version)
            model += make_payload(nbytes, seed)
        data = make_payload(size, seed=9)
        if operation == "write":
            result = await store.write_ex(blob_id, data, offset)
            model[offset:offset + size] = data
        else:
            result = await store.append_ex(blob_id, data)
            model += data
        await store.sync(blob_id, result.version)
        read_back, _stats = await store.read_ex(
            blob_id, result.version, 0, len(model)
        )
        assert read_back == bytes(model)
        return result

    result = asyncio.run(scenario())
    assert result.version == len(setup) + 1
    assert result.bytes_written == size
    assert (
        result.vm_round_trips,
        result.data_round_trips,
        result.metadata_round_trips,
        result.pages_written,
        result.border_nodes_fetched,
    ) == expected


def open_engine(cluster: Cluster, event_loop: bool):
    """``(engine, update)``: the async core on the requested runtime, plus a
    coroutine function running one update (``update("append", blob_id,
    data)`` or ``update("write", blob_id, data, offset)``) *concurrently*
    with the caller — a task on the loop, or the blocking sync bridge on a
    worker thread.  Returns the update's version."""
    if event_loop:
        engine = AsyncBlobStore(cluster)

        async def update(method, *args):
            return await getattr(engine, method)(*args)

        return engine, update
    bridge = BlobStore(cluster)

    async def update(method, *args):
        versions = []
        worker = threading.Thread(
            target=lambda: versions.append(getattr(bridge, method)(*args)),
            daemon=True,  # a failing test must not hang on a blocked SYNC
        )
        worker.start()
        while worker.is_alive():
            await asyncio.sleep(0.01)
        return versions[0]

    return bridge._engine, update


async def finish_by_hand(engine, record, ticket, data, reference_version):
    """Carry an update whose ticket the test registered by hand through the
    rest of the pipeline: compose, store, weave, notify."""
    payloads, _data_trips, _vm_trips = await engine._compose_page_payloads(
        record, ticket, data, reference_version=reference_version
    )
    pending = engine._start_page_stores(payloads)
    await engine._finish_update(record, ticket, pending)


@RUNTIMES
def test_unaligned_append_after_an_abort_keeps_an_inflight_appends_bytes(
    event_loop,
):
    """v2 (in flight) and v4 append into the same 16-byte tail page; v3,
    between them, aborted.  v4 must wait for v2 — its nearest non-aborted
    predecessor — instead of falling back to the last *published* snapshot
    (v1), which published zeros over v2's bytes."""

    async def scenario():
        cluster = make_cluster(page_size=16)
        vm = cluster.version_manager
        engine, update = open_engine(cluster, event_loop)
        blob_id = await engine.create()
        v1 = await engine.append(blob_id, b"A" * 10)
        await engine.sync(blob_id, v1)
        record = vm.get_record(blob_id)
        ticket2 = vm.register_update(blob_id, 3, is_append=True)  # in flight
        ticket3 = vm.register_update(blob_id, 2, is_append=True)
        vm.abort_update(blob_id, ticket3.version, "writer died")
        appending = asyncio.ensure_future(update("append", blob_id, b"D" * 4))
        # Long enough for an append that does NOT wait for v2 to finish.
        await asyncio.sleep(0.2)
        await finish_by_hand(engine, record, ticket2, b"B" * 3, reference_version=1)
        v4 = await asyncio.wait_for(appending, timeout=10)
        await engine.sync(blob_id, v4)
        return v4, await engine.read(blob_id, v4, 0, 17)

    v4, data = asyncio.run(scenario())
    assert v4 == 4
    assert data == b"AAAAAAAAAABBBDDDD"


@RUNTIMES
def test_unaligned_write_after_an_aborted_predecessor_publishes(event_loop):
    """An aborted predecessor used to cascade: the next unaligned writer's
    SYNC on it raised ``UpdateAbortedError`` and aborted that writer too."""

    async def scenario():
        cluster = make_cluster(page_size=16)
        vm = cluster.version_manager
        engine, _update = open_engine(cluster, event_loop)
        blob_id = await engine.create()
        v1 = await engine.append(blob_id, b"a" * 20)
        await engine.sync(blob_id, v1)
        ticket2 = vm.register_update(blob_id, 4, offset=2)
        vm.abort_update(blob_id, ticket2.version, "writer died")
        v3 = await engine.write(blob_id, b"XYZ", 5)
        await engine.sync(blob_id, v3)
        return v3, await engine.read(blob_id, v3, 0, 20)

    v3, data = asyncio.run(scenario())
    assert v3 == 3
    assert data == b"a" * 5 + b"XYZ" + b"a" * 12


@RUNTIMES
def test_unaligned_write_into_an_inflight_writers_page(event_loop):
    """v2 (in flight) writes ``XX`` and v3 writes ``YY`` into the same
    16-byte page: v3 waits for v2 and keeps its bytes (DESIGN.md §6)."""

    async def scenario():
        cluster = make_cluster(page_size=16)
        vm = cluster.version_manager
        engine, update = open_engine(cluster, event_loop)
        blob_id = await engine.create()
        v1 = await engine.append(blob_id, b"a" * 16)
        await engine.sync(blob_id, v1)
        record = vm.get_record(blob_id)
        ticket2 = vm.register_update(blob_id, 2, offset=2)  # in flight
        writing = asyncio.ensure_future(update("write", blob_id, b"YY", 10))
        # Long enough for a write that does NOT wait for v2 to finish.
        await asyncio.sleep(0.2)
        await finish_by_hand(engine, record, ticket2, b"XX", reference_version=1)
        v3 = await asyncio.wait_for(writing, timeout=10)
        await engine.sync(blob_id, v3)
        return v3, await engine.read(blob_id, v3, 0, 16)

    v3, data = asyncio.run(scenario())
    assert v3 == 3
    assert data == b"aaXXaaaaaaYYaaaa"


def test_aligned_write_does_not_wait_for_an_inflight_predecessor():
    """An aligned WRITE reads no old bytes, so it neither SYNCs on v2
    (registered by hand, never completed) nor gives up its early page
    stores: it returns at once."""

    async def scenario():
        cluster = make_cluster(page_size=16)
        vm = cluster.version_manager
        engine = AsyncBlobStore(cluster)
        blob_id = await engine.create()
        v1 = await engine.append(blob_id, b"a" * 32)
        await engine.sync(blob_id, v1)
        vm.register_update(blob_id, 4, offset=2)  # v2, in flight for good
        result = await asyncio.wait_for(
            engine.write_ex(blob_id, b"X" * 16, 16), 1.0
        )
        return result, vm.get_recent(blob_id)

    result, recent = asyncio.run(scenario())
    assert result.version == 3
    assert result.vm_round_trips == 2  # register + complete, no SYNC
    assert recent == 1  # v3 waits behind v2 to publish, not to write
