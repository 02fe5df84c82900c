"""Concurrent unaligned updates on one blob keep every byte (DESIGN.md §6).

Snapshot v is snapshot v-1 with the written range replaced, so an update
that keeps old bytes in a boundary page completes it from its exact
predecessor.  Two kinds of seeded history run on one event loop against an
:class:`AsyncBlobStore`:

* six coroutines mixing APPENDs and unaligned WRITEs on 16-byte pages — a
  WRITE that completed its tail page from the last *published* snapshot
  while its leaf recorded the size an in-flight APPEND had grown the blob
  to failed its later boundary reads with ``ShortReadError``;
* sixteen coroutines making unaligned WRITEs into one blob — completing a
  shared page from the last published snapshot dropped an in-flight
  earlier writer's bytes in it.

Each history checks that no update fails, that every returned version
reads back in full, and that every version equals the fold of the updates
up to it in version order.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro import AsyncBlobStore, Cluster
from repro.util.ranges import is_aligned


#: A history takes well under a second; one that wedges fails instead.
HISTORY_TIMEOUT_S = 60.0


def run_history(**params) -> None:
    asyncio.run(asyncio.wait_for(_run_history(**params), HISTORY_TIMEOUT_S))


async def _run_history(
    page_size: int,
    initial_size: int,
    clients: int,
    updates_per_client: int,
    max_update: int,
    append_share: float,
    seed: int,
) -> None:
    cluster = Cluster.in_memory(
        num_data_providers=8, num_metadata_providers=8, page_size=page_size
    )
    rng = random.Random(seed)
    #: version -> (offset, data); an APPEND's offset is None.
    updates: dict[int, tuple[int | None, bytes]] = {}
    async with AsyncBlobStore(cluster) as store:
        blob_id = await store.create()
        initial = rng.randbytes(initial_size)
        v1 = await store.append(blob_id, initial)
        await store.sync(blob_id, v1)
        updates[v1] = (None, initial)

        async def client(client_rng: random.Random) -> None:
            for _ in range(updates_per_client):
                await asyncio.sleep(client_rng.random() * 0.002)
                size = client_rng.randint(1, max_update)
                data = client_rng.randbytes(size)
                if client_rng.random() < append_share:
                    version = await store.append(blob_id, data)
                    updates[version] = (None, data)
                    continue
                recent = await store.get_recent(blob_id)
                current = await store.get_size(blob_id, recent)
                offset = client_rng.randrange(current)
                if is_aligned(offset, size, page_size):
                    size += 1
                    data += b"!"
                version = await store.write(blob_id, data, offset)
                updates[version] = (offset, data)

        await asyncio.gather(
            *(client(random.Random(rng.random())) for _ in range(clients))
        )
        last = max(updates)
        assert sorted(updates) == list(range(1, last + 1))
        await store.sync(blob_id, last)

        model = bytearray()
        for version in range(1, last + 1):
            offset, data = updates[version]
            if offset is None:
                model += data
            else:
                model[offset:offset + len(data)] = data
            assert await store.get_size(blob_id, version) == len(model)
            read_back = await store.read(blob_id, version, 0, len(model))
            assert read_back == bytes(model), f"version {version} of seed {seed}"


@pytest.mark.parametrize("seed", range(1, 11))
def test_appends_and_unaligned_writes_read_back_exactly(seed):
    """Six coroutines, six updates each, 16-byte pages: APPENDs and
    unaligned WRITEs below the published size (the ``ShortReadError``
    histories)."""
    run_history(
        page_size=16,
        initial_size=40,
        clients=6,
        updates_per_client=6,
        max_update=40,
        append_share=0.5,
        seed=seed,
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_sixteen_unaligned_writers_lose_no_byte(seed):
    """Sixteen coroutines × eight unaligned WRITEs into one 16 KiB blob of
    256-byte pages: the final version equals the version-ordered fold."""
    run_history(
        page_size=256,
        initial_size=16 * 1024,
        clients=16,
        updates_per_client=8,
        max_update=600,
        append_share=0.0,
        seed=seed,
    )
