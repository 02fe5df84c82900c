"""Warm repeated reads: zero round trips on every axis.

Run with::

    python examples/warm_reads.py

A BlobSeer READ talks to three remote parties: the version manager (is the
snapshot published, how big is it), the metadata DHT (walk the segment
tree) and the data providers (fetch the pages).  Because everything a
published snapshot references is immutable, each leg has a never-invalidate
client cache:

* the version *lease* cache (PR 4)    — ``vm_round_trips``       -> 0
* the metadata *node* cache (PR 3)    — ``metadata_round_trips`` -> 0
* the page *payload* cache (PR 5)     — ``data_round_trips``     -> 0

This example reads the same range twice and prints each leg's round-trip
counter plus the page-cache statistics: the first (cold) read pays every
leg, the repeated (warm) read is served entirely from process memory.
"""

from __future__ import annotations

from repro import BlobStore, Cluster, NodeCache, PageCache
from repro.config import KiB
from repro.vm import LeaseCache


def main() -> None:
    cluster = Cluster.in_memory(
        num_data_providers=8, num_metadata_providers=8, page_size=4 * KiB
    )
    store = BlobStore(cluster)

    blob_id = store.create()
    payload = b"immutable pages never go stale " * 2048  # ~64 KiB
    version = store.append(blob_id, payload)
    store.sync(blob_id, version)

    # A separate reader: the writer's own caches are already warm from the
    # write (publish-time write-through), which would hide the cold trips
    # this example wants to show — so give the reader private cold caches.
    reader = BlobStore(
        cluster,
        node_cache=NodeCache(),
        page_cache=PageCache(),
        version_leases=LeaseCache(cluster.version_manager, ttl=30.0),
    )

    _, cold = reader.read_ex(blob_id, version, 0, len(payload))
    _, warm = reader.read_ex(blob_id, version, 0, len(payload))

    print("leg                      cold  warm")
    for leg, cold_trips, warm_trips in [
        ("version-manager trips", cold.vm_round_trips, warm.vm_round_trips),
        ("metadata round trips", cold.metadata_round_trips,
         warm.metadata_round_trips),
        ("data round trips", cold.data_round_trips, warm.data_round_trips),
    ]:
        print(f"{leg:<24} {cold_trips:>4}  {warm_trips:>4}")
    assert warm.vm_round_trips == 0
    assert warm.metadata_round_trips == 0
    assert warm.data_round_trips == 0

    pages = warm.pages_fetched
    print(f"\nwarm read served {pages} page ranges from the page cache "
          f"({warm.page_cache_hits} hits, hit rate "
          f"{warm.page_cache_hits / pages:.2f})")
    stats = reader.page_cache_stats()
    print(f"page cache: {stats.entries} entries, {stats.bytes} estimated "
          f"bytes, {stats.evictions} evictions")
    print("warm read: zero round trips on all three legs")


if __name__ == "__main__":
    main()
