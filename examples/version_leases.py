"""Version leases and the version manager's batch counters.

Run with::

    python examples/version_leases.py

The version manager is the one serialization point of BlobSeer's design:
every update needs a ticket from it and every read used to check
publication with it.  This example shows how reads get off it and what
the writers cost it:

* lease configuration through ``BlobSeerConfig.vm_lease_*``;
* ``ReadStats.vm_round_trips`` dropping to zero for warm repeated reads;
* the version manager's own counters (``VMStats``): in-process every
  batch holds one request, and only a pre-assembled batch saves rounds.
"""

from __future__ import annotations

import threading

from repro import BlobStore, Cluster, LeaseCache
from repro.config import BlobSeerConfig, KiB
from repro.version.records import RegisterRequest


def main() -> None:
    # Lease knobs live on the deployment config: a 30-second recency lease
    # (renewed by publish notifications, so it is never stale in-process)
    # and room for 1024 leased blobs/facts per cache.
    config = BlobSeerConfig(
        page_size=4 * KiB,
        num_data_providers=8,
        num_metadata_providers=8,
        vm_lease_ttl=30.0,
        vm_lease_entries=1024,
    )
    cluster = Cluster(config)
    store = BlobStore(cluster)

    blob_id = store.create()
    version = store.append(blob_id, b"lease me" * 8 * KiB)
    store.sync(blob_id, version)

    # A separate reader with its own (cold) lease cache — the writer's
    # cache is already warm from its own publish notifications, so sharing
    # it would hide the cold trip this example wants to show.
    reader = BlobStore(
        cluster, version_leases=LeaseCache(cluster.version_manager, ttl=30.0)
    )
    # First read: the lease cache asks the version manager for the blob
    # record and the published size — two round trips, never more.
    _, cold = reader.read_ex(blob_id, version, 0, 16 * KiB)
    # Repeated read: the publication check is served entirely from the
    # lease cache — zero version-manager round trips.
    _, warm = reader.read_ex(blob_id, version, 0, 16 * KiB)
    print(f"cold read: vm_round_trips={cold.vm_round_trips}")
    print(f"warm read: vm_round_trips={warm.vm_round_trips} (lease hit)")
    assert cold.vm_round_trips == 2
    assert warm.vm_round_trips == 0

    # GET_RECENT is leased too; publish notifications renew it, so the
    # answer always matches the version manager's.
    print(f"leased get_recent: {store.get_recent(blob_id)} "
          f"(vm says {cluster.version_manager.get_recent(blob_id)})")

    # Concurrent appenders call the version manager directly.  An
    # in-process round takes microseconds, so each register_update is a
    # multi_register batch of one; only the simulated VM node, whose rounds
    # cost service time, queues requests into larger batches (see ABL-vm).
    def appender(index: int) -> None:
        for _ in range(4):
            store.append(blob_id, bytes([index]) * 4 * KiB)

    threads = [threading.Thread(target=appender, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # A batch can be handed over pre-assembled — one lock round issues
    # four tickets in submission order.
    tickets = cluster.version_manager.multi_register(
        [
            RegisterRequest(blob_id=blob_id, size=4 * KiB, is_append=True)
            for _ in range(4)
        ]
    )
    for ticket in tickets:
        cluster.version_manager.abort_update(blob_id, ticket.version, "demo only")

    stats = cluster.version_manager.vm_stats()
    print(f"tickets issued: {stats.register_requests} in "
          f"{stats.register_batches} lock rounds "
          f"(largest batch {stats.register_max_batch}, "
          f"{stats.lock_rounds_saved} rounds saved by group commit)")

    lease_stats = store.lease_stats()
    print(f"lease cache: hit rate {lease_stats.hit_rate:.2f}, "
          f"{lease_stats.renewals} publish renewals, "
          f"{lease_stats.leases} leases / {lease_stats.facts} facts held")


if __name__ == "__main__":
    main()
