"""Data-path fault tolerance: replication, failover, health, repair.

Covers the extensions DESIGN.md documents for the data leg: page
replication (`page_replication`), degraded reads with replica failover,
the `ProviderHealth` suspicion registry, the `RepairService`, and how all
of it composes with garbage collection under provider churn.
"""

import asyncio

import pytest

from repro import AsyncBlobStore, BlobStore, Cluster
from repro.aio import SyncRuntime
from repro.config import BlobSeerConfig
from repro.dht import DHT
from repro.errors import (
    ConfigurationError,
    PageNotFoundError,
    ProviderUnavailableError,
)
from repro.fault import ProviderHealth, RepairService
from repro.metadata.node import LeafNode
from repro.metadata.serialization import (
    LEAF_TAG,
    REPLICATED_LEAF_TAG,
    decode_node,
    encode_node,
)
from repro.providers.data_provider import DataProvider
from repro.providers.provider_manager import FaultTally, ProviderManager
from repro.tools.gc import collect_garbage

from .conftest import TEST_PAGE_SIZE, make_payload, run_inline

PAGE = TEST_PAGE_SIZE


def replicated_data_cluster(replicas: int = 2, providers: int = 6) -> Cluster:
    return Cluster(
        BlobSeerConfig(
            page_size=PAGE,
            num_data_providers=providers,
            num_metadata_providers=providers,
            page_replication=replicas,
            verify_checksums=True,
        )
    )


def uncached_store(cluster: Cluster) -> BlobStore:
    """Reads must hit the providers, not a cache, to exercise failover."""
    return BlobStore(cluster, cache_metadata=False, cache_pages=False)


def busiest_provider(cluster: Cluster) -> str:
    return max(
        cluster.provider_manager.providers(),
        key=lambda provider: (provider.page_count(), provider.provider_id),
    ).provider_id


class TestProviderHealth:
    def test_suspicion_threshold_and_clear(self):
        health = ProviderHealth(suspect_after=3)
        assert not health.record_failure("data-0000")
        assert not health.record_failure("data-0000")
        assert health.record_failure("data-0000")
        assert health.is_suspect("data-0000")
        assert health.suspects() == frozenset({"data-0000"})
        health.record_success("data-0000")
        assert not health.is_suspect("data-0000")
        assert health.consecutive_failures("data-0000") == 0

    def test_prefer_healthy_filters_unless_it_would_empty_the_pool(self):
        health = ProviderHealth(suspect_after=1)
        health.record_failure("data-0001")
        assert health.prefer_healthy(["data-0000", "data-0001"]) == ["data-0000"]
        # A suspect is still better than failing the operation outright.
        assert health.prefer_healthy(["data-0001"]) == ["data-0001"]

    def test_probe_clears_suspicion_of_revived_providers(self):
        health = ProviderHealth(suspect_after=1)
        provider = DataProvider("data-0000")
        provider.kill()
        health.record_failure("data-0000")
        assert health.probe([provider]) == []
        provider.revive()
        assert health.probe([provider]) == ["data-0000"]
        assert not health.is_suspect("data-0000")

    def test_allocation_steers_around_suspects(self):
        cluster = replicated_data_cluster(replicas=1, providers=4)
        suspect = cluster.provider_manager.allocatable_ids()[0]
        for _ in range(cluster.provider_health.suspect_after):
            cluster.provider_health.record_failure(suspect)
        chosen = cluster.provider_manager.allocate_replicas(8, 1)
        assert all(suspect not in replicas for replicas in chosen)


class TestConfigReplicationKnobs:
    def test_split_knobs_default_to_one(self):
        config = BlobSeerConfig()
        assert config.metadata_replication == 1
        assert config.page_replication == 1

    def test_alias_conflict_is_rejected(self):
        # The pre-split ``replication`` alias is gone: alone or next to the
        # knob it used to shadow, it is rejected like any unknown field.
        with pytest.raises(TypeError):
            BlobSeerConfig(replication=2)
        with pytest.raises(TypeError):
            BlobSeerConfig(replication=2, metadata_replication=3)
        assert not hasattr(BlobSeerConfig(), "replication")

    def test_metadata_replication_bounded_by_metadata_providers(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(num_metadata_providers=2, metadata_replication=3)

    def test_page_replication_bounded_by_data_providers(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(num_data_providers=2, page_replication=3)

    def test_removed_failure_knobs_are_not_config_fields(self):
        # Failover is the only failure path: no retry budget, backoff,
        # suspicion threshold or routing switch is configurable.
        for field in (
            "retry_attempts",
            "retry_backoff_base",
            "retry_backoff_max",
            "retry_jitter",
            "suspect_after",
            "replica_routing",
        ):
            with pytest.raises(TypeError):
                BlobSeerConfig(**{field: 1})
            assert not hasattr(BlobSeerConfig(), field)


class TestLeafSerializationCompatibility:
    def test_single_replica_leaf_keeps_the_legacy_wire_format(self):
        leaf = LeafNode(page_id="page-1", provider_id="data-0000", length=64)
        encoded = encode_node(leaf)
        assert encoded[:1] == LEAF_TAG
        # Byte-for-byte the pre-replication layout: u16 len + page id,
        # u16 len + provider id, u32 length.
        expected = (
            LEAF_TAG
            + (6).to_bytes(2, "big") + b"page-1"
            + (9).to_bytes(2, "big") + b"data-0000"
            + (64).to_bytes(4, "big")
        )
        assert encoded == expected
        assert decode_node(encoded) == leaf
        assert decode_node(encoded).provider_ids == ("data-0000",)

    def test_replicated_leaf_round_trips_with_replica_order(self):
        leaf = LeafNode(
            page_id="page-1",
            provider_id="data-0002",
            length=40,
            provider_ids=("data-0002", "data-0000", "data-0005"),
        )
        encoded = encode_node(leaf)
        assert encoded[:1] == REPLICATED_LEAF_TAG
        decoded = decode_node(encoded)
        assert decoded == leaf
        assert decoded.provider_ids == ("data-0002", "data-0000", "data-0005")
        assert decoded.provider_id == "data-0002"

    def test_leaf_rejects_inconsistent_replica_sets(self):
        with pytest.raises(ValueError):
            LeafNode(
                page_id="p", provider_id="a", length=1, provider_ids=("b", "a")
            )
        with pytest.raises(ValueError):
            LeafNode(
                page_id="p", provider_id="a", length=1, provider_ids=("a", "a")
            )


class TestAllocateReplicas:
    def test_replica_sets_are_distinct_with_primary_first(self):
        cluster = replicated_data_cluster(replicas=3, providers=6)
        sets = cluster.provider_manager.allocate_replicas(8, replicas=3)
        assert len(sets) == 8
        for replica_set in sets:
            assert len(replica_set) == 3
            assert len(set(replica_set)) == 3

    def test_degrades_to_available_providers(self):
        cluster = replicated_data_cluster(replicas=2, providers=3)
        for provider_id in list(cluster.provider_manager.allocatable_ids())[:2]:
            cluster.kill_data_provider(provider_id)
        sets = cluster.provider_manager.allocate_replicas(4, replicas=2)
        assert all(len(replica_set) == 1 for replica_set in sets)

    def test_single_replica_sets_match_plain_allocation_shape(self):
        cluster = replicated_data_cluster(replicas=1, providers=4)
        sets = cluster.provider_manager.allocate_replicas(6, replicas=1)
        assert all(len(replica_set) == 1 for replica_set in sets)


class TestReplicatedReadFailover:
    def test_any_single_provider_kill_leaves_every_read_servable(self):
        cluster = replicated_data_cluster(replicas=2, providers=6)
        store = uncached_store(cluster)
        blob_id = store.create()
        payload = make_payload(24 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        for provider_id in list(cluster.provider_manager.provider_ids()):
            cluster.kill_data_provider(provider_id)
            data, stats = store.read_ex(blob_id, version, 0, len(payload))
            assert data == payload  # degraded, never wrong and never failing
            cluster.revive_data_provider(provider_id)

    def test_degraded_reads_report_failovers(self):
        cluster = replicated_data_cluster(replicas=2, providers=6)
        store = uncached_store(cluster)
        blob_id = store.create()
        payload = make_payload(24 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)

        _, healthy = store.read_ex(blob_id, version, 0, len(payload))
        assert healthy.failovers == 0
        assert healthy.degraded == 0

        cluster.kill_data_provider(busiest_provider(cluster))
        data, stats = store.read_ex(blob_id, version, 0, len(payload))
        assert data == payload
        assert stats.failovers > 0
        assert stats.degraded > 0

    def test_single_replica_reads_still_fail_on_dead_provider(self):
        # page_replication=1 keeps the paper's semantics: the page has one
        # home and a dead home means an unavailable read.
        cluster = replicated_data_cluster(replicas=1, providers=4)
        store = uncached_store(cluster)
        blob_id = store.create()
        payload = make_payload(16 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        cluster.kill_data_provider(busiest_provider(cluster))
        with pytest.raises(ProviderUnavailableError):
            store.read_ex(blob_id, version, 0, len(payload))

    def test_double_failure_beyond_replication_surfaces(self):
        cluster = replicated_data_cluster(replicas=2, providers=4)
        store = uncached_store(cluster)
        blob_id = store.create()
        payload = make_payload(16 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        for provider_id in list(cluster.provider_manager.provider_ids()):
            cluster.kill_data_provider(provider_id)
        with pytest.raises(ProviderUnavailableError):
            store.read_ex(blob_id, version, 0, len(payload))


class TestReplicatedWrites:
    def test_writes_replicate_every_page(self):
        cluster = replicated_data_cluster(replicas=2, providers=6)
        store = uncached_store(cluster)
        blob_id = store.create()
        pages = 18
        version = store.append(blob_id, make_payload(pages * PAGE))
        store.sync(blob_id, version)
        assert cluster.stored_page_count() == pages * 2

    def test_degraded_write_lands_on_surviving_replicas(self):
        # A replica dying mid-write degrades redundancy, never the write.
        cluster = replicated_data_cluster(replicas=2, providers=3)
        store = uncached_store(cluster)
        blob_id = store.create()
        victim = cluster.provider_manager.provider_ids()[0]
        cluster.provider_manager.provider(victim).kill()  # dead but registered
        payload = make_payload(6 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 0, len(payload)) == payload


class TestRepairService:
    def test_repair_restores_replication_after_a_kill(self):
        cluster = replicated_data_cluster(replicas=2, providers=6)
        store = uncached_store(cluster)
        blob_id = store.create()
        pages = 24
        payload = make_payload(pages * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        repair_service = RepairService(cluster)

        victim = busiest_provider(cluster)
        lost = cluster.provider_manager.provider(victim).page_count()
        cluster.kill_data_provider(victim)
        assert repair_service.under_replicated() == lost

        report = repair_service.repair()
        assert report.pages_scanned == pages
        assert report.pages_re_replicated == lost
        assert report.copies_created == lost
        assert report.pages_unrecoverable == 0
        assert report.backlog == 0
        assert repair_service.under_replicated() == 0
        # Every page again has two LIVE copies (the replica-count scan the
        # acceptance criteria call for), and reads succeed.
        live_copies = sum(
            provider.page_count()
            for provider in cluster.provider_manager.providers()
            if provider.alive
        )
        assert live_copies == pages * 2
        assert store.read(blob_id, version, 0, len(payload)) == payload

    def test_repair_is_idempotent_on_a_healthy_cluster(self):
        cluster = replicated_data_cluster(replicas=2, providers=6)
        store = uncached_store(cluster)
        blob_id = store.create()
        version = store.append(blob_id, make_payload(12 * PAGE))
        store.sync(blob_id, version)
        report = RepairService(cluster).repair()
        assert report.pages_healthy == report.pages_scanned == 12
        assert report.leaves_rewritten == 0
        assert report.copies_created == 0

    def test_unrecoverable_pages_wait_for_their_holder_to_rejoin(self):
        cluster = replicated_data_cluster(replicas=1, providers=4)
        store = uncached_store(cluster)
        blob_id = store.create()
        version = store.append(blob_id, make_payload(8 * PAGE))
        store.sync(blob_id, version)
        repair_service = RepairService(cluster)

        victim = busiest_provider(cluster)
        lost = cluster.provider_manager.provider(victim).page_count()
        cluster.kill_data_provider(victim)
        report = repair_service.repair(target=1)
        assert report.pages_unrecoverable == lost
        assert report.backlog == lost

        cluster.revive_data_provider(victim)
        assert repair_service.under_replicated(target=1) == 0

    def test_rejoining_holder_may_leave_extra_copies(self):
        cluster = replicated_data_cluster(replicas=2, providers=6)
        store = uncached_store(cluster)
        blob_id = store.create()
        pages = 12
        payload = make_payload(pages * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        repair_service = RepairService(cluster)

        victim = busiest_provider(cluster)
        cluster.kill_data_provider(victim)
        repair_service.repair()
        cluster.revive_data_provider(victim)
        # The rejoined holder still has its pages: more live copies than the
        # target — harmless (DESIGN.md §5) and still fully repaired.
        assert repair_service.under_replicated() == 0
        assert cluster.stored_page_count() > pages * 2
        assert store.read(blob_id, version, 0, len(payload)) == payload


class TestGCWithReplicationAndChurn:
    def test_collect_garbage_deletes_every_replica(self):
        cluster = replicated_data_cluster(replicas=2, providers=6)
        store = uncached_store(cluster)
        blob_id = store.create()
        pages = 12
        v1 = store.append(blob_id, make_payload(pages * PAGE, seed=1))
        store.sync(blob_id, v1)
        payload2 = make_payload(pages * PAGE, seed=2)
        v2 = store.write(blob_id, payload2, 0)
        store.sync(blob_id, v2)
        assert cluster.stored_page_count() == 2 * pages * 2

        report = collect_garbage(cluster, {blob_id: [v2]})
        assert report.deleted_pages == pages * 2  # BOTH replicas of v1 pages
        assert cluster.stored_page_count() == pages * 2
        assert store.read(blob_id, v2, 0, len(payload2)) == payload2

    def test_repair_after_gc_does_not_resurrect_collected_pages(self):
        cluster = replicated_data_cluster(replicas=2, providers=6)
        store = uncached_store(cluster)
        blob_id = store.create()
        pages = 12
        v1 = store.append(blob_id, make_payload(pages * PAGE, seed=1))
        store.sync(blob_id, v1)
        v2 = store.write(blob_id, make_payload(pages * PAGE, seed=2), 0)
        store.sync(blob_id, v2)
        collect_garbage(cluster, {blob_id: [v2]})

        report = RepairService(cluster).repair()
        assert report.pages_scanned == pages  # only v2's pages are reachable
        assert report.copies_created == 0
        assert cluster.stored_page_count() == pages * 2

    def test_gc_skips_dead_providers_and_reads_stay_degraded_servable(self):
        cluster = replicated_data_cluster(replicas=2, providers=6)
        store = uncached_store(cluster)
        blob_id = store.create()
        pages = 12
        v1 = store.append(blob_id, make_payload(pages * PAGE, seed=1))
        store.sync(blob_id, v1)
        payload2 = make_payload(pages * PAGE, seed=2)
        v2 = store.write(blob_id, payload2, 0)
        store.sync(blob_id, v2)

        victim = busiest_provider(cluster)
        cluster.kill_data_provider(victim)
        report = collect_garbage(cluster, {blob_id: [v2]})
        assert victim in report.skipped_providers
        # GC composes with failover: the sweep survived the dead provider
        # AND the kept version reads fine through the surviving replicas.
        assert store.read(blob_id, v2, 0, len(payload2)) == payload2

        # Once the victim rejoins, a second (idempotent) pass reclaims the
        # v1 replicas it still holds.
        cluster.revive_data_provider(victim)
        second = collect_garbage(cluster, {blob_id: [v2]})
        assert second.skipped_providers == ()
        assert cluster.stored_page_count() == pages * 2


class _LoggingProvider(DataProvider):
    """DataProvider that logs every batched fetch that reached it."""

    def __init__(self, provider_id: str, log: list):
        super().__init__(provider_id)
        self._log = log

    def multi_fetch(self, requests):
        self._log.append(self.provider_id)
        return super().multi_fetch(requests)


class _ShortReadProvider(_LoggingProvider):
    """A live provider whose batches come back one byte short."""

    def multi_fetch(self, requests):
        return [payload[:-1] for payload in super().multi_fetch(requests)]


class _NoSleepRuntime(SyncRuntime):
    """SyncRuntime that records every sleep instead of blocking."""

    def __init__(self):
        self.sleeps: list[float] = []

    async def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)


def _manager(*providers: DataProvider) -> ProviderManager:
    manager = ProviderManager(health=ProviderHealth(suspect_after=1))
    for provider in providers:
        manager.register(provider)
    return manager


def _fetch(manager, failover=None, runtime=None):
    tally = FaultTally()
    payloads, trips = run_inline(
        manager.multi_fetch_into_async,
        [("p0", "page-x", 0, PAGE)],
        runtime,
        failover=failover,
        fault_tally=tally,
    )
    return payloads, trips, tally


class TestFailoverIsTheOnlyFailurePath:
    """A failed batch moves its requests to their next replica in the next
    wave; nothing sleeps and retries in place, and with one replica the
    error surfaces after the single attempt."""

    def test_dead_primary_fails_over_in_the_next_wave(self):
        log: list[str] = []
        p0, p1 = _LoggingProvider("p0", log), _LoggingProvider("p1", log)
        for provider in (p0, p1):
            provider.store_page("page-x", b"x" * PAGE)
        manager = _manager(p0, p1)
        p0.kill()
        payloads, trips, tally = _fetch(manager, failover=[("p0", "p1")])
        assert payloads == [b"x" * PAGE]
        assert log == ["p0", "p1"]  # the dead primary is asked once
        assert trips == 2
        assert (tally.failovers, tally.degraded) == (1, 1)
        assert manager.health.suspects() == frozenset({"p0"})

    def test_single_replica_failure_surfaces_after_one_attempt(self):
        log: list[str] = []
        p0 = _LoggingProvider("p0", log)
        p0.store_page("page-x", b"x" * PAGE)
        manager = _manager(p0)
        p0.kill()
        with pytest.raises(ProviderUnavailableError):
            _fetch(manager)
        assert log == ["p0"]

    def test_missing_page_fails_over_like_a_dead_provider(self):
        log: list[str] = []
        p0, p1 = _LoggingProvider("p0", log), _LoggingProvider("p1", log)
        p1.store_page("page-x", b"x" * PAGE)  # the primary never got it
        manager = _manager(p0, p1)
        payloads, trips, tally = _fetch(manager, failover=[("p0", "p1")])
        assert payloads == [b"x" * PAGE]
        assert log == ["p0", "p1"]
        assert (tally.failovers, tally.degraded) == (1, 1)
        # Without a second replica the same miss surfaces as itself.
        with pytest.raises(PageNotFoundError):
            _fetch(_manager(_LoggingProvider("p0", [])))

    def test_short_read_fails_over_like_a_dead_provider(self):
        log: list[str] = []
        p0, p1 = _ShortReadProvider("p0", log), _LoggingProvider("p1", log)
        for provider in (p0, p1):
            provider.store_page("page-x", b"x" * PAGE)
        manager = _manager(p0, p1)
        payloads, trips, tally = _fetch(manager, failover=[("p0", "p1")])
        assert payloads == [b"x" * PAGE]
        assert log == ["p0", "p1"]
        assert trips == 2
        assert tally.degraded == 1

    def test_a_revived_provider_serves_the_next_call(self):
        log: list[str] = []
        p0 = _LoggingProvider("p0", log)
        p0.store_page("page-x", b"x" * PAGE)
        manager = _manager(p0)
        p0.kill()
        with pytest.raises(ProviderUnavailableError):
            _fetch(manager)
        assert manager.health.is_suspect("p0")
        p0.revive()
        payloads, trips, _tally = _fetch(manager)
        assert payloads == [b"x" * PAGE]
        assert trips == 1
        assert log == ["p0", "p0"]  # one attempt per call, none in between
        assert not manager.health.is_suspect("p0")

    def test_dead_primary_bucket_fails_over_in_the_next_wave(self):
        dht = DHT(num_buckets=4, replication=2)
        run_inline(dht.multi_put_async, [("key", "value")])
        primary, secondary = dht.buckets_for("key")
        dht.kill_bucket(primary)
        gets_before = dht.bucket(secondary).stats.gets
        assert dht.multi_get(["key"]) == ["value"]
        assert dht.bucket(secondary).stats.gets == gets_before + 1
        assert dht._ranked_buckets_for("key") == (secondary, primary)

    def test_single_replica_bucket_failure_surfaces_at_once(self):
        dht = DHT(num_buckets=4, replication=1)
        run_inline(dht.multi_put_async, [("key", "value")])
        (home,) = dht.buckets_for("key")
        dht.kill_bucket(home)
        with pytest.raises(ProviderUnavailableError):
            dht.multi_get(["key"])
        dht.revive_bucket(home)
        assert dht.multi_get(["key"]) == ["value"]

    def test_put_lands_on_surviving_replicas_and_fails_when_none_accepts(self):
        dht = DHT(num_buckets=4, replication=2)
        primary, secondary = dht.buckets_for("key")
        dht.kill_bucket(primary)
        run_inline(dht.multi_put_async, [("key", "value")])
        assert dht.multi_get(["key"]) == ["value"]
        dht.kill_bucket(secondary)
        with pytest.raises(ProviderUnavailableError):
            run_inline(dht.multi_put_async, [("key", "other")])

    def test_failover_never_sleeps(self):
        p0, p1 = DataProvider("p0"), DataProvider("p1")
        for provider in (p0, p1):
            provider.store_page("page-x", b"x" * PAGE)
        manager = _manager(p0, p1)
        p0.kill()
        runtime = _NoSleepRuntime()
        payloads, _trips, _tally = _fetch(
            manager, failover=[("p0", "p1")], runtime=runtime
        )
        assert payloads == [b"x" * PAGE]
        dht = DHT(num_buckets=4, replication=2)
        run_inline(dht.multi_put_async, [("key", "value")], runtime)
        dht.kill_bucket(dht.buckets_for("key")[0])
        assert run_inline(dht.multi_get_async, ["key"], runtime) == ["value"]
        assert runtime.sleeps == []

    def test_async_store_read_fails_over_dead_primaries(self):
        cluster = Cluster(
            BlobSeerConfig(
                page_size=PAGE,
                num_data_providers=4,
                num_metadata_providers=4,
                page_replication=2,
                metadata_replication=2,
            )
        )

        async def scenario():
            store = AsyncBlobStore(cluster, cache_metadata=False, cache_pages=False)
            blob_id = await store.create()
            payload = make_payload(16 * PAGE)
            version = await store.append(blob_id, payload)
            await store.sync(blob_id, version)
            cluster.kill_data_provider(busiest_provider(cluster))
            cluster.kill_metadata_bucket(cluster.dht.bucket_ids()[0])
            return payload, await store.read_ex(blob_id, version, 0, len(payload))

        payload, (data, stats) = asyncio.run(scenario())
        assert data == payload
        assert stats.failovers > 0
        assert stats.degraded > 0
