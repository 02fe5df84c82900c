"""Data-path fault tolerance: replication, failover, retry, health, repair.

Covers the extensions DESIGN.md documents for the data leg: page
replication (`page_replication`), degraded reads with replica failover,
the deterministic `RetryPolicy`, the `ProviderHealth` suspicion registry,
the `RepairService`, and how all of it composes with garbage collection
under provider churn.
"""

import random

import pytest

from repro import BlobStore, Cluster
from repro.config import BlobSeerConfig
from repro.errors import (
    ConfigurationError,
    IntegrityError,
    MetadataNotFoundError,
    PageNotFoundError,
    ProviderUnavailableError,
    is_retryable,
)
from repro.fault import ProviderHealth, RepairService, RetryPolicy
from repro.metadata.node import LeafNode
from repro.metadata.serialization import (
    LEAF_TAG,
    REPLICATED_LEAF_TAG,
    decode_node,
    encode_node,
)
from repro.providers.data_provider import DataProvider
from repro.providers.provider_manager import ProviderManager
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


class TestRetryableClassification:
    def test_provider_unavailable_is_retryable(self):
        assert is_retryable(ProviderUnavailableError("data-0000"))

    def test_durable_failures_are_not_retryable(self):
        assert not is_retryable(MetadataNotFoundError("key"))
        assert not is_retryable(PageNotFoundError("page"))
        assert not is_retryable(IntegrityError("page-1", "aa", "bb"))
        assert not is_retryable(ValueError("not even a BlobSeerError"))


class TestRetryPolicy:
    def test_default_is_noop_and_raises_immediately(self):
        sleeps = []
        policy = RetryPolicy(sleep=sleeps.append)
        assert policy.is_noop
        calls = []

        def flaky():
            calls.append(1)
            raise ProviderUnavailableError("data-0000")

        with pytest.raises(ProviderUnavailableError):
            policy.run(flaky)
        assert len(calls) == 1
        assert sleeps == []

    def test_exponential_backoff_is_deterministic_without_jitter(self):
        sleeps = []
        policy = RetryPolicy(
            attempts=4,
            backoff_base=0.1,
            backoff_max=0.3,
            jitter=0.0,
            sleep=sleeps.append,
        )
        attempts = []

        def succeeds_third_time():
            attempts.append(1)
            if len(attempts) < 3:
                raise ProviderUnavailableError("data-0000")
            return "ok"

        assert policy.run(succeeds_third_time) == "ok"
        assert sleeps == pytest.approx([0.1, 0.2])
        # The cap kicks in at retry 3: 0.1 * 2**2 = 0.4 -> 0.3.
        assert policy.delay(3) == pytest.approx(0.3)

    def test_jitter_is_seeded_and_bounded(self):
        make = lambda: RetryPolicy(  # noqa: E731
            attempts=2,
            backoff_base=0.2,
            backoff_max=1.0,
            jitter=0.5,
            sleep=lambda _s: None,
            rng=random.Random(2009),
        )
        delays_a = [make().delay(1) for _ in range(1)]
        delays_b = [make().delay(1) for _ in range(1)]
        assert delays_a == delays_b  # same seed, same jitter
        for _ in range(50):
            delay = make().delay(1)
            assert 0.1 <= delay <= 0.2  # within [base*(1-jitter), base]

    def test_non_retryable_errors_pass_through_unretried(self):
        calls = []
        policy = RetryPolicy(attempts=5, sleep=lambda _s: None)

        def broken():
            calls.append(1)
            raise PageNotFoundError("page-1")

        with pytest.raises(PageNotFoundError):
            policy.run(broken)
        assert len(calls) == 1

    def test_budget_exhaustion_reraises_and_reports_failures(self):
        failures = []
        policy = RetryPolicy(attempts=3, jitter=0.0, sleep=lambda _s: None)

        def always_down():
            raise ProviderUnavailableError("data-0000")

        with pytest.raises(ProviderUnavailableError):
            policy.run(
                always_down,
                on_failure=lambda error, attempt: failures.append(attempt),
            )
        assert failures == [1, 2]  # the final failure is raised, not hooked

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=0.5, backoff_max=0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)

    def test_retry_recovers_a_provider_that_revives(self):
        """End-to-end through the provider manager's batch dispatch."""
        provider = DataProvider("data-0000", verify_checksums=True)
        provider.store_page("page-1", b"x" * PAGE)

        def revive_on_sleep(_seconds):
            provider.revive()

        manager = ProviderManager(
            retry_policy=RetryPolicy(attempts=2, sleep=revive_on_sleep)
        )
        manager.register(provider)
        provider.kill()
        payloads, trips = run_inline(
            manager.multi_fetch_into_async, [("data-0000", "page-1", 0, PAGE)]
        )
        assert payloads == [b"x" * PAGE]
        assert trips == 1


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
        for _ in range(cluster.config.suspect_after):
            cluster.provider_health.record_failure(suspect)
        chosen = cluster.provider_manager.allocate(8)
        assert suspect not in chosen


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

    def test_retry_knobs_are_validated(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(retry_attempts=0)
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(retry_jitter=2.0)
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(retry_backoff_base=1.0, retry_backoff_max=0.1)
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(suspect_after=0)


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
        # home and a dead home means an unavailable (retryable) read.
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
