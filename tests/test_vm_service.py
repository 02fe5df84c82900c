"""Tests for the version manager's batch interface, its own counters and
the client version leases (:mod:`repro.vm`).

Four concerns:

* the batch primitives — ``multi_register`` / ``multi_complete`` apply a
  whole batch under one lock round per blob, preserve per-blob ticket
  order, isolate per-request errors, and keep ticket numbering
  gapless-after-reap when an abort lands mid-batch;
* threaded callers of a bare :class:`VersionManager` — tickets stay
  gap-free and in per-blob order, errors stay per request, and
  :class:`VMStats` counts each call as one batch with no call counted
  twice (the simulated VM node is where batches grow; ABL-vm);
* the client leases — GET_RECENT and published sizes are served from the
  :class:`~repro.vm.LeaseCache` with zero version-manager round trips once
  warm, publish notifications renew leases synchronously, the TTL and the
  entry budget are enforced, and a hypothesis property checks leased reads
  observe exactly what unleased reads observe across random
  write/branch/abort histories;
* the end-to-end accounting — ``ReadStats.vm_round_trips`` /
  ``WriteResult.vm_round_trips`` and the simulator's warm/cold
  ``vm_round_trips`` columns.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import BlobStore, Cluster
from repro.aio import SYNC_RUNTIME, run_sync
from repro.config import BlobSeerConfig
from repro.errors import (
    ConcurrencyError,
    InvalidRangeError,
    UnknownBlobError,
    VersionNotPublishedError,
)
from repro.sim.experiments import run_read_concurrency_experiment
from repro.version.records import CompletionNotice, RegisterRequest
from repro.version.version_manager import VersionManager, VMStats
from repro.vm import LeaseCache

from .conftest import TEST_PAGE_SIZE, make_payload

PAGE = TEST_PAGE_SIZE


def make_service(**config_overrides) -> VersionManager:
    return VersionManager(BlobSeerConfig(page_size=PAGE, **config_overrides))


def run_threads(count, target):
    threads = [threading.Thread(target=target, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ------------------------------------------------------------ batch primitives
class TestMultiRegister:
    def test_batch_assigns_versions_in_submission_order(self):
        vm = VersionManager(BlobSeerConfig(page_size=PAGE))
        blob = vm.create_blob().blob_id
        requests = [
            RegisterRequest(blob_id=blob, size=(i + 1) * PAGE, is_append=True)
            for i in range(5)
        ]
        tickets = vm.multi_register(requests)
        assert [t.version for t in tickets] == [1, 2, 3, 4, 5]
        # Append offsets chain through the batch exactly like sequential
        # registrations would.
        position = 0
        for ticket, request in zip(tickets, requests):
            assert ticket.byte_offset == position
            position += request.size

    def test_batch_spanning_blobs_takes_each_blob_once(self):
        vm = VersionManager(BlobSeerConfig(page_size=PAGE))
        blob_a = vm.create_blob().blob_id
        blob_b = vm.create_blob().blob_id
        tickets = vm.multi_register(
            [
                RegisterRequest(blob_id=blob_a, size=PAGE, is_append=True),
                RegisterRequest(blob_id=blob_b, size=PAGE, is_append=True),
                RegisterRequest(blob_id=blob_a, size=PAGE, is_append=True),
            ]
        )
        assert [t.version for t in tickets] == [1, 1, 2]

    def test_bad_request_fails_alone_not_the_batch(self):
        vm = VersionManager(BlobSeerConfig(page_size=PAGE))
        blob = vm.create_blob().blob_id
        results = vm.multi_register(
            [
                RegisterRequest(blob_id=blob, size=PAGE, is_append=True),
                RegisterRequest(blob_id=blob, size=PAGE, offset=10 * PAGE),
                RegisterRequest(blob_id="nope", size=PAGE, is_append=True),
                RegisterRequest(blob_id=blob, size=0, is_append=True),
                RegisterRequest(blob_id=blob, size=PAGE, is_append=True),
            ]
        )
        assert results[0].version == 1
        assert isinstance(results[1], InvalidRangeError)
        assert isinstance(results[2], UnknownBlobError)
        assert isinstance(results[3], InvalidRangeError)
        # The survivors get consecutive versions: the failed slots consumed
        # nothing.
        assert results[4].version == 2


class TestMultiComplete:
    def test_batch_publishes_once_per_blob(self):
        vm = VersionManager(BlobSeerConfig(page_size=PAGE))
        blob = vm.create_blob().blob_id
        tickets = [vm.register_update(blob, PAGE, is_append=True) for _ in range(4)]
        results = vm.multi_complete(
            [
                CompletionNotice(blob_id=blob, version=t.version)
                for t in reversed(tickets)
            ]
        )
        assert results == [None, None, None, None]
        assert vm.get_recent(blob) == 4

    def test_mid_batch_abort_keeps_ticket_order_gapless_after_reap(self):
        """An abort filed between completions behaves like three sequential
        RPCs: the aborted version becomes a hole that GET_RECENT skips, and
        the next registration continues the gapless version sequence."""
        vm = VersionManager(BlobSeerConfig(page_size=PAGE))
        blob = vm.create_blob().blob_id
        tickets = [vm.register_update(blob, PAGE, is_append=True) for _ in range(5)]
        notices = [
            CompletionNotice(blob_id=blob, version=tickets[0].version),
            CompletionNotice(blob_id=blob, version=tickets[1].version),
            CompletionNotice(blob_id=blob, version=tickets[2].version, kind="abort"),
            CompletionNotice(blob_id=blob, version=tickets[3].version),
            CompletionNotice(blob_id=blob, version=tickets[4].version),
        ]
        results = vm.multi_complete(notices)
        assert results == [None] * 5
        # All five published in one advance; the aborted v3 is a reaped hole.
        assert vm.get_recent(blob) == 5
        assert not vm.is_published(blob, 3)
        assert vm.is_published(blob, 2) and vm.is_published(blob, 4)
        # Numbering stays gapless: the next ticket is 6.
        assert vm.register_update(blob, PAGE, is_append=True).version == 6

    def test_per_notice_errors_do_not_poison_the_batch(self):
        vm = VersionManager(BlobSeerConfig(page_size=PAGE))
        blob = vm.create_blob().blob_id
        ticket = vm.register_update(blob, PAGE, is_append=True)
        results = vm.multi_complete(
            [
                CompletionNotice(blob_id=blob, version=99),
                CompletionNotice(blob_id=blob, version=ticket.version),
                CompletionNotice(blob_id="nope", version=1),
            ]
        )
        assert isinstance(results[0], ConcurrencyError)
        assert results[1] is None
        assert isinstance(results[2], UnknownBlobError)
        assert vm.get_recent(blob) == ticket.version


# ------------------------------------------------------ threaded callers
class TestGroupCommitWindow:
    """Threads calling one bare VersionManager: no window, no queue — each
    call is a batch of one, and the per-blob order and per-request errors
    the batch primitives promise hold under contention."""

    def test_window_preserves_per_blob_order_and_raises_per_request(self):
        service = make_service()
        blob = service.create_blob().blob_id
        window_error: list[BaseException] = []

        def bad_writer(_index):
            try:
                service.register_update(blob, PAGE, offset=100 * PAGE)
            except InvalidRangeError as error:
                window_error.append(error)

        run_threads(4, bad_writer)
        assert len(window_error) == 4
        # The failed registrations consumed no versions.
        assert service.register_update(blob, PAGE, is_append=True).version == 1
        stats = service.vm_stats()
        assert (stats.register_requests, stats.register_batches) == (5, 5)

    def test_threaded_completions_are_each_one_batch(self):
        service = make_service()
        blob = service.create_blob().blob_id
        writers = 6
        tickets = [
            service.register_update(blob, PAGE, is_append=True)
            for _ in range(writers)
        ]

        def completer(index):
            service.complete_update(blob, tickets[index].version)

        run_threads(writers, completer)
        stats = service.vm_stats()
        assert service.get_recent(blob) == writers
        assert stats.publish_requests == stats.publish_batches == writers
        assert stats.publish_max_batch == 1
        assert stats.lock_rounds_saved == 0

    def test_window_and_queue_survive_a_stress_mix(self):
        service = make_service()
        blob = service.create_blob().blob_id
        per_thread = 20
        threads = 6
        order_errors: list[str] = []
        last_seen = [0] * threads

        def worker(index):
            for i in range(per_thread):
                ticket = service.register_update(blob, PAGE, is_append=True)
                # One thread's tickets come out strictly increasing.
                if ticket.version <= last_seen[index]:
                    order_errors.append(f"{index}: {ticket.version}")
                last_seen[index] = ticket.version
                if (ticket.version + index) % 7 == 0:
                    service.abort_update(blob, ticket.version, "chaos")
                else:
                    service.complete_update(blob, ticket.version)

        run_threads(threads, worker)
        total = per_thread * threads
        assert order_errors == []
        # Every version assigned exactly once, gap-free, all resolved.
        assert service.inflight_count(blob) == 0
        recent = service.get_recent(blob)
        assert recent <= total
        assert service.register_update(blob, PAGE, is_append=True).version == total + 1
        stats = service.vm_stats()
        assert stats.register_requests == stats.register_batches == total + 1
        assert stats.publish_requests == stats.publish_batches == total
        assert stats.recent_calls == 1


class TestVMStats:
    """The version manager counts its own calls: every batch once, every
    query once, and no internal self-call twice."""

    def test_a_pre_assembled_batch_counts_one_round(self):
        vm = make_service()
        blob = vm.create_blob().blob_id
        results = vm.multi_register(
            [
                RegisterRequest(blob_id=blob, size=PAGE, is_append=True)
                for _ in range(5)
            ]
        )
        assert [t.version for t in results] == [1, 2, 3, 4, 5]
        vm.multi_complete(
            [CompletionNotice(blob_id=blob, version=v) for v in (1, 2)]
        )
        vm.multi_register([])  # an empty batch is no round
        stats = vm.vm_stats()
        assert (
            stats.register_requests,
            stats.register_batches,
            stats.register_max_batch,
        ) == (5, 1, 5)
        assert (
            stats.publish_requests,
            stats.publish_batches,
            stats.publish_max_batch,
        ) == (2, 1, 2)
        assert stats.lock_rounds_saved == 5

    def test_each_query_counts_once(self):
        vm = make_service()
        blob = vm.create_blob().blob_id
        ticket = vm.register_update(blob, PAGE, is_append=True)
        vm.complete_update(blob, ticket.version)
        vm.get_record(blob)
        vm.get_recent(blob)
        vm.recent_lease(blob)
        vm.get_size(blob, 1)
        vm.check_read(blob, 1)
        vm.sync(blob, 1)
        # Neither counted by the VM nor by any of the calls above.
        vm.is_published(blob, 1)
        vm.poll_sync(blob, 1)
        vm.inflight_count(blob)
        vm.branch(blob, 1)
        assert vm.vm_stats() == VMStats(
            register_requests=1,
            register_batches=1,
            register_max_batch=1,
            publish_requests=1,
            publish_batches=1,
            publish_max_batch=1,
            recent_calls=2,
            check_read_calls=1,
            size_calls=1,
            record_calls=1,
            sync_calls=1,
        )

    def test_cluster_hands_out_the_version_manager_itself(self, cluster):
        assert type(cluster.version_manager) is VersionManager
        store = BlobStore(cluster, cache_metadata=False, lease_versions=False)
        blob_id = store.create()
        store.sync(blob_id, store.append(blob_id, make_payload(PAGE)))
        stats = cluster.version_manager.vm_stats()
        assert (stats.register_requests, stats.register_batches) == (1, 1)
        assert (stats.publish_requests, stats.publish_batches) == (1, 1)


# ------------------------------------------------------------------- leases
class TestLeaseCache:
    def test_recent_hits_after_one_miss(self):
        service = make_service()
        lease = LeaseCache(service, ttl=60.0, max_entries=16)
        blob = service.create_blob().blob_id
        # Cold: one VM round trip.
        assert run_sync(lease.recent(blob, SYNC_RUNTIME)) == (0, 1)
        assert run_sync(lease.recent(blob, SYNC_RUNTIME)) == (0, 0)  # leased: zero
        stats = lease.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_publish_notification_renews_the_lease(self):
        service = make_service()
        lease = LeaseCache(service, ttl=60.0, max_entries=16)
        blob = service.create_blob().blob_id
        assert run_sync(lease.recent(blob, SYNC_RUNTIME)) == (0, 1)
        ticket = service.register_update(blob, 3 * PAGE, is_append=True)
        service.complete_update(blob, ticket.version)
        # No round trip, yet the lease already observes the publication:
        # the publish notification renewed it synchronously.
        assert run_sync(lease.recent(blob, SYNC_RUNTIME)) == (ticket.version, 0)
        assert lease.stats().renewals >= 1
        # The notification also seeded the published-size fact.
        size = run_sync(lease.published_size(blob, ticket.version, SYNC_RUNTIME))
        assert size == (3 * PAGE, 0)

    def test_ttl_expiry_forces_revalidation(self):
        clock = [0.0]
        service = make_service()
        lease = LeaseCache(
            service, ttl=1.0, max_entries=16, clock=lambda: clock[0]
        )
        blob = service.create_blob().blob_id
        assert run_sync(lease.recent(blob, SYNC_RUNTIME)) == (0, 1)
        clock[0] = 0.5
        assert run_sync(lease.recent(blob, SYNC_RUNTIME)) == (0, 0)  # still fresh
        clock[0] = 2.0
        assert run_sync(lease.recent(blob, SYNC_RUNTIME)) == (0, 1)  # expired: revalidated
        # A backwards clock (the simulator resets virtual time) never
        # expires a lease.
        clock[0] = 0.0
        assert run_sync(lease.recent(blob, SYNC_RUNTIME)) == (0, 0)

    def test_entry_budget_evicts_lru(self):
        service = make_service()
        lease = LeaseCache(service, ttl=60.0, max_entries=2)
        blobs = [service.create_blob().blob_id for _ in range(4)]
        for blob in blobs:
            run_sync(lease.recent(blob, SYNC_RUNTIME))
        stats = lease.stats()
        assert stats.leases <= 2
        assert stats.evictions > 0
        # The least recently used lease is gone: touching it costs a trip.
        assert run_sync(lease.recent(blobs[0], SYNC_RUNTIME)) == (0, 1)

    def test_published_size_negative_answers_are_not_cached(self):
        service = make_service()
        lease = LeaseCache(service, ttl=60.0, max_entries=16)
        blob = service.create_blob().blob_id
        ticket = service.register_update(blob, PAGE, is_append=True)
        with pytest.raises(VersionNotPublishedError):
            run_sync(lease.published_size(blob, ticket.version, SYNC_RUNTIME))
        service.complete_update(blob, ticket.version)
        # Published later: the earlier failure must not stick.
        size, _trips = run_sync(lease.published_size(blob, ticket.version, SYNC_RUNTIME))
        assert size == PAGE

    def test_record_facts_are_cached(self):
        service = make_service()
        lease = LeaseCache(service, ttl=60.0, max_entries=16)
        blob = service.create_blob().blob_id
        record, trips = run_sync(lease.record(blob, SYNC_RUNTIME))
        assert record.blob_id == blob and trips == 1
        record2, trips2 = run_sync(lease.record(blob, SYNC_RUNTIME))
        assert record2 is record and trips2 == 0


# ----------------------------------------------------- store-level accounting
class TestStoreVmRoundTrips:
    def test_warm_repeated_reads_pay_zero_vm_round_trips(self, cluster):
        store = BlobStore(
            cluster,
            cache_metadata=False,
            version_leases=LeaseCache(cluster.version_manager, ttl=300.0),
        )
        blob_id = store.create()
        payload = make_payload(6 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        data_cold, cold = store.read_ex(blob_id, version, 0, len(payload))
        data_warm, warm = store.read_ex(blob_id, version, 0, len(payload))
        assert data_cold == data_warm == payload
        # The writer's ticket/publication already warmed the record fact and
        # the publish notification seeded the size, so even the first read
        # can be partially leased; the repeated read pays exactly zero.
        assert warm.vm_round_trips == 0
        assert cold.vm_round_trips <= 2

    def test_unleased_store_pays_two_vm_trips_per_read(self, cluster):
        store = BlobStore(cluster, cache_metadata=False, lease_versions=False)
        blob_id = store.create()
        version = store.append(blob_id, make_payload(2 * PAGE))
        store.sync(blob_id, version)
        for _ in range(2):
            _, stats = store.read_ex(blob_id, version, 0, 2 * PAGE)
            assert stats.vm_round_trips == 2  # record + combined check_read

    def test_leased_and_unleased_reads_agree(self, cluster):
        leased = BlobStore(
            cluster,
            cache_metadata=False,
            version_leases=LeaseCache(cluster.version_manager, ttl=300.0),
        )
        unleased = BlobStore(cluster, cache_metadata=False, lease_versions=False)
        blob_id = leased.create()
        version = leased.append(blob_id, make_payload(4 * PAGE))
        leased.sync(blob_id, version)
        assert leased.get_recent(blob_id) == unleased.get_recent(blob_id)
        assert leased.get_size(blob_id, version) == unleased.get_size(
            blob_id, version
        )
        assert leased.read(blob_id, version, 0, 4 * PAGE) == unleased.read(
            blob_id, version, 0, 4 * PAGE
        )

    def test_write_vm_round_trips_cover_register_and_complete(self, cluster):
        store = BlobStore(
            cluster,
            cache_metadata=False,
            version_leases=LeaseCache(cluster.version_manager, ttl=300.0),
        )
        blob_id = store.create()
        result = store.append_ex(blob_id, make_payload(2 * PAGE))
        # Cold record lookup + register + cold recency lookup + complete.
        assert 2 <= result.vm_round_trips <= 4
        result2 = store.append_ex(blob_id, make_payload(2 * PAGE))
        # The record fact and the lease are warm now (the first append's
        # publish notification renewed the lease): register + complete only.
        assert result2.vm_round_trips == 2


# ---------------------------------------------------------------- simulator
class TestSimVersionOffice:
    def test_publish_office_survives_benign_notice_errors(self):
        """A stale one-way completion notice (its version already reaped)
        must be dropped — not wedge the office's drain loop forever."""
        from repro.sim.deployment import SimDeployment

        dep = SimDeployment(num_provider_nodes=2, page_size=4096)
        blob = dep.create_blob()
        vm = dep.version_manager
        ticket = vm.register_update(blob, 4096, is_append=True)
        vm.abort_update(blob, ticket.version, "raced with the reaper")
        dep.publish_office.post_delayed(
            CompletionNotice(blob_id=blob, version=ticket.version), 0.001
        )
        dep.simulator.run()
        assert dep.publish_office.dropped == 1
        # The office keeps draining later notices.
        ticket2 = vm.register_update(blob, 4096, is_append=True)
        dep.publish_office.post(
            CompletionNotice(blob_id=blob, version=ticket2.version)
        )
        dep.simulator.run()
        assert vm.get_recent(blob) == ticket2.version


class TestSimulatedLeases:
    def test_warm_sim_reads_skip_the_version_manager(self):
        samples = run_read_concurrency_experiment(
            num_provider_nodes=8,
            page_size=4096,
            blob_bytes=64 * 4096 * 8,
            chunk_bytes=64 * 4096,
            reader_counts=[1, 4],
            measure_warm=True,
        )
        for sample in samples:
            assert sample.avg_vm_round_trips == 2.0  # cold: record + check_read
            assert sample.warm_avg_vm_round_trips == 0.0  # leased
            assert sample.warm_avg_bandwidth_mbps >= sample.avg_bandwidth_mbps


# ------------------------------------------------------------- property test
history_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 3 * PAGE), st.integers(0, 255)),
        st.tuples(st.just("write"), st.integers(1, 2 * PAGE), st.integers(0, 255)),
        st.tuples(st.just("branch"), st.integers(0, 8), st.integers(0, 255)),
        st.tuples(st.just("abort"), st.integers(1, 2 * PAGE), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations=history_strategy)
def test_leased_reads_observe_unleased_state(operations):
    """Across random append/write/branch/abort histories, a leased client
    observes exactly the versions, sizes and bytes an unleased client does:
    publish notifications keep leases coherent, aborts leave holes both
    agree on."""
    cluster = Cluster.in_memory(
        num_data_providers=4, num_metadata_providers=4, page_size=PAGE
    )
    leased = BlobStore(
        cluster,
        cache_metadata=False,
        version_leases=LeaseCache(cluster.version_manager, ttl=300.0),
    )
    unleased = BlobStore(cluster, cache_metadata=False, lease_versions=False)

    blobs = [leased.create()]
    aborted: dict[str, list[int]] = {blobs[0]: []}
    for kind, size, seed in operations:
        blob_id = blobs[seed % len(blobs)]
        if kind == "append":
            version = leased.append(blob_id, make_payload(size, seed))
            leased.sync(blob_id, version)
        elif kind == "write":
            current = leased.get_size(blob_id, leased.get_recent(blob_id))
            offset = min(seed % (2 * PAGE), current)
            version = leased.write(blob_id, make_payload(size, seed), offset)
            leased.sync(blob_id, version)
        elif kind == "branch":
            recent = leased.get_recent(blob_id)
            if recent > 0:
                branched = leased.branch(blob_id, recent)
                blobs.append(branched)
                aborted[branched] = []
        else:  # abort: register then give up — a hole both clients skip
            service = cluster.version_manager
            ticket = service.register_update(blob_id, size, is_append=True)
            service.abort_update(blob_id, ticket.version, "property abort")
            aborted[blob_id].append(ticket.version)

        # After every operation the two clients agree on everything.
        for candidate in blobs:
            recent_l = leased.get_recent(candidate)
            recent_u = unleased.get_recent(candidate)
            assert recent_l == recent_u
            if recent_l > 0:
                size_l = leased.get_size(candidate, recent_l)
                assert size_l == unleased.get_size(candidate, recent_l)
                assert leased.read(candidate, recent_l, 0, size_l) == unleased.read(
                    candidate, recent_l, 0, size_l
                )
            for hole in aborted[candidate]:
                with pytest.raises(VersionNotPublishedError):
                    leased.get_size(candidate, hole)
                with pytest.raises(VersionNotPublishedError):
                    unleased.get_size(candidate, hole)
