"""Tests of the cold-path latency treatment (DESIGN.md §9): speculative
frontier prefetch and cache-aware replica routing — plus the
counter-documentation contract those features extend.

The headline properties:

* speculation is INVISIBLE — byte-identical reads, identical
  ``metadata_nodes_fetched`` and round-trip counters; only the
  ``speculative_*`` pair may differ (and ``speculative_wasted`` is the only
  counter allowed to measure the over-fetch);
* routing is a stable no-op without suspects — an unreplicated or
  signal-free deployment behaves bit-identically to the pre-routing system.
"""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AsyncBlobStore, Cluster
from repro.cache import NodeCache, PageCache
from repro.config import KiB, MiB
from repro.core.async_store import ReadStats, WriteResult
from repro.dht import DHT
from repro.fault import ProviderHealth
from repro.fault.routing import rank_replicas
from repro.providers import DataProvider, ProviderManager
from repro.providers.provider_manager import FaultTally
from repro.sim.experiments import run_read_concurrency_experiment

from .conftest import TEST_PAGE_SIZE, make_payload, run_inline
from .test_async_store import _drive_history, history_strategy

PAGE = 64


class TestRankReplicas:
    def test_no_signals_is_an_exact_no_op(self):
        replicas = ("a", "b", "c")
        assert rank_replicas(replicas) == replicas
        assert rank_replicas(replicas, suspects=frozenset()) == replicas

    def test_suspects_rank_last_and_order_is_stable(self):
        ranked = rank_replicas(("a", "b", "c", "d"), suspects={"a", "c"})
        assert ranked == ("b", "d", "a", "c")



class TestCounterDocumentation:
    """Every ReadStats/WriteResult counter must carry a ``#:`` doc comment.

    The counters are the repo's observable contract (the benchmarks pin
    them); an undocumented field is a field whose semantics the next PR
    will silently change.
    """

    @staticmethod
    def documented_fields(cls) -> set[str]:
        """Field names whose definition is directly preceded by a ``#:``
        doc-comment block in the class source."""
        lines = inspect.getsource(cls).splitlines()
        documented = set()
        for index, line in enumerate(lines):
            match = re.match(r"\s+(\w+)\s*:", line)
            if match is None:
                continue
            if index > 0 and lines[index - 1].lstrip().startswith("#:"):
                documented.add(match.group(1))
        return documented

    def test_every_read_counter_is_documented(self):
        names = {field.name for field in dataclasses.fields(ReadStats)}
        missing = names - self.documented_fields(ReadStats)
        assert not missing, f"undocumented ReadStats fields: {sorted(missing)}"

    def test_every_write_counter_is_documented(self):
        names = {field.name for field in dataclasses.fields(WriteResult)}
        missing = names - self.documented_fields(WriteResult)
        assert not missing, f"undocumented WriteResult fields: {sorted(missing)}"

    def test_degraded_leaf_reput_divergence_is_documented(self):
        # The one place the event-loop write's trip count may exceed the
        # sync bridge's: reconciling a degraded page re-puts the leaf.
        assert "leaf re-put" in inspect.getsource(WriteResult)

    def test_speculation_contract_is_documented(self):
        source = inspect.getsource(ReadStats)
        # speculation must be documented as metadata-count-preserving...
        assert "speculation never changes that counter" in source
        # ...with the over-fetch counter named as the single exception.
        assert "ONLY counter speculation may change" in source


def _spec_cluster(speculative: bool) -> Cluster:
    return Cluster.in_memory(
        num_data_providers=4,
        num_metadata_providers=4,
        page_size=TEST_PAGE_SIZE,
        speculative_prefetch=speculative,
    )


_SPECULATIVE_FIELDS = ("speculative_hits", "speculative_wasted")


def _strip_speculation(outcome):
    if isinstance(outcome, tuple):  # (data, ReadStats)
        data, stats = outcome
        return data, dataclasses.replace(
            stats, **{name: 0 for name in _SPECULATIVE_FIELDS}
        )
    return outcome  # WriteResult: speculation has no write-side counters


class TestSpeculationIsInvisible:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations=history_strategy)
    def test_only_speculative_counters_may_differ(self, operations):
        """The invisibility property: the same random history against a
        speculating and a non-speculating store yields byte-identical reads
        and field-for-field identical counters — ``metadata_nodes_fetched``
        included, because a consumed prediction IS the level's fetch — with
        only the ``speculative_*`` pair allowed to differ."""

        async def run(speculative: bool):
            async with AsyncBlobStore(
                _spec_cluster(speculative),
                node_cache=NodeCache(),
                page_cache=PageCache(),
            ) as store:
                return await _drive_history(store, operations)

        plain = asyncio.run(run(False))
        speculating = asyncio.run(run(True))
        assert len(plain) == len(speculating)
        for base, spec in zip(plain, speculating):
            assert _strip_speculation(spec) == _strip_speculation(base)
            if isinstance(base, tuple):
                # The plain store must report the pair at exactly zero.
                assert base[1].speculative_hits == 0
                assert base[1].speculative_wasted == 0

    def test_deep_cold_read_actually_speculates(self):
        """Guard against the property passing vacuously: a cold multi-level
        read through the pipelined descent must consume predictions, and
        the over-fetch must stay under the shape bound the benchmarks pin
        (wasted < 2x useful)."""
        payload = make_payload(32 * TEST_PAGE_SIZE, seed=11)

        async def cold_read(speculative: bool):
            store = AsyncBlobStore(
                _spec_cluster(speculative),
                cache_metadata=False,
                cache_pages=False,
            )
            blob_id = await store.create()
            version = await store.write(blob_id, payload, 0)
            await store.sync(blob_id, version)
            return await store.read_ex(blob_id, version, 0, len(payload))

        plain_data, plain = asyncio.run(cold_read(False))
        spec_data, spec = asyncio.run(cold_read(True))
        assert spec_data == plain_data == payload
        assert spec.speculative_hits > 0
        assert spec.speculative_wasted < 2 * spec.speculative_hits
        assert spec.metadata_nodes_fetched == plain.metadata_nodes_fetched
        assert spec.metadata_round_trips == plain.metadata_round_trips
        assert plain.speculative_hits == plain.speculative_wasted == 0


class _RecordingProvider(DataProvider):
    """DataProvider that logs which batched fetches reached it."""

    def __init__(self, provider_id: str, log: list):
        super().__init__(provider_id)
        self._log = log

    def multi_fetch(self, requests):
        self._log.append(self.provider_id)
        return super().multi_fetch(requests)


class TestRequeueRerank:
    """Satellite regression: a provider suspected DURING a read's earlier
    wave must be tried LAST when a failed-over request re-enters the queue,
    not walked into in recorded replica order."""

    @staticmethod
    def build(routing: bool):
        log: list[str] = []
        manager = ProviderManager(
            health=ProviderHealth(suspect_after=1), routing=routing
        )
        providers = {
            pid: _RecordingProvider(pid, log) for pid in ("p0", "p1", "p2")
        }
        for provider in providers.values():
            manager.register(provider)
            provider.store_page("page-x", b"x" * PAGE)
        providers["p1"].store_page("page-y", b"y" * PAGE)
        providers["p2"].store_page("page-y", b"y" * PAGE)
        # p0 and p1 die together; the first wave discovers both.
        providers["p0"].kill()
        providers["p1"].kill()
        return manager, log

    @staticmethod
    def fetch(manager):
        tally = FaultTally()
        payloads, trips = run_inline(
            manager.multi_fetch_into_async,
            [("p0", "page-x", 0, PAGE), ("p1", "page-y", 0, PAGE)],
            failover=[("p0", "p1", "p2"), ("p1", "p2")],
            fault_tally=tally,
        )
        assert payloads == [b"x" * PAGE, b"y" * PAGE]
        return trips, tally

    def test_suspected_provider_is_tried_last_on_requeue(self):
        manager, log = self.build(routing=True)
        trips, tally = self.fetch(manager)
        # Wave 1 (p0, p1) fails and marks both suspect; page-x's untried
        # tail (p1, p2) is re-ranked to (p2, p1), so wave 2 is ONE batch to
        # the healthy p2 serving both pages — p1 is never asked again.
        assert log == ["p0", "p1", "p2"]
        assert trips == 3
        assert tally.failovers == 2
        assert tally.degraded == 2
        assert manager.health.suspects() == frozenset({"p0", "p1"})

    def test_without_routing_the_recorded_order_walks_into_the_suspect(self):
        manager, log = self.build(routing=False)
        trips, tally = self.fetch(manager)
        # page-x hops p0 -> p1 (already known dead) -> p2: one extra failed
        # wave and one extra failover — the cost the re-rank removes.
        assert log.count("p1") == 2
        assert trips == 5
        assert tally.failovers == 3


class TestDHTReplicaRouting:
    def test_suspect_bucket_is_ranked_last_until_it_serves(self):
        dht = DHT(num_buckets=6, replication=3, routing=True)
        dht.put("key", "value")
        primary, *secondaries = dht.buckets_for("key")
        dht.kill_bucket(primary)
        # The failed lookup serves from a secondary and learns suspicion.
        assert dht.get("key") == "value"
        assert dht._ranked_buckets_for("key")[-1] == primary
        # Suspicion clears the moment the revived bucket serves again —
        # here it must, because every other replica is down.
        dht.revive_bucket(primary)
        for bucket_id in secondaries:
            dht.kill_bucket(bucket_id)
        assert dht.get("key") == "value"
        assert dht._ranked_buckets_for("key")[0] == primary

    def test_routing_off_never_reorders(self):
        dht = DHT(num_buckets=6, replication=3, routing=False)
        dht.put("key", "value")
        primary = dht.buckets_for("key")[0]
        dht.kill_bucket(primary)
        assert dht.get("key") == "value"
        assert dht._ranked_buckets_for("key") == tuple(dht.buckets_for("key"))

    def test_try_multi_get_steers_around_a_suspect_bucket(self):
        dht = DHT(num_buckets=4, replication=2, routing=True)
        items = [(f"key-{index}", index) for index in range(16)]
        run_inline(dht.multi_put_async, items)
        victim = dht.bucket_ids()[0]
        dht.kill_bucket(victim)
        for _ in range(2):  # second pass runs with suspicion learned
            values = run_inline(
                dht.try_multi_get_async, [key for key, _value in items]
            )
            assert values == [value for _key, value in items]


_SIM_KWARGS = dict(
    num_provider_nodes=8,
    page_size=64 * KiB,
    blob_bytes=32 * MiB,
    chunk_bytes=2 * MiB,
    reader_counts=[4],
    co_locate_clients=True,
)


def _sim_sample(**overrides):
    return run_read_concurrency_experiment(**{**_SIM_KWARGS, **overrides})[0]


class TestSimColdPath:
    def test_unreplicated_routing_is_a_bit_identical_no_op(self):
        """The perf-gate invariant: with nothing replicated, turning routing
        on must not move a single counter or timing — the knob only adds a
        signal, never a cost."""
        off = _sim_sample(replica_routing=False)
        on = _sim_sample(replica_routing=True)
        assert on.avg_bandwidth_mbps == off.avg_bandwidth_mbps
        assert on.avg_meta_latency == off.avg_meta_latency
        assert on.avg_data_round_trips == off.avg_data_round_trips

    def test_speculation_moves_latency_but_not_counters(self):
        base = _sim_sample(speculative_prefetch=False)
        spec = _sim_sample(speculative_prefetch=True)
        assert spec.avg_metadata_nodes_fetched == base.avg_metadata_nodes_fetched
        assert spec.avg_metadata_round_trips == base.avg_metadata_round_trips
        assert spec.avg_data_round_trips == base.avg_data_round_trips
        assert spec.avg_meta_latency < base.avg_meta_latency
        assert spec.speculative_hit_rate > 0.9
        assert base.speculative_hit_rate == 0.0
