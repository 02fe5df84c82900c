"""Tests of the observability layer (:mod:`repro.obs`, DESIGN.md §11).

Three groups:

* unit tests of the tracer, the sharded metrics registry and the
  exporters (including the Prometheus exposition linter);
* acceptance tests: a traced cold read produces ONE trace whose spans
  cover all three legs (VM check, metadata traversal, data fetch) with
  monotonically consistent timestamps — through the sync bridge AND
  across a 100-way ``asyncio.gather`` — and the simulator records the
  same legs in virtual-clock time;
* the invisibility property: with ``tracing=False`` (the default) every
  observable outcome — bytes, ``ReadStats``, ``WriteResult`` — is
  bit-identical to a traced run, proven over random operation histories
  exactly like the speculation-invisibility property of PR 8.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading

import pytest
from hypothesis import HealthCheck, given, settings

from repro import AsyncBlobStore, BlobStore, Cluster, RepairService
from repro.cache import NodeCache, PageCache
from repro.fault.health import ProviderHealth
from repro.obs import (
    MetricsRegistry,
    Tracer,
    current_span,
    get_registry,
    human_text,
    json_snapshot,
    parse_prometheus,
    prometheus_text,
    span,
)

from .conftest import TEST_PAGE_SIZE, make_payload
from .test_async_store import _SyncAsAsync, _drive_history, history_strategy


def traced_cluster(**overrides) -> Cluster:
    return Cluster.in_memory(
        num_data_providers=4,
        num_metadata_providers=4,
        page_size=TEST_PAGE_SIZE,
        tracing=True,
        **overrides,
    )


def untraced_cluster(**overrides) -> Cluster:
    return Cluster.in_memory(
        num_data_providers=4,
        num_metadata_providers=4,
        page_size=TEST_PAGE_SIZE,
        **overrides,
    )


# --------------------------------------------------------------------- tracer
class TestTracer:
    def test_span_is_a_noop_outside_any_trace(self):
        """Components instrumented with span() need no tracer and record
        nothing when no trace is active — the disabled-path contract."""
        assert current_span() is None
        with span("data.wave", wave=0) as leg:
            assert leg is None
        assert current_span() is None

    def test_root_and_children_share_a_trace(self):
        tracer = Tracer()
        with tracer.trace("read", blob_id="b") as root:
            assert current_span() is root
            with span("read.meta") as meta:
                assert meta is not None
                assert current_span() is meta
                with span("meta.fetch", nodes=3) as fetch:
                    assert fetch.parent_id == meta.span_id
            assert current_span() is root
        assert current_span() is None

        spans = tracer.spans()
        assert [item.name for item in spans] == [
            "meta.fetch",
            "read.meta",
            "read",
        ]  # completion order: innermost finishes first
        assert len({item.trace_id for item in spans}) == 1
        traces = tracer.traces()
        assert list(traces) == [root.trace_id]
        for item in spans:
            assert item.end is not None and item.end >= item.start
            assert item.start >= root.start
            assert item.end <= root.end
        assert spans[0].attrs == {"nodes": 3}

    def test_set_attaches_attributes_after_opening(self):
        tracer = Tracer()
        with tracer.trace("read") as root:
            with span("data.wave", wave=0) as wave:
                wave.set(requeued=2)
        assert tracer.spans("data.wave")[0].attrs == {"wave": 0, "requeued": 2}
        assert root.duration > 0.0

    def test_injectable_clock_stamps_spans(self):
        """The sim path: spans carry the injected (virtual) clock's time."""
        now = {"t": 10.0}
        tracer = Tracer(clock=lambda: now["t"])
        with tracer.trace("live") as live:
            now["t"] = 20.0
        assert live.start == 10.0 and live.end == 20.0

    def test_buffer_is_bounded(self):
        tracer = Tracer(max_spans=4)
        for index in range(10):
            with tracer.trace(f"op{index}"):
                pass
        kept = tracer.spans()
        assert len(kept) == 4
        assert [item.name for item in kept] == ["op6", "op7", "op8", "op9"]


# ------------------------------------------------------------------- registry
class TestMetricsRegistry:
    def test_counters_gauges_histograms_render_sorted(self):
        registry = MetricsRegistry(shards=4)
        registry.inc("repro.read.ops", 2, {"cluster": "c1"})
        registry.inc("repro.read.ops", 3, {"cluster": "c1"})
        registry.set_gauge("repro.cache.entries", 7)
        registry.set_gauge("repro.cache.entries", 5)
        registry.observe("repro.read.latency_seconds", 0.003)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"repro.read.ops{cluster=c1}": 5}
        assert snapshot["gauges"] == {"repro.cache.entries": 5}
        histogram = snapshot["histograms"]["repro.read.latency_seconds"]
        assert histogram["count"] == 1
        assert histogram["sum"] == pytest.approx(0.003)
        assert histogram["buckets"][-1][0] == "+Inf"
        # Per-slot counts: exactly one observation, in the 0.0025..0.005 slot.
        assert sum(counted for _bound, counted in histogram["buckets"]) == 1

    def test_count_fields_flattens_numeric_dataclass_fields(self):
        registry = MetricsRegistry()
        health = ProviderHealth().stats()
        registry.count_fields("repro.health", health, {"cluster": "c"})
        counters = registry.snapshot()["counters"]
        assert counters["repro.health.failures_recorded{cluster=c}"] == 0
        registry.count_fields(
            "x", {"keep": 1, "skipped": 2, "name": "str", "flag": True}, skip=("skipped",)
        )
        counters = registry.snapshot()["counters"]
        assert counters["x.keep"] == 1
        assert "x.skipped" not in counters  # explicitly skipped
        assert "x.name" not in counters  # non-numeric
        assert "x.flag" not in counters  # bools are not counters

    def test_sources_are_weak_and_pruned(self):
        registry = MetricsRegistry()

        class Owner:
            def stats(self):
                return {"value": 42}

        owner = Owner()
        registry.register_source("repro.thing", owner, lambda o: o.stats())
        assert registry.snapshot()["gauges"] == {"repro.thing.value": 42}
        del owner
        gc.collect()
        assert registry.snapshot()["gauges"] == {}

    def test_concurrent_increments_are_exact(self):
        """The sharded locks must lose no increment under thread contention
        (threaded clients sharing one cluster all touch the registry)."""
        registry = MetricsRegistry(shards=4)

        def hammer():
            for _ in range(1000):
                registry.inc("repro.read.ops")
                registry.observe("repro.read.latency_seconds", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["repro.read.ops"] == 8000
        assert snapshot["histograms"]["repro.read.latency_seconds"]["count"] == 8000

    def test_process_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 1)
        registry.observe("c", 0.1)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


# ------------------------------------------------------------------ exporters
class TestExporters:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.inc("repro.read.ops", 3, {"cluster": "c-1"})
        registry.set_gauge("repro.cache.node.entries", 12, {"cluster": "c-1"})
        for value in (0.0002, 0.004, 9.0):
            registry.observe("repro.read.latency_seconds", value, {"cluster": "c-1"})
        return registry

    def test_prometheus_text_passes_the_linter(self):
        text = prometheus_text(self._populated())
        assert "# TYPE repro_read_ops counter" in text
        assert "# TYPE repro_cache_node_entries gauge" in text
        assert "# TYPE repro_read_latency_seconds histogram" in text
        samples = parse_prometheus(text)
        assert samples['repro_read_ops{cluster="c-1"}'] == 3
        assert samples['repro_cache_node_entries{cluster="c-1"}'] == 12
        assert samples['repro_read_latency_seconds_count{cluster="c-1"}'] == 3
        assert samples['repro_read_latency_seconds_sum{cluster="c-1"}'] == pytest.approx(
            9.0042
        )
        # Bucket counts are CUMULATIVE and the +Inf bucket equals _count.
        assert samples['repro_read_latency_seconds_bucket{cluster="c-1",le="+Inf"}'] == 3
        assert samples['repro_read_latency_seconds_bucket{cluster="c-1",le="5.0"}'] == 2
        assert samples['repro_read_latency_seconds_bucket{cluster="c-1",le="0.00025"}'] == 1

    def test_linter_rejects_malformed_exposition(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus("this is { not prometheus\n")
        with pytest.raises(ValueError, match="no samples"):
            parse_prometheus("\n")

    def test_json_snapshot_round_trips(self):
        document = json.loads(json_snapshot(self._populated()))
        assert document["counters"]["repro.read.ops{cluster=c-1}"] == 3
        assert document["histograms"]["repro.read.latency_seconds{cluster=c-1}"][
            "count"
        ] == 3

    def test_human_text_renders_sections_and_empty_registry(self):
        text = human_text(self._populated())
        assert "repro.read.ops{cluster=c-1}" in text
        assert "count=3" in text
        assert "(registry is empty)" in human_text(MetricsRegistry())


# ------------------------------------------------------- traced read coverage
def _trace_of_last_read(tracer):
    """The spans of the most recently finished ``read`` root trace."""
    roots = [item for item in tracer.spans("read") if item.parent_id is None]
    assert roots, "no read root span recorded"
    root = roots[-1]
    members = [item for item in tracer.spans() if item.trace_id == root.trace_id]
    return root, members


def _assert_read_legs(root, members):
    """All three legs present, timestamps monotonically consistent."""
    names = {item.name for item in members}
    assert {"read.vm", "read.meta", "read.data"} <= names
    by_id = {item.span_id: item for item in members}
    for item in members:
        assert item.end is not None
        assert item.end >= item.start
        assert item.start >= root.start
        assert item.end <= root.end
        if item.parent_id is not None:
            parent = by_id[item.parent_id]
            assert item.start >= parent.start
            assert item.end <= parent.end


class TestTracedReadCoverage:
    def test_cold_read_covers_all_three_legs_sync_bridge(self):
        """Acceptance: one cold ``read_ex`` through the SYNC bridge yields a
        single trace covering VM check, metadata levels and data waves."""
        cluster = traced_cluster()
        payload = make_payload(8 * TEST_PAGE_SIZE, seed=3)
        writer = BlobStore(cluster, node_cache=NodeCache(), page_cache=PageCache())
        blob_id = writer.create()
        version = writer.append(blob_id, payload)
        writer.sync(blob_id, version)

        cluster.tracer.clear()
        # A fresh reader with its own empty caches: the metadata walk and
        # the data fetch must genuinely travel.
        reader = BlobStore(cluster, node_cache=NodeCache(), page_cache=PageCache())
        data, stats = reader.read_ex(blob_id, version, 0, len(payload))
        assert data == payload

        root, members = _trace_of_last_read(cluster.tracer)
        assert len({item.trace_id for item in members}) == 1
        _assert_read_legs(root, members)
        names = [item.name for item in members]
        # Cold walk: one meta.fetch per traversed level, one data wave.
        assert names.count("meta.fetch") >= 2
        assert stats.metadata_round_trips >= 2
        assert "data.wave" in names
        assert root.attrs["blob_id"] == blob_id

    def test_cold_reads_cover_all_legs_under_100_way_gather(self):
        """Acceptance: 100 gathered reads on one loop produce 100 distinct
        traces, each with all three legs correctly parented (asyncio copies
        the context into every task, so concurrent spans never cross)."""
        cluster = traced_cluster()
        payload = make_payload(8 * TEST_PAGE_SIZE, seed=4)

        async def scenario():
            async with AsyncBlobStore(
                cluster, node_cache=NodeCache(), page_cache=PageCache()
            ) as store:
                blob_id = await store.create()
                version = await store.append(blob_id, payload)
                await store.sync(blob_id, version)
                cluster.tracer.clear()
                results = await asyncio.gather(
                    *(
                        store.read_ex(blob_id, version, 0, len(payload))
                        for _ in range(100)
                    )
                )
                return results

        results = asyncio.run(scenario())
        assert all(data == payload for data, _stats in results)

        tracer = cluster.tracer
        roots = [item for item in tracer.spans("read") if item.parent_id is None]
        assert len(roots) == 100
        grouped = tracer.traces()
        for root in roots:
            members = grouped[root.trace_id]
            assert len({item.trace_id for item in members}) == 1
            _assert_read_legs(root, members)

    def test_traced_write_and_append_cover_their_legs(self):
        cluster = traced_cluster()
        store = BlobStore(cluster, node_cache=NodeCache(), page_cache=PageCache())
        blob_id = store.create()
        store.append(blob_id, make_payload(4 * TEST_PAGE_SIZE, seed=5))
        names = {item.name for item in cluster.tracer.spans()}
        assert {"append", "write.vm", "write.store", "write.publish"} <= names
        store.write(blob_id, b"x" * TEST_PAGE_SIZE, 0)
        names = {item.name for item in cluster.tracer.spans()}
        assert "write" in names

    def test_operations_publish_registry_metrics(self):
        registry = get_registry()
        registry.reset()
        cluster = traced_cluster()
        store = BlobStore(cluster, node_cache=NodeCache(), page_cache=PageCache())
        blob_id = store.create()
        payload = make_payload(4 * TEST_PAGE_SIZE, seed=6)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        store.read(blob_id, version, 0, len(payload))

        snapshot = registry.snapshot()
        label = f"{{cluster={cluster.cache_namespace}}}"
        assert snapshot["counters"][f"repro.read.ops{label}"] == 1
        assert snapshot["counters"][f"repro.read.bytes_read{label}"] == len(payload)
        assert snapshot["counters"][f"repro.write.ops{label}"] == 1
        assert snapshot["histograms"][f"repro.read.latency_seconds{label}"]["count"] == 1
        # Pull sources: the cluster's VM/DHT/cache/health snapshots appear
        # among the gauges while the cluster is alive...
        assert snapshot["gauges"][f"repro.vm.register_requests{label}"] >= 1
        assert f"repro.dht.puts{label}" in snapshot["gauges"]
        # ...and the Prometheus rendering of the whole registry parses.
        parse_prometheus(prometheus_text(registry))
        registry.reset()

    def test_untraced_cluster_registers_and_records_nothing(self):
        registry = get_registry()
        registry.reset()
        cluster = untraced_cluster()
        assert cluster.tracer is None
        assert cluster.metrics is None
        store = BlobStore(cluster)
        blob_id = store.create()
        version = store.append(blob_id, b"x" * TEST_PAGE_SIZE)
        store.read(blob_id, version, 0, TEST_PAGE_SIZE)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


# ------------------------------------------------------------- sim virtual clock
class TestSimTracing:
    def test_sim_read_records_legs_in_virtual_clock_time(self):
        from repro.sim.client import SimClient
        from repro.sim.deployment import SimDeployment

        deployment = SimDeployment(num_provider_nodes=8, page_size=4096)
        blob_id = deployment.create_blob()
        version = deployment.populate_blob(blob_id, 16 * 4096)
        outcome = deployment.simulator.run_process(
            SimClient(deployment, 0).read_process(blob_id, version, 0, 16 * 4096)
        )

        members = outcome.spans
        roots = [item for item in members if item.parent_id is None]
        assert [item.name for item in roots] == ["read"]
        root = roots[0]
        # Virtual timestamps: the root covers exactly the outcome's elapsed
        # virtual time, and every span of the engine nests inside it — those
        # opened in simulator processes (per-bucket fetch branches) too.
        assert root.duration == pytest.approx(outcome.elapsed)
        names = {item.name for item in members}
        assert {"read.vm", "read.meta", "read.data", "meta.fetch"} <= names
        ids = {item.span_id for item in members}
        for item in members:
            assert item.trace_id == root.trace_id
            assert item is root or item.parent_id in ids
            assert root.start <= item.start <= item.end <= root.end
        meta = next(item for item in members if item.name == "read.meta")
        assert meta.parent_id == root.span_id
        assert meta.duration == pytest.approx(outcome.meta_latency)
        assert meta.duration > 0.0


# ----------------------------------------------------------- stats satellites
class TestStatsSnapshots:
    def test_provider_health_stats(self):
        health = ProviderHealth(suspect_after=2)
        health.record_failure("p1")
        health.record_failure("p1")  # crosses the suspect threshold
        health.record_failure("p2")
        health.record_success("p2")
        stats = health.stats()
        assert stats.failures_recorded == 3
        assert stats.successes_recorded == 1
        assert stats.suspected == 1
        assert stats.tracked == 1  # p2 was cleared by its success
        assert stats.suspects == 1

    def test_repair_service_stats_accumulate_across_passes(self):
        cluster = Cluster.in_memory(
            num_data_providers=6,
            num_metadata_providers=4,
            page_size=TEST_PAGE_SIZE,
            page_replication=2,
        )
        store = BlobStore(cluster, cache_metadata=False, cache_pages=False)
        blob_id = store.create()
        version = store.append(blob_id, make_payload(8 * TEST_PAGE_SIZE, seed=7))
        store.sync(blob_id, version)
        service = RepairService(cluster)

        first = service.repair()
        assert service.stats().passes == 1
        assert service.stats().pages_scanned == first.pages_scanned

        victim = max(
            cluster.provider_manager.providers(),
            key=lambda provider: provider.page_count(),
        ).provider_id
        cluster.kill_data_provider(victim)
        second = service.repair()
        stats = service.stats()
        assert stats.passes == 2
        assert stats.pages_scanned == first.pages_scanned + second.pages_scanned
        assert stats.copies_created == second.copies_created > 0

    def test_traced_cluster_repair_service_registers_as_source(self):
        registry = get_registry()
        registry.reset()
        cluster = traced_cluster()
        service = RepairService(cluster)
        service.repair()
        label = f"{{cluster={cluster.cache_namespace}}}"
        gauges = registry.snapshot()["gauges"]
        assert gauges[f"repro.repair.passes{label}"] == 1
        registry.reset()


# ------------------------------------------------------- invisibility property
class TestTracingIsInvisible:
    """BlobSeerConfig.tracing must be PURE observation: every byte and every
    counter identical with it on or off (the PR 8 speculation-invisibility
    model applied to the whole observability layer)."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations=history_strategy)
    def test_sync_outcomes_bit_identical_with_tracing(self, operations):
        plain_store = BlobStore(
            untraced_cluster(), node_cache=NodeCache(), page_cache=PageCache()
        )
        plain = asyncio.run(_drive_history(_SyncAsAsync(plain_store), operations))

        traced_store = BlobStore(
            traced_cluster(), node_cache=NodeCache(), page_cache=PageCache()
        )
        traced = asyncio.run(_drive_history(_SyncAsAsync(traced_store), operations))
        assert traced == plain

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations=history_strategy)
    def test_async_sync_equivalence_holds_under_tracing(self, operations):
        """The PR 7 equivalence property survives span recording: traced
        async (pipelined, context copied into every task) and traced sync
        (inline context) still agree field for field."""
        sync_store = BlobStore(
            traced_cluster(), node_cache=NodeCache(), page_cache=PageCache()
        )
        sync_outcomes = asyncio.run(
            _drive_history(_SyncAsAsync(sync_store), operations)
        )

        async def run_async():
            async with AsyncBlobStore(
                traced_cluster(), node_cache=NodeCache(), page_cache=PageCache()
            ) as store:
                return await _drive_history(store, operations)

        assert asyncio.run(run_async()) == sync_outcomes


# ------------------------------------------------------------ bench delta guard
class TestBenchDeltaGuard:
    def test_zero_baseline_never_prints_inf(self):
        from repro.bench.cli import format_delta

        assert format_delta(0, 0) == "+0.0%"
        assert format_delta(0.0, 3.5) == "new"
        assert format_delta(0, -1) == "new"
        assert format_delta(2.0, 3.0) == "+50.0%"
        assert format_delta(4.0, 3.0) == "-25.0%"
        for then, value in ((0, 0), (0, 123), (0.0, 1e-9)):
            rendered = format_delta(then, value)
            assert "inf" not in rendered and "nan" not in rendered

    def test_print_deltas_handles_zero_baseline_rows(self, capsys):
        from repro.bench.cli import _print_deltas

        rows = [{"readers": 4, "avg_bandwidth_mbps": 120.0, "failovers": 3}]
        baseline = [{"readers": 4, "avg_bandwidth_mbps": 0.0, "failovers": 0}]
        _print_deltas("fig2b", rows, baseline)
        output = capsys.readouterr().out
        assert "new" in output
        assert "inf" not in output
