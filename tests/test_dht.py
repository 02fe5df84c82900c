"""Unit tests for the bucket store and the replicated DHT."""

import pytest

from repro.dht.dht import DHT
from repro.dht.storage import BucketStore
from repro.errors import MetadataNotFoundError, ProviderUnavailableError

from .conftest import run_inline


def multi_put(dht: DHT, items: list) -> None:
    run_inline(dht.multi_put_async, items)


class TestBucketStore:
    def test_put_get_roundtrip(self):
        store = BucketStore("meta-0000")
        store.put("key", {"value": 1})
        assert store.get("key") == {"value": 1}

    def test_missing_key_raises(self):
        store = BucketStore("meta-0000")
        with pytest.raises(MetadataNotFoundError):
            store.get("absent")

    def test_no_overwrite_mode_keeps_first_value(self):
        store = BucketStore("meta-0000")
        store.put("key", "first")
        store.put("key", "second", overwrite=False)
        assert store.get("key") == "first"

    def test_delete(self):
        store = BucketStore("meta-0000")
        store.put("key", 1)
        assert store.delete("key") is True
        assert store.delete("key") is False
        assert len(store) == 0

    def test_contains_and_keys(self):
        store = BucketStore("meta-0000")
        store.put("a", 1)
        store.put("b", 2)
        assert store.contains("a")
        assert not store.contains("c")
        assert sorted(store.keys()) == ["a", "b"]

    def test_kill_blocks_access_and_revive_restores(self):
        store = BucketStore("meta-0000")
        store.put("key", 1)
        store.kill()
        assert not store.alive
        with pytest.raises(ProviderUnavailableError):
            store.get("key")
        with pytest.raises(ProviderUnavailableError):
            store.put("other", 2)
        store.revive()
        assert store.get("key") == 1  # contents survive a restart

    def test_stats_track_hits_and_misses(self):
        store = BucketStore("meta-0000")
        store.put("key", 1)
        store.get("key")
        with pytest.raises(MetadataNotFoundError):
            store.get("nope")
        stats = store.stats
        assert stats.puts == 1
        assert stats.gets == 2
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.keys == 1


class TestDHT:
    def test_roundtrip_and_missing(self):
        dht = DHT(num_buckets=8)
        multi_put(dht, [("k1", "v1")])
        assert dht.multi_get(["k1"]) == ["v1"]
        assert dht.contains("k1")
        with pytest.raises(MetadataNotFoundError):
            dht.multi_get(["missing"])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DHT(num_buckets=0)
        with pytest.raises(ValueError):
            DHT(num_buckets=4, replication=0)

    def test_replication_capped_at_bucket_count(self):
        dht = DHT(num_buckets=2, replication=5)
        assert dht.replication == 2

    def test_keys_distribute_over_buckets(self):
        dht = DHT(num_buckets=8)
        multi_put(
            dht,
            [(f"blob/{index // 20}/{index % 20}/1", index) for index in range(400)],
        )
        distribution = dht.load_distribution()
        assert sum(distribution.values()) == 400
        assert sum(1 for count in distribution.values() if count > 0) >= 6

    def test_replicated_value_survives_primary_failure(self):
        dht = DHT(num_buckets=6, replication=3)
        multi_put(dht, [("important", 42)])
        primary = dht.buckets_for("important")[0]
        dht.kill_bucket(primary)
        assert dht.multi_get(["important"]) == [42]

    def test_unreplicated_value_unavailable_after_failure(self):
        dht = DHT(num_buckets=6, replication=1)
        multi_put(dht, [("fragile", 42)])
        primary = dht.buckets_for("fragile")[0]
        dht.kill_bucket(primary)
        with pytest.raises(ProviderUnavailableError):
            dht.multi_get(["fragile"])
        dht.revive_bucket(primary)
        assert dht.multi_get(["fragile"]) == [42]

    def test_put_fails_only_when_all_replicas_down(self):
        dht = DHT(num_buckets=3, replication=3)
        for bucket_id in dht.bucket_ids():
            dht.kill_bucket(bucket_id)
        with pytest.raises(ProviderUnavailableError):
            multi_put(dht, [("key", 1)])
        dht.revive_bucket(dht.bucket_ids()[0])
        multi_put(dht, [("key", 1)])  # one live replica is enough
        assert dht.multi_get(["key"]) == [1]

    def test_rejoined_replica_miss_falls_through_to_live_holder(self):
        # Kill the primary during the put (the write lands on the second
        # replica only), then let it rejoin: a GET must fall through the
        # rejoined-but-empty primary and serve the key from the replica
        # that holds it — a live replica's miss is not authoritative.
        dht = DHT(num_buckets=4, replication=2)
        primary, secondary = dht.buckets_for("key")[:2]
        dht.kill_bucket(primary)
        multi_put(dht, [("key", "survivor")])
        dht.revive_bucket(primary)
        assert dht.multi_get(["key"]) == ["survivor"]
        # And the key is still reachable if the holder's PEER dies.
        dht.kill_bucket(secondary)
        with pytest.raises(ProviderUnavailableError):
            dht.multi_get(["key"])

    def test_miss_after_dead_replica_reports_unavailable_not_missing(self):
        # Regression (PR 5): the key lives ONLY on the primary (the second
        # replica was down during the put).  With the primary now dead and
        # the empty second replica rejoined, the old code let the live
        # replica's miss overwrite the recorded unavailability and raised
        # MetadataNotFoundError — wrongly reporting durable loss for data
        # that is merely behind a dead node.
        dht = DHT(num_buckets=4, replication=2)
        primary, secondary = dht.buckets_for("key")[:2]
        dht.kill_bucket(secondary)
        multi_put(dht, [("key", "on-primary-only")])
        dht.revive_bucket(secondary)
        dht.kill_bucket(primary)
        with pytest.raises(ProviderUnavailableError):
            dht.multi_get(["key"])
        # Once the holder rejoins, the value is served again.
        dht.revive_bucket(primary)
        assert dht.multi_get(["key"]) == ["on-primary-only"]

    def test_missing_key_with_all_replicas_live_is_not_found(self):
        dht = DHT(num_buckets=4, replication=2)
        with pytest.raises(MetadataNotFoundError):
            dht.multi_get(["never-written"])

    def test_delete_removes_from_all_replicas(self):
        dht = DHT(num_buckets=4, replication=2)
        multi_put(dht, [("key", "value")])
        assert dht.delete("key") is True
        assert not dht.contains("key")

    def test_stats_aggregate(self):
        dht = DHT(num_buckets=4, replication=2)
        multi_put(dht, [("a", 1)])
        dht.multi_get(["a"])
        stats = dht.stats()
        assert stats.buckets == 4
        assert stats.puts == 2  # one per replica
        assert stats.keys == 2
        assert stats.hits == 1

    def test_consistent_strategy_works(self):
        dht = DHT(num_buckets=8, strategy="consistent", replication=2)
        multi_put(dht, [("k", "v")])
        assert dht.multi_get(["k"]) == ["v"]
        assert len(set(dht.buckets_for("k"))) == 2
