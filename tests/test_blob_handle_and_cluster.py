"""Unit tests for the Blob handle, the Cluster wiring and the metadata
provider façade."""

import pytest

from repro import Blob, BlobStore, Cluster
from repro.config import BlobSeerConfig
from repro.errors import MetadataNotFoundError
from repro.metadata.metadata_provider import MetadataProvider
from repro.metadata.node import InnerNode, LeafNode, NodeKey
from repro.dht.dht import DHT
from repro.providers.page_store import FilePageStore, NullPageStore

from .conftest import TEST_PAGE_SIZE, make_payload, run_inline

PAGE = TEST_PAGE_SIZE


class TestBlobHandle:
    def test_create_and_roundtrip(self, store):
        blob = Blob.create(store)
        version = blob.append(b"hello ")
        version = blob.append(b"world")
        blob.sync(version)
        assert blob.get_recent() == 2
        assert blob.get_size() == 11
        assert blob.read_all() == b"hello world"
        assert blob.read(1, 0, 6) == b"hello "

    def test_read_recent_and_versions(self, store):
        blob = Blob.create(store)
        blob.sync(blob.append(b"abc"))
        version, data = blob.read_recent(0, 3)
        assert (version, data) == (1, b"abc")
        assert blob.versions() == [0, 1]

    def test_write_and_default_arguments(self, store):
        blob = Blob.create(store)
        blob.sync(blob.append(b"x" * 100))
        blob.sync(blob.write(b"y" * 10, 5))
        assert blob.get_size(1) == 100
        assert blob.read_all()[5:15] == b"y" * 10

    def test_branch_defaults_to_recent_version(self, store):
        blob = Blob.create(store)
        blob.sync(blob.append(b"shared"))
        draft = blob.branch()
        assert isinstance(draft, Blob)
        draft.sync(draft.append(b"-draft"))
        assert draft.read_all() == b"shared-draft"
        assert blob.read_all() == b"shared"
        assert draft.store is blob.store


class TestCluster:
    def test_in_memory_constructor_applies_overrides(self):
        cluster = Cluster.in_memory(
            num_data_providers=3, num_metadata_providers=5, page_size=128,
            allocation_strategy="least_loaded",
        )
        assert len(cluster.provider_manager) == 3
        assert len(cluster.dht.bucket_ids()) == 5
        assert cluster.config.page_size == 128
        assert cluster.config.allocation_strategy == "least_loaded"

    def test_page_store_factory_is_used(self, tmp_path):
        cluster = Cluster(
            BlobSeerConfig(page_size=PAGE, num_data_providers=2,
                           num_metadata_providers=2),
            page_store_factory=lambda pid: FilePageStore(str(tmp_path / pid)),
        )
        store = BlobStore(cluster)
        blob_id = store.create()
        version = store.append(blob_id, make_payload(4 * PAGE))
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 0, 4 * PAGE) == make_payload(4 * PAGE)
        assert any((tmp_path / "data-0000").iterdir())

    def test_null_page_store_cluster_tracks_sizes_only(self):
        cluster = Cluster(
            BlobSeerConfig(page_size=PAGE, num_data_providers=2,
                           num_metadata_providers=2),
            page_store_factory=lambda _pid: NullPageStore(),
        )
        store = BlobStore(cluster)
        blob_id = store.create()
        version = store.append(blob_id, make_payload(4 * PAGE))
        store.sync(blob_id, version)
        assert cluster.storage_bytes_used() == 4 * PAGE
        assert store.read(blob_id, version, 0, PAGE) == bytes(PAGE)

    def test_introspection_counters(self, cluster, store, blob_id):
        version = store.append(blob_id, make_payload(4 * PAGE))
        store.sync(blob_id, version)
        assert cluster.stored_page_count() == 4
        assert cluster.storage_bytes_used() == 4 * PAGE
        assert cluster.metadata_node_count() == 7
        assert sum(cluster.page_load_distribution().values()) == 4 * PAGE
        assert sum(cluster.metadata_load_distribution().values()) == 7

    def test_random_allocation_strategy_is_seedable(self):
        cluster_a = Cluster(
            BlobSeerConfig(page_size=PAGE, num_data_providers=4,
                           num_metadata_providers=4,
                           allocation_strategy="random"),
            seed=11,
        )
        cluster_b = Cluster(
            BlobSeerConfig(page_size=PAGE, num_data_providers=4,
                           num_metadata_providers=4,
                           allocation_strategy="random"),
            seed=11,
        )
        assert cluster_a.provider_manager.allocate_replicas(10, 1) == (
            cluster_b.provider_manager.allocate_replicas(10, 1)
        )


class TestMetadataProviderFacade:
    def test_put_get_roundtrip(self):
        provider = MetadataProvider(DHT(num_buckets=4))
        key = NodeKey("blob", 1, 0, 4)
        provider.put_node(key, InnerNode(1, 1))
        assert run_inline(provider.get_nodes_async, [key]) == [InnerNode(1, 1)]
        assert provider.has_node(key)
        assert provider.node_count() == 1

    def test_leaf_roundtrip_and_delete(self):
        provider = MetadataProvider(DHT(num_buckets=4))
        key = NodeKey("blob", 2, 3, 1)
        provider.put_node(key, LeafNode("p1", "data-0000", 64))
        assert run_inline(provider.get_nodes_async, [key])[0].page_id == "p1"
        assert provider.delete_node(key) is True
        assert not provider.has_node(key)

    def test_missing_node_raises(self):
        provider = MetadataProvider(DHT(num_buckets=4))
        with pytest.raises(MetadataNotFoundError):
            run_inline(provider.get_nodes_async, [NodeKey("blob", 1, 0, 1)])

    def test_non_node_values_rejected(self):
        provider = MetadataProvider(DHT(num_buckets=4))
        with pytest.raises(TypeError):
            provider.put_node(NodeKey("blob", 1, 0, 1), {"not": "a node"})

    def test_node_key_string_roundtrip(self):
        key = NodeKey("bs-blob-00000042", 17, 96, 32)
        assert NodeKey.from_string(key.to_string()) == key
