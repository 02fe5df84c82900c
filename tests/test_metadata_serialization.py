"""Tests for the metadata wire format and the encoding MetadataProvider."""

import pytest
from hypothesis import given, strategies as st

from repro import BlobStore, Cluster
from repro.config import BlobSeerConfig
from repro.dht.dht import DHT
from repro.errors import MetadataNotFoundError
from repro.metadata.metadata_provider import MetadataProvider
from repro.metadata.node import InnerNode, LeafNode, NodeKey
from repro.metadata.serialization import (
    decode_key,
    decode_node,
    encode_key,
    encode_node,
    encoded_size,
)

from .conftest import TEST_PAGE_SIZE, make_payload, run_inline

identifiers = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Nd"), whitelist_characters="-_"
    ),
    min_size=1,
    max_size=40,
)


class TestNodeRoundTrip:
    def test_leaf_roundtrip(self):
        leaf = LeafNode("page-00000042", "data-0003", 65536)
        assert decode_node(encode_node(leaf)) == leaf

    def test_inner_roundtrip_with_dangling_child(self):
        inner = InnerNode(17, None)
        assert decode_node(encode_node(inner)) == inner

    @given(page_id=identifiers, provider_id=identifiers,
           length=st.integers(0, 2**32 - 1))
    def test_leaf_roundtrip_property(self, page_id, provider_id, length):
        leaf = LeafNode(page_id, provider_id, length)
        assert decode_node(encode_node(leaf)) == leaf

    @given(
        left=st.one_of(st.none(), st.integers(0, 2**63)),
        right=st.one_of(st.none(), st.integers(0, 2**63)),
    )
    def test_inner_roundtrip_property(self, left, right):
        inner = InnerNode(left, right)
        assert decode_node(encode_node(inner)) == inner

    def test_encoded_size_is_consistent(self):
        leaf = LeafNode("p", "d", 1)
        assert encoded_size(leaf) == len(encode_node(leaf))

    def test_non_node_rejected(self):
        with pytest.raises(TypeError):
            encode_node({"not": "a node"})


class TestDecodeErrors:
    def test_empty_payload(self):
        with pytest.raises(MetadataNotFoundError):
            decode_node(b"")

    def test_unknown_tag(self):
        with pytest.raises(MetadataNotFoundError):
            decode_node(b"X123")

    def test_truncated_leaf(self):
        raw = encode_node(LeafNode("page", "provider", 10))
        with pytest.raises(MetadataNotFoundError):
            decode_node(raw[:-2])

    def test_trailing_bytes_rejected(self):
        raw = encode_node(InnerNode(1, 2)) + b"extra"
        with pytest.raises(MetadataNotFoundError):
            decode_node(raw)

    @given(raw=st.binary(max_size=64))
    def test_arbitrary_bytes_never_crash(self, raw):
        """Malformed payloads raise MetadataNotFoundError, never anything else."""
        try:
            decode_node(raw)
        except MetadataNotFoundError:
            pass


class TestKeyRoundTrip:
    def test_roundtrip(self):
        key = NodeKey("bs-blob-00000007", 12, 64, 32)
        assert decode_key(encode_key(key)) == key

    @given(version=st.integers(0, 2**40), offset=st.integers(0, 2**40),
           size=st.integers(1, 2**40))
    def test_roundtrip_property(self, version, offset, size):
        key = NodeKey("blob-id", version, offset, size)
        assert decode_key(encode_key(key)) == key


class TestEncodingMetadataProvider:
    def test_nodes_are_stored_as_bytes(self):
        dht = DHT(num_buckets=2)
        provider = MetadataProvider(dht, encode_values=True)
        key = NodeKey("blob", 1, 0, 1)
        provider.put_node(key, LeafNode("p", "d", 64))
        (raw,) = dht.multi_get([key.to_string()])
        assert isinstance(raw, bytes)
        assert run_inline(provider.get_nodes_async, [key]) == [LeafNode("p", "d", 64)]

    def test_full_stack_with_encoded_metadata(self):
        cluster = Cluster(
            BlobSeerConfig(
                page_size=TEST_PAGE_SIZE,
                num_data_providers=4,
                num_metadata_providers=4,
                encode_metadata=True,
            )
        )
        store = BlobStore(cluster)
        blob_id = store.create()
        payload = make_payload(10 * TEST_PAGE_SIZE, seed=3)
        store.append(blob_id, payload)
        version = store.write(blob_id, make_payload(TEST_PAGE_SIZE, seed=4), 0)
        store.sync(blob_id, version)
        assert store.read(blob_id, version, TEST_PAGE_SIZE, 9 * TEST_PAGE_SIZE) == (
            payload[TEST_PAGE_SIZE:]
        )
        assert store.read(blob_id, 1, 0, len(payload)) == payload
