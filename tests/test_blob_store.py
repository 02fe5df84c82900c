"""Integration tests of the public client API (BlobStore) against an
in-process cluster: the paper's primitives end to end."""

import pytest

from repro import BlobStore
from repro.errors import (
    InvalidRangeError,
    UnknownBlobError,
    VersionNotPublishedError,
)

from .conftest import TEST_PAGE_SIZE, make_payload

PAGE = TEST_PAGE_SIZE


class TestCreate:
    def test_create_returns_unique_ids(self, store):
        assert store.create() != store.create()

    def test_new_blob_is_empty_at_version_zero(self, store, blob_id):
        assert store.get_recent(blob_id) == 0
        assert store.get_size(blob_id, 0) == 0
        assert store.read(blob_id, 0, 0, 0) == b""

    def test_per_blob_page_size(self, store):
        blob_id = store.create(page_size=128)
        version = store.append(blob_id, b"x" * 300)
        store.sync(blob_id, version)
        assert store.get_size(blob_id, version) == 300


class TestAppend:
    def test_single_append_roundtrip(self, store, blob_id):
        payload = make_payload(5 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        assert version == 1
        assert store.get_size(blob_id, version) == len(payload)
        assert store.read(blob_id, version, 0, len(payload)) == payload

    def test_appends_accumulate(self, store, blob_id):
        first = make_payload(3 * PAGE, seed=1)
        second = make_payload(2 * PAGE, seed=2)
        store.append(blob_id, first)
        version = store.append(blob_id, second)
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 0, 5 * PAGE) == first + second

    def test_unaligned_appends_merge_the_tail_page(self, store, blob_id):
        store.append(blob_id, b"a" * 100)
        version = store.append(blob_id, b"b" * 100)
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 0, 200) == b"a" * 100 + b"b" * 100
        # The first snapshot still ends after 100 bytes.
        assert store.get_size(blob_id, 1) == 100

    def test_many_small_appends(self, store, blob_id):
        chunks = [make_payload(17, seed=index) for index in range(30)]
        version = 0
        for chunk in chunks:
            version = store.append(blob_id, chunk)
        store.sync(blob_id, version)
        total = sum(map(len, chunks))
        assert store.read(blob_id, version, 0, total) == b"".join(chunks)

    def test_empty_append_rejected(self, store, blob_id):
        with pytest.raises(InvalidRangeError):
            store.append(blob_id, b"")

    def test_append_ex_reports_details(self, store, blob_id):
        result = store.append_ex(blob_id, make_payload(4 * PAGE))
        assert result.version == 1
        assert result.pages_written == 4
        assert result.bytes_written == 4 * PAGE
        assert result.metadata_nodes_written == 7  # full tree over 4 pages


class TestWrite:
    def test_aligned_overwrite(self, store, blob_id):
        base = make_payload(8 * PAGE, seed=1)
        patch = make_payload(2 * PAGE, seed=9)
        store.append(blob_id, base)
        version = store.write(blob_id, patch, 2 * PAGE)
        store.sync(blob_id, version)
        expected = base[:2 * PAGE] + patch + base[4 * PAGE:]
        assert store.read(blob_id, version, 0, 8 * PAGE) == expected

    def test_old_version_untouched_by_overwrite(self, store, blob_id):
        base = make_payload(4 * PAGE, seed=1)
        store.append(blob_id, base)
        version = store.write(blob_id, make_payload(PAGE, seed=5), PAGE)
        store.sync(blob_id, version)
        assert store.read(blob_id, 1, 0, 4 * PAGE) == base

    def test_unaligned_overwrite_preserves_surrounding_bytes(self, store, blob_id):
        base = make_payload(3 * PAGE, seed=3)
        store.append(blob_id, base)
        version = store.write(blob_id, b"XYZ", 10)
        store.sync(blob_id, version)
        data = store.read(blob_id, version, 0, 3 * PAGE)
        assert data[:10] == base[:10]
        assert data[10:13] == b"XYZ"
        assert data[13:] == base[13:]

    def test_write_extending_the_blob(self, store, blob_id):
        store.append(blob_id, make_payload(2 * PAGE))
        version = store.write(blob_id, make_payload(3 * PAGE, seed=4), PAGE)
        store.sync(blob_id, version)
        assert store.get_size(blob_id, version) == 4 * PAGE

    def test_write_at_exact_end_behaves_like_append(self, store, blob_id):
        store.append(blob_id, b"a" * PAGE)
        version = store.write(blob_id, b"b" * PAGE, PAGE)
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 0, 2 * PAGE) == b"a" * PAGE + b"b" * PAGE

    def test_write_beyond_end_fails(self, store, blob_id):
        store.append(blob_id, b"a" * PAGE)
        with pytest.raises(InvalidRangeError):
            store.write(blob_id, b"x", 2 * PAGE)

    def test_write_to_empty_blob_at_offset_zero(self, store, blob_id):
        version = store.write(blob_id, b"hello", 0)
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 0, 5) == b"hello"

    def test_negative_offset_rejected(self, store, blob_id):
        with pytest.raises(InvalidRangeError):
            store.write(blob_id, b"x", -1)

    def test_empty_write_rejected(self, store, blob_id):
        with pytest.raises(InvalidRangeError):
            store.write(blob_id, b"", 0)

    def test_failed_write_does_not_leak_pages(self, store, cluster, blob_id):
        store.append(blob_id, b"a" * PAGE)
        pages_before = cluster.stored_page_count()
        with pytest.raises(InvalidRangeError):
            store.write(blob_id, b"x" * PAGE, 10 * PAGE)
        assert cluster.stored_page_count() == pages_before
        # The failed attempt must not block later publication either.
        version = store.append(blob_id, b"b" * PAGE)
        store.sync(blob_id, version)
        assert store.get_recent(blob_id) == version


class TestRead:
    def test_read_arbitrary_ranges(self, store, blob_id):
        payload = make_payload(10 * PAGE, seed=2)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        for offset, size in [(0, 1), (PAGE - 1, 2), (3 * PAGE + 7, 4 * PAGE),
                             (9 * PAGE, PAGE), (0, 10 * PAGE)]:
            assert store.read(blob_id, version, offset, size) == \
                payload[offset:offset + size]

    def test_read_zero_bytes(self, store, blob_id):
        version = store.append(blob_id, b"abc")
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 1, 0) == b""

    def test_read_unpublished_version_fails(self, store, blob_id):
        with pytest.raises(VersionNotPublishedError):
            store.read(blob_id, 3, 0, 1)

    def test_read_beyond_snapshot_size_fails(self, store, blob_id):
        version = store.append(blob_id, b"x" * 100)
        store.sync(blob_id, version)
        with pytest.raises(InvalidRangeError):
            store.read(blob_id, version, 50, 100)

    def test_read_negative_arguments_rejected(self, store, blob_id):
        version = store.append(blob_id, b"x" * 100)
        store.sync(blob_id, version)
        with pytest.raises(InvalidRangeError):
            store.read(blob_id, version, -1, 10)
        with pytest.raises(InvalidRangeError):
            store.read(blob_id, version, 0, -10)

    def test_read_unknown_blob(self, store):
        with pytest.raises(UnknownBlobError):
            store.read("missing", 0, 0, 0)

    def test_read_recent_returns_version_and_data(self, store, blob_id):
        payload = make_payload(2 * PAGE)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        got_version, data = store.read_recent(blob_id, 0, len(payload))
        assert got_version == version
        assert data == payload

    def test_read_ex_reports_metadata_traffic(self, store, blob_id):
        version = store.append(blob_id, make_payload(8 * PAGE))
        store.sync(blob_id, version)
        data, stats = store.read_ex(blob_id, version, 0, PAGE)
        assert len(data) == PAGE
        assert stats.pages_fetched == 1
        assert stats.metadata_nodes_fetched == 4  # root..leaf path in an 8-page tree


class TestVersionHistory:
    def test_every_version_remains_readable(self, store, blob_id):
        history = []
        content = bytearray()
        for index in range(12):
            chunk = make_payload(37 + index * 11, seed=index)
            store.append(blob_id, chunk)
            content.extend(chunk)
            history.append(bytes(content))
        store.sync(blob_id, len(history))
        for version, expected in enumerate(history, start=1):
            assert store.read(blob_id, version, 0, len(expected)) == expected

    def test_interleaved_writes_and_appends(self, store, blob_id):
        reference = bytearray()
        snapshots = {0: b""}
        operations = [
            ("append", make_payload(2 * PAGE, seed=1), None),
            ("write", make_payload(PAGE, seed=2), 0),
            ("append", make_payload(100, seed=3), None),
            ("write", make_payload(150, seed=4), 2 * PAGE - 30),
            ("append", make_payload(PAGE, seed=5), None),
            ("write", b"?" * 10, 5),
        ]
        version = 0
        for kind, payload, offset in operations:
            if kind == "append":
                offset = len(reference)
                version = store.append(blob_id, payload)
            else:
                version = store.write(blob_id, payload, offset)
            if offset + len(payload) > len(reference):
                reference.extend(bytes(offset + len(payload) - len(reference)))
            reference[offset:offset + len(payload)] = payload
            snapshots[version] = bytes(reference)
        store.sync(blob_id, version)
        for snapshot_version, expected in snapshots.items():
            size = store.get_size(blob_id, snapshot_version)
            assert size == len(expected)
            assert store.read(blob_id, snapshot_version, 0, size) == expected

    def test_get_recent_is_monotone(self, store, blob_id):
        seen = 0
        for index in range(5):
            store.append(blob_id, make_payload(20, seed=index))
            recent = store.get_recent(blob_id)
            assert recent >= seen
            seen = recent


class TestStorageAccounting:
    def test_only_new_pages_consume_space(self, store, cluster, blob_id):
        base = make_payload(8 * PAGE)
        store.append(blob_id, base)
        bytes_after_base = cluster.storage_bytes_used()
        version = store.write(blob_id, make_payload(PAGE, seed=7), 3 * PAGE)
        store.sync(blob_id, version)
        assert cluster.storage_bytes_used() == bytes_after_base + PAGE

    def test_pages_spread_over_providers(self, store, cluster, blob_id):
        version = store.append(blob_id, make_payload(32 * PAGE))
        store.sync(blob_id, version)
        distribution = cluster.page_load_distribution()
        assert sum(distribution.values()) == 32 * PAGE
        assert all(load > 0 for load in distribution.values())
        assert cluster.provider_manager.imbalance() == pytest.approx(1.0)

    def test_metadata_nodes_spread_over_buckets(self, store, cluster, blob_id):
        version = store.append(blob_id, make_payload(64 * PAGE))
        store.sync(blob_id, version)
        distribution = cluster.metadata_load_distribution()
        assert sum(distribution.values()) == 127  # 64 leaves + 63 inner nodes
        assert sum(1 for count in distribution.values() if count > 0) >= 6


class TestParallelIOAndStrictModes:
    def test_strict_unaligned_mode(self, cluster):
        store = BlobStore(cluster, strict_unaligned=True)
        blob_id = store.create()
        store.append(blob_id, b"a" * 100)
        version = store.write(blob_id, b"B" * 50, 25)
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 0, 100) == b"a" * 25 + b"B" * 50 + b"a" * 25

    def test_checksum_verifying_cluster_roundtrip(self, replicated_cluster):
        store = BlobStore(replicated_cluster)
        blob_id = store.create()
        payload = make_payload(6 * PAGE, seed=11)
        version = store.append(blob_id, payload)
        store.sync(blob_id, version)
        assert store.read(blob_id, version, 0, len(payload)) == payload
