"""Tests for the file-like adapters and the client-side metadata cache."""

import io

import pytest

from repro import Blob, BlobStore, CacheStats, NodeCache
from repro.core.io import AppendWriter
from repro.errors import InvalidRangeError

from .conftest import TEST_PAGE_SIZE, make_payload

PAGE = TEST_PAGE_SIZE


class TestSnapshotReader:
    def _blob(self, store, size=10 * PAGE, seed=1):
        blob = Blob.create(store)
        payload = make_payload(size, seed=seed)
        blob.sync(blob.append(payload))
        return blob, payload

    def test_sequential_reads(self, store):
        blob, payload = self._blob(store)
        reader = blob.open_reader()
        assert reader.read(100) == payload[:100]
        assert reader.read(PAGE) == payload[100:100 + PAGE]
        assert reader.tell() == 100 + PAGE

    def test_read_all_and_eof(self, store):
        blob, payload = self._blob(store)
        reader = blob.open_reader()
        assert reader.read() == payload
        assert reader.read(10) == b""
        assert reader.tell() == len(payload)

    def test_seek_whence_variants(self, store):
        blob, payload = self._blob(store)
        reader = blob.open_reader()
        reader.seek(5 * PAGE)
        assert reader.read(10) == payload[5 * PAGE:5 * PAGE + 10]
        reader.seek(-20, io.SEEK_END)
        assert reader.read() == payload[-20:]
        reader.seek(0)
        reader.read(7)
        reader.seek(3, io.SEEK_CUR)
        assert reader.tell() == 10
        with pytest.raises(InvalidRangeError):
            reader.seek(-1)
        with pytest.raises(ValueError):
            reader.seek(0, 9)

    def test_reader_is_pinned_to_its_version(self, store):
        blob, payload = self._blob(store)
        reader = blob.open_reader()
        blob.sync(blob.write(b"X" * PAGE, 0))
        assert reader.version == 1
        assert reader.read(PAGE) == payload[:PAGE]  # still the old bytes

    def test_reader_of_specific_old_version(self, store):
        blob, payload = self._blob(store)
        blob.sync(blob.append(make_payload(PAGE, seed=9)))
        reader = blob.open_reader(version=1)
        assert reader.size == len(payload)
        assert reader.read() == payload

    def test_readinto_and_interfaces(self, store):
        blob, payload = self._blob(store)
        reader = blob.open_reader()
        buffer = bytearray(64)
        assert reader.readinto(buffer) == 64
        assert bytes(buffer) == payload[:64]
        assert reader.readable() and reader.seekable() and not reader.writable()

    def test_buffered_wrapper_works(self, store):
        blob, payload = self._blob(store)
        buffered = io.BufferedReader(blob.open_reader(), buffer_size=128)
        assert buffered.read(300) == payload[:300]

    def test_closed_reader_rejects_reads(self, store):
        blob, _payload = self._blob(store)
        reader = blob.open_reader()
        reader.close()
        with pytest.raises(ValueError):
            reader.read(1)


class TestAppendWriter:
    def test_small_writes_are_buffered_until_threshold(self, store):
        blob = Blob.create(store)
        writer = blob.open_writer(flush_threshold=4 * PAGE)
        for _ in range(3):
            writer.write(b"a" * PAGE)
        assert writer.versions == []          # below the threshold: buffered
        writer.write(b"a" * PAGE)
        assert writer.versions == [1]         # threshold reached: one APPEND
        writer.write(b"b" * 10)
        last = writer.sync()
        assert last == 2
        assert blob.read_all() == b"a" * (4 * PAGE) + b"b" * 10

    def test_large_write_is_split_into_threshold_chunks(self, store):
        blob = Blob.create(store)
        writer = blob.open_writer(flush_threshold=2 * PAGE)
        payload = make_payload(7 * PAGE, seed=3)
        writer.write(payload)
        writer.close()
        assert len(writer.versions) == 4      # 3 full chunks + the tail
        assert writer.bytes_written == len(payload)
        blob.sync(writer.versions[-1])
        assert blob.read_all() == payload

    def test_close_flushes_and_further_writes_fail(self, store):
        blob = Blob.create(store)
        writer = blob.open_writer()
        writer.write(b"tail")
        writer.close()
        assert writer.versions == [1]
        with pytest.raises(ValueError):
            writer.write(b"more")
        blob.sync(1)
        assert blob.read_all() == b"tail"

    def test_sync_without_data(self, store):
        blob = Blob.create(store)
        writer = blob.open_writer()
        assert writer.sync() == 0

    def test_invalid_threshold(self, store):
        blob = Blob.create(store)
        with pytest.raises(InvalidRangeError):
            AppendWriter(store, blob.blob_id, flush_threshold=0)

    def test_writer_and_reader_round_trip(self, store):
        blob = Blob.create(store)
        chunks = [make_payload(3 * PAGE + 17, seed=index) for index in range(5)]
        with blob.open_writer(flush_threshold=2 * PAGE) as writer:
            for chunk in chunks:
                writer.write(chunk)
        blob.sync(writer.versions[-1])
        assert blob.open_reader().read() == b"".join(chunks)

    def test_mutated_bytearray_writes_read_back_as_written(self, store, monkeypatch):
        """The writer keeps its own copy of each write, and every flushed
        chunk reaches APPEND as one immutable ``bytes`` of the threshold."""
        appended = []
        append = store.append

        def recording_append(blob_id, data):
            appended.append(data)
            return append(blob_id, data)

        monkeypatch.setattr(store, "append", recording_append)
        blob = Blob.create(store)
        expected = bytearray()
        scratch = bytearray()
        with blob.open_writer(flush_threshold=3 * PAGE) as writer:
            sizes = (1, 17, PAGE + 3, 5 * PAGE + 11, 0, 2 * PAGE - 1)
            for index, size in enumerate(sizes):
                scratch[:] = make_payload(size, seed=index)
                assert writer.write(scratch) == size
                expected += scratch
                scratch[:] = b"\xff" * size   # the caller reuses its buffer
        assert writer.bytes_written == len(expected)
        assert all(type(chunk) is bytes for chunk in appended)
        assert [len(chunk) for chunk in appended[:-1]] == [3 * PAGE] * (
            len(appended) - 1
        )
        blob.sync(writer.versions[-1])
        assert blob.open_reader().read() == expected


class TestMetadataCache:
    def test_cache_reduces_dht_traffic_on_repeated_reads(self, cluster):
        # A cold writer populates the blob; the cached reader shows the
        # miss-then-hit pattern against its own private NodeCache.
        writer = BlobStore(cluster, cache_metadata=False)
        store = BlobStore(cluster, node_cache=NodeCache())
        blob_id = writer.create()
        payload = make_payload(32 * PAGE)
        version = writer.append(blob_id, payload)
        store.sync(blob_id, version)
        gets_before = cluster.dht.stats().gets
        assert store.read(blob_id, version, 0, len(payload)) == payload
        first_pass_gets = cluster.dht.stats().gets - gets_before
        assert store.read(blob_id, version, 0, len(payload)) == payload
        second_pass_gets = cluster.dht.stats().gets - gets_before - first_pass_gets
        assert first_pass_gets > 0
        assert second_pass_gets == 0           # served entirely from the cache
        stats = store.cache_stats()
        assert stats.hits >= stats.misses > 0
        assert stats.entries == first_pass_gets
        assert 0.0 < stats.hit_rate < 1.0
        assert stats.bytes > 0

    def test_cache_is_correct_across_versions(self, cluster):
        store = BlobStore(cluster, node_cache=NodeCache())
        blob_id = store.create()
        base = make_payload(8 * PAGE, seed=1)
        store.append(blob_id, base)
        store.read(blob_id, 1, 0, len(base))    # warm the cache with v1 nodes
        version = store.write(blob_id, make_payload(PAGE, seed=2), 2 * PAGE)
        store.sync(blob_id, version)
        expected = base[:2 * PAGE] + make_payload(PAGE, seed=2) + base[3 * PAGE:]
        assert store.read(blob_id, version, 0, len(base)) == expected
        assert store.read(blob_id, 1, 0, len(base)) == base

    def test_uncached_store_reports_zero_cache(self, store, blob_id):
        version = store.append(blob_id, make_payload(PAGE))
        store.sync(blob_id, version)
        _, stats = store.read_ex(blob_id, version, 0, PAGE)
        assert stats.metadata_cache_hits == 0
        assert stats.metadata_nodes_fetched > 0
        assert store.cache_stats() == CacheStats()
        # The legacy metadata_cache_stats() positional shim was removed one
        # release after deprecation, as promised.
        assert not hasattr(store, "metadata_cache_stats")
