"""Unit tests for the page store backends (memory, file, null)."""

import pytest

from repro.cache import page_weight
from repro.errors import PageNotFoundError
from repro.providers.page_store import (
    FilePageStore,
    InMemoryPageStore,
    NullPageStore,
)


@pytest.fixture(params=["memory", "file"])
def real_store(request, tmp_path):
    """Backends that keep actual payload bytes."""
    if request.param == "memory":
        return InMemoryPageStore()
    return FilePageStore(str(tmp_path / "pages"))


class TestPayloadStores:
    def test_put_get_roundtrip(self, real_store):
        real_store.put("p1", b"hello world")
        assert real_store.get("p1") == b"hello world"

    def test_partial_reads(self, real_store):
        real_store.put("p1", b"0123456789")
        assert real_store.get("p1", offset=2, length=3) == b"234"
        assert real_store.get("p1", offset=5) == b"56789"

    def test_missing_page(self, real_store):
        with pytest.raises(PageNotFoundError):
            real_store.get("ghost")
        with pytest.raises(PageNotFoundError):
            real_store.page_info("ghost")

    def test_delete(self, real_store):
        real_store.put("p1", b"data")
        assert real_store.delete("p1") is True
        assert real_store.delete("p1") is False
        assert not real_store.contains("p1")

    def test_accounting(self, real_store):
        real_store.put("p1", b"aaaa")
        real_store.put("p2", b"bbbbbb", checksummed=True)
        assert real_store.page_count() == 2
        assert real_store.bytes_used() == 10
        info = real_store.page_info("p2")
        assert info.size == 6
        # A store asked to checksum records one; otherwise none is computed.
        assert info.checksum.startswith("crc32:")
        assert real_store.page_info("p1").checksum is None

    def test_overwrite_updates_accounting(self, real_store):
        real_store.put("p1", b"aaaa")
        real_store.put("p1", b"bb")
        assert real_store.page_count() == 1
        assert real_store.get("p1") == b"bb"

    def test_empty_page(self, real_store):
        real_store.put("p1", b"")
        assert real_store.get("p1") == b""
        assert real_store.page_info("p1").size == 0


class TestFilePageStoreRestart:
    def test_index_rebuilt_from_directory(self, tmp_path):
        directory = str(tmp_path / "pages")
        store = FilePageStore(directory)
        store.put("p1", b"persisted")
        reopened = FilePageStore(directory)
        assert reopened.contains("p1")
        assert reopened.get("p1") == b"persisted"
        assert reopened.bytes_used() == 9

    def test_path_traversal_is_neutralized(self, tmp_path):
        directory = tmp_path / "pages"
        store = FilePageStore(str(directory))
        store.put("../escape", b"x")
        assert store.get("../escape") == b"x"
        assert not (tmp_path / "escape").exists()


class TestNullPageStore:
    def test_records_sizes_only(self):
        store = NullPageStore()
        store.put("p1", b"xxxx")
        store.put("p2", bytes(1024))
        assert store.page_count() == 2
        assert store.bytes_used() == 4 + 1024

    def test_reads_return_zero_bytes(self):
        store = NullPageStore()
        store.put("p1", bytes(100))
        assert store.get("p1") == bytes(100)
        assert store.get("p1", offset=90, length=20) == bytes(10)

    def test_payloads_are_read_only_views_of_one_zero_buffer(self):
        """The simulator's page caches hold these payloads: they weigh
        their length in a cache but share one buffer in memory."""
        store = NullPageStore()
        store.put("p1", bytes(64))
        store.put("p2", bytes(4096))
        small, large, again = store.get("p1"), store.get("p2"), store.get("p1")
        assert isinstance(large, memoryview) and large.readonly
        assert len(small) == 64 and len(large) == 4096
        assert again.obj is large.obj  # the buffer grew once, then is shared
        assert page_weight(("ns", "p2", 0, 4096), large) >= 4096

    def test_missing_page(self):
        store = NullPageStore()
        with pytest.raises(PageNotFoundError):
            store.get("nope")

    def test_delete_and_info(self):
        store = NullPageStore()
        store.put("p1", bytes(64))
        assert store.page_info("p1").size == 64
        assert store.delete("p1") is True
        assert store.bytes_used() == 0
