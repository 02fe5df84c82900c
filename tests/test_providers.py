"""Unit tests for data providers, allocation strategies and the provider
manager."""

import pytest

from repro.errors import NoProvidersError, PageNotFoundError, ProviderUnavailableError
from repro.providers.allocation import (
    LeastLoadedAllocation,
    RandomAllocation,
    RoundRobinAllocation,
    make_allocation_strategy,
)
from repro.providers.data_provider import DataProvider
from repro.providers.page_store import NullPageStore
from repro.providers.provider_manager import ProviderManager


class TestDataProvider:
    def test_store_and_fetch(self):
        provider = DataProvider("data-0000")
        provider.store_page("p1", b"payload")
        assert provider.fetch_page("p1") == b"payload"
        assert provider.fetch_page("p1", offset=3, length=2) == b"lo"
        assert provider.has_page("p1")

    def test_missing_page(self):
        provider = DataProvider("data-0000")
        with pytest.raises(PageNotFoundError):
            provider.fetch_page("ghost")

    def test_kill_and_revive(self):
        provider = DataProvider("data-0000")
        provider.store_page("p1", b"x")
        provider.kill()
        with pytest.raises(ProviderUnavailableError):
            provider.fetch_page("p1")
        with pytest.raises(ProviderUnavailableError):
            provider.store_page("p2", b"y")
        provider.revive()
        assert provider.fetch_page("p1") == b"x"

    def test_checksum_verification(self):
        provider = DataProvider("data-0000", verify_checksums=True)
        provider.store_page("p1", b"payload")
        assert provider.fetch_page("p1") == b"payload"

    def test_stats(self):
        provider = DataProvider("data-0000")
        provider.store_page("p1", b"aaaa")
        provider.fetch_page("p1")
        stats = provider.stats()
        assert stats.pages == 1
        assert stats.bytes_used == 4
        assert stats.put_requests == 1
        assert stats.get_requests == 1

    def test_virtual_pages_on_null_store(self):
        provider = DataProvider("data-0000", store=NullPageStore())
        provider.store_page("p1", bytes(4096))
        assert provider.bytes_used() == 4096
        assert provider.fetch_page("p1", 0, 10) == bytes(10)

    def test_delete_page(self):
        provider = DataProvider("data-0000")
        provider.store_page("p1", b"x")
        assert provider.delete_page("p1") is True
        assert provider.delete_page("p1") is False


class TestAllocationStrategies:
    PROVIDERS = [f"data-{index:04d}" for index in range(4)]

    def test_round_robin_cycles(self):
        strategy = RoundRobinAllocation()
        first = strategy.select(self.PROVIDERS, 6, lambda _p: 0)
        assert first == ["data-0000", "data-0001", "data-0002", "data-0003",
                         "data-0000", "data-0001"]
        second = strategy.select(self.PROVIDERS, 2, lambda _p: 0)
        assert second == ["data-0002", "data-0003"]

    def test_round_robin_empty_providers(self):
        assert RoundRobinAllocation().select([], 3, lambda _p: 0) == []

    def test_random_is_seedable(self):
        a = RandomAllocation(seed=7).select(self.PROVIDERS, 10, lambda _p: 0)
        b = RandomAllocation(seed=7).select(self.PROVIDERS, 10, lambda _p: 0)
        assert a == b
        assert set(a) <= set(self.PROVIDERS)

    def test_least_loaded_prefers_idle_providers(self):
        strategy = LeastLoadedAllocation(page_size_hint=60)
        loads = {"data-0000": 100, "data-0001": 0, "data-0002": 50, "data-0003": 100}
        chosen = strategy.select(self.PROVIDERS, 3, loads.get)
        # Greedy minimum, updated with the 60-byte hint after each choice:
        # 0001 (load 0), 0002 (load 50 vs 60), then 0001 again (60 vs 110).
        assert chosen == ["data-0001", "data-0002", "data-0001"]

    def test_factory(self):
        assert isinstance(make_allocation_strategy("round_robin"), RoundRobinAllocation)
        assert isinstance(make_allocation_strategy("random"), RandomAllocation)
        strategy = make_allocation_strategy("least_loaded")
        assert isinstance(strategy, LeastLoadedAllocation)
        with pytest.raises(ValueError):
            make_allocation_strategy("psychic")


class TestProviderManager:
    def _manager(self, count=4):
        manager = ProviderManager()
        for index in range(count):
            manager.register(DataProvider(f"data-{index:04d}"))
        return manager

    def test_register_and_allocate(self):
        manager = self._manager()
        assert len(manager) == 4
        allocation = manager.allocate(8)
        assert len(allocation) == 8
        assert set(allocation) == set(manager.provider_ids())

    def test_allocate_zero(self):
        assert self._manager().allocate(0) == []

    def test_no_providers_raises(self):
        manager = ProviderManager()
        with pytest.raises(NoProvidersError):
            manager.allocate(1)

    def test_deregistered_provider_not_allocated_but_still_readable(self):
        manager = self._manager()
        manager.provider("data-0001").store_page("p1", b"x")
        manager.deregister("data-0001")
        allocation = manager.allocate(12)
        assert "data-0001" not in allocation
        assert manager.provider("data-0001").fetch_page("p1") == b"x"

    def test_dead_providers_skipped(self):
        manager = self._manager()
        manager.provider("data-0002").kill()
        allocation = manager.allocate(9)
        assert "data-0002" not in allocation

    def test_all_dead_raises(self):
        manager = self._manager(2)
        for provider in manager.providers():
            provider.kill()
        with pytest.raises(NoProvidersError):
            manager.allocate(1)

    def test_load_accounting_and_imbalance(self):
        manager = self._manager()
        assert manager.imbalance() == 0.0
        for index, provider_id in enumerate(manager.allocate(8)):
            manager.provider(provider_id).store_page(f"p{index}", b"z" * 10)
        assert manager.total_pages() == 8
        assert manager.total_bytes_used() == 80
        assert manager.imbalance() == pytest.approx(1.0)

    def test_allocate_providers_resolves_objects(self):
        manager = self._manager()
        providers = manager.allocate_providers(3)
        assert all(isinstance(provider, DataProvider) for provider in providers)
