"""Unit tests for configuration validation."""

import pytest

from repro.config import (
    BlobSeerConfig,
    DeploymentPlan,
    GRID5000_PROFILE,
    SimConfig,
    is_power_of_two,
)
from repro.errors import ConfigurationError


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 64, 65536, 2**30])
    def test_powers(self, value):
        assert is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -4, 3, 6, 65535])
    def test_non_powers(self, value):
        assert not is_power_of_two(value)


class TestBlobSeerConfig:
    def test_defaults_are_valid(self):
        config = BlobSeerConfig()
        assert config.page_size == 64 * 1024
        assert config.metadata_replication == config.page_replication == 1

    def test_page_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(page_size=1000)

    def test_replication_bounded_by_providers(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(num_data_providers=2, page_replication=3)
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(num_metadata_providers=2, metadata_replication=3)

    def test_unknown_allocation_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(allocation_strategy="chaotic")

    def test_unknown_dht_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(dht_strategy="rendezvous")

    def test_update_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(update_timeout=0.0)
        assert BlobSeerConfig(update_timeout=5.0).update_timeout == 5.0

    def test_at_least_one_provider_required(self):
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(num_data_providers=0)
        with pytest.raises(ConfigurationError):
            BlobSeerConfig(num_metadata_providers=0)


class TestSimConfig:
    def test_grid5000_profile_matches_paper_measurements(self):
        assert GRID5000_PROFILE.nic_bandwidth == pytest.approx(117.5 * 1024 * 1024)
        assert GRID5000_PROFILE.latency == pytest.approx(0.1e-3)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(nic_bandwidth=-1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(latency=-0.1)

    def test_negative_overheads_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(rpc_overhead=-1e-3)
        with pytest.raises(ConfigurationError):
            SimConfig(metadata_rpc_overhead=-1e-3)


class TestDeploymentPlan:
    def test_paper_layout(self):
        plan = DeploymentPlan(num_provider_nodes=173, clients=175)
        assert plan.num_data_providers == 173
        assert plan.num_metadata_providers == 173

    def test_dedicated_metadata_node(self):
        plan = DeploymentPlan(num_provider_nodes=10, co_deploy_metadata=False)
        assert plan.num_metadata_providers == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DeploymentPlan(num_provider_nodes=0)
        with pytest.raises(ConfigurationError):
            DeploymentPlan(clients=0)
