"""Tests for the network model, the simulated deployment and clients."""

import pytest

from repro.config import KiB, MiB, SimConfig
from repro.errors import InvalidRangeError
from repro.sim.client import SimClient
from repro.sim.deployment import SimDeployment
from repro.sim.engine import Simulator
from repro.sim.network import Network, SimNode

CFG = SimConfig()


class TestNetworkPrimitives:
    def _run(self, generator):
        sim = Simulator()
        return sim, sim.run_process(generator)

    def test_fetch_round_trip_includes_two_latencies(self):
        sim = Simulator()
        network = Network(sim, CFG)
        client, server = SimNode(sim, "c"), SimNode(sim, "s")
        sim.run_process(network.fetch(client, server, 64 * KiB, service_time=1e-3))
        assert sim.now > 2 * CFG.latency + 1e-3
        assert server.tx.requests == 1
        assert client.rx.requests == 1

    def test_concurrent_pushes_share_the_sender_nic(self):
        sim = Simulator()
        network = Network(sim, CFG)
        src = SimNode(sim, "client")
        destinations = [SimNode(sim, f"p{i}") for i in range(4)]
        for dst in destinations:
            sim.process(network.multi_push(src, dst, 1 * MiB, count=1))
        sim.run()
        # Four 1 MiB payloads serialized through one NIC: at least 4 MiB / bw.
        assert sim.now >= 4 * MiB / CFG.nic_bandwidth

    def test_small_rpc_is_cheap(self):
        sim = Simulator()
        network = Network(sim, CFG)
        a, b = SimNode(sim, "a"), SimNode(sim, "b")
        sim.run_process(network.small_rpc(a, b, service_time=1e-5))
        assert sim.now < 1e-3


class TestSimDeployment:
    def test_topology_mapping(self):
        deployment = SimDeployment(num_provider_nodes=5, page_size=64 * KiB)
        assert deployment.node_for_provider("data-0003").name == "provider-node-0003"
        # Co-deployed metadata: bucket i lives on provider node i.
        assert deployment.node_for_bucket("meta-0002").name == "provider-node-0002"
        assert deployment.client_node(0).name == "client-0000"
        assert deployment.client_node(0) is deployment.client_node(0)

    def test_dedicated_metadata_node_when_not_co_deployed(self):
        deployment = SimDeployment(
            num_provider_nodes=4, co_deploy_metadata=False, page_size=64 * KiB
        )
        assert deployment.config.num_metadata_providers == 1
        assert deployment.node_for_bucket("meta-0000").name == "metadata-node-0000"

    def test_co_located_clients_reuse_provider_nodes(self):
        deployment = SimDeployment(
            num_provider_nodes=3, page_size=64 * KiB, co_locate_clients=True
        )
        assert deployment.client_node(1).name == "provider-node-0001"

    def test_populate_blob_builds_real_state(self):
        deployment = SimDeployment(num_provider_nodes=4, page_size=64 * KiB)
        blob_id = deployment.create_blob()
        version = deployment.populate_blob(blob_id, 8 * MiB, append_bytes=2 * MiB)
        assert version == 4
        vm = deployment.version_manager
        assert vm.get_recent(blob_id) == 4
        assert vm.get_size(blob_id, 4) == 8 * MiB
        assert deployment.cluster.provider_manager.total_pages() == 128
        assert deployment.cluster.metadata_provider.node_count() > 128

    def test_untimed_append_requires_page_alignment(self):
        deployment = SimDeployment(num_provider_nodes=2, page_size=64 * KiB)
        blob_id = deployment.create_blob()
        with pytest.raises(InvalidRangeError):
            deployment.untimed_append(blob_id, 1000)

    def test_reset_timing_keeps_storage_state(self):
        deployment = SimDeployment(num_provider_nodes=3, page_size=64 * KiB)
        blob_id = deployment.create_blob()
        deployment.populate_blob(blob_id, 2 * MiB, append_bytes=1 * MiB)
        old_sim = deployment.simulator
        deployment.reset_timing()
        assert deployment.simulator is not old_sim
        assert deployment.simulator.now == 0.0
        assert deployment.version_manager.get_recent(blob_id) == 2


class TestSimClient:
    def test_append_outcome_matches_real_state(self):
        deployment = SimDeployment(num_provider_nodes=8, page_size=64 * KiB)
        blob_id = deployment.create_blob()
        client = SimClient(deployment, 0)
        outcome = deployment.simulator.run_process(
            client.append_process(blob_id, 2 * MiB)
        )
        assert outcome.result.version == 1
        assert outcome.result.pages_written == 32
        assert outcome.result.metadata_nodes_written == 63  # full tree over 32 pages
        assert outcome.elapsed > 0
        assert 0 < outcome.bandwidth < CFG.nic_bandwidth
        assert deployment.version_manager.get_size(blob_id, 1) == 2 * MiB

    def test_unaligned_simulated_append_rejected(self):
        deployment = SimDeployment(num_provider_nodes=2, page_size=64 * KiB)
        blob_id = deployment.create_blob()
        client = SimClient(deployment, 0)
        with pytest.raises(InvalidRangeError):
            deployment.simulator.run_process(client.append_process(blob_id, 1000))

    def test_read_outcome_and_errors(self):
        deployment = SimDeployment(num_provider_nodes=8, page_size=64 * KiB)
        blob_id = deployment.create_blob()
        deployment.populate_blob(blob_id, 4 * MiB, append_bytes=4 * MiB)
        client = SimClient(deployment, 0)
        outcome = deployment.simulator.run_process(
            client.read_process(blob_id, 1, 0, 1 * MiB)
        )
        assert outcome.stats.pages_fetched == 16
        assert outcome.stats.metadata_nodes_fetched >= 16
        assert outcome.bandwidth > 0
        with pytest.raises(InvalidRangeError):
            deployment.simulator.run_process(
                client.read_process(blob_id, 1, 0, 64 * MiB)
            )

    def test_sequential_appends_give_stable_bandwidth(self):
        deployment = SimDeployment(num_provider_nodes=8, page_size=64 * KiB)
        blob_id = deployment.create_blob()
        client = SimClient(deployment, 0)
        bandwidths = []
        for _ in range(4):
            outcome = deployment.simulator.run_process(
                client.append_process(blob_id, 1 * MiB)
            )
            bandwidths.append(outcome.bandwidth)
        assert max(bandwidths) / min(bandwidths) < 1.1
