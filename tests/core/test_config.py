"""Unit tests for cluster configuration."""

import pytest

from repro.core import ClusterConfig
from repro.hw.latency import MiB


def test_defaults_valid():
    config = ClusterConfig()
    assert config.total_servers == config.num_nodes * config.servers_per_node
    assert config.node_memory_bytes > config.servers_per_node * config.server_memory_bytes - 1


def test_validation():
    with pytest.raises(ValueError):
        ClusterConfig(num_nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(servers_per_node=0)
    with pytest.raises(ValueError):
        ClusterConfig(donation_fraction=1.5)
    with pytest.raises(ValueError):
        ClusterConfig(replication_factor=0)
    with pytest.raises(ValueError):
        ClusterConfig(group_size=-1)
    with pytest.raises(ValueError):
        ClusterConfig(heartbeat_period=2.0, heartbeat_timeout=1.0)


def test_a_negative_fabric_core_is_rejected():
    with pytest.raises(ValueError, match="fabric_core_concurrency"):
        ClusterConfig(fabric_core_concurrency=-1)
    assert ClusterConfig(fabric_core_concurrency=0).fabric_core_concurrency == 0


def test_with_overrides():
    config = ClusterConfig(num_nodes=4)
    other = config.with_overrides(num_nodes=8, server_memory_bytes=32 * MiB)
    assert other.num_nodes == 8
    assert other.server_memory_bytes == 32 * MiB
    assert config.num_nodes == 4  # original untouched


def test_node_memory_includes_host_reserve():
    config = ClusterConfig(
        servers_per_node=2, server_memory_bytes=64 * MiB, host_reserved_bytes=16 * MiB
    )
    assert config.node_memory_bytes == 144 * MiB
