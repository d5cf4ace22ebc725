"""ISSUE-5 acceptance: 64-node ring allreduce on a k=4 fat-tree.

The scale-out payoff of the whole PR: 64 ranks, 8 bytes each, routed
over a k=4 fat-tree with per-link FIFO contention, on the callback fast
tier (~1M events in a few seconds of wall clock).  The measured
completion time must match the analytic 2(N−1)-step model — the
paper's §6 per-message latency components composed over the ring's
dependency chain with the actual routed per-link latencies — within 5%.
"""

import pytest

from repro.collectives import predicted_ring_allreduce_ns, run_collective
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig

N_NODES = 64


class TestRingAllreduce64:
    @pytest.fixture(scope="class")
    def outcome(self):
        config = (
            SystemConfig.builder().deterministic().topology("fat_tree:4").build()
        )
        cluster = Cluster(N_NODES, config=config)
        result = run_collective(
            "allreduce", cluster, algorithm="ring", payload_bytes=8, iterations=1
        )
        return cluster, result

    def test_completes_within_5pct_of_the_2n_minus_1_step_model(self, outcome):
        cluster, result = outcome
        predicted = predicted_ring_allreduce_ns(
            N_NODES, cluster.config, cluster.topology, iterations=1
        )
        error = abs(result.total_ns - predicted) / predicted
        assert error < 0.05, (
            f"64-node ring allreduce off by {error:.2%}: "
            f"simulated {result.total_ns:.1f} ns vs model {predicted:.1f} ns"
        )

    def test_steps_and_shape(self, outcome):
        _, result = outcome
        assert result.n_nodes == N_NODES
        assert result.steps == 2 * (N_NODES - 1)
        assert result.payload_bytes == 8

    def test_traffic_actually_crossed_shared_fabric_links(self, outcome):
        cluster, _ = outcome
        stats = cluster.fabric.link_stats()
        # 64 hosts on 8 edge switches: consecutive ranks mostly talk
        # within their edge switch, but every 8th ring hop crosses the
        # aggregation/core tiers on shared cables.
        core_links = {
            name: s for name, s in stats.items() if "ft.c" in name and s["frames"]
        }
        assert core_links, "no traffic crossed the core tier"
        assert any(s["peak_inflight"] > 1 for s in stats.values()), (
            "no link ever carried two frames at once"
        )
