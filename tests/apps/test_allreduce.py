"""Tests for the multi-node cluster and ring allreduce as an app kernel."""

import pytest

from repro.collectives import run_collective
from repro.core.components import ComponentTimes
from repro.core.models import EndToEndLatencyModel
from repro.node import Cluster, SystemConfig

DET = SystemConfig.paper_testbed(deterministic=True)
E2E = EndToEndLatencyModel(ComponentTimes.paper()).predicted_ns


class TestCluster:
    def test_nodes_share_clock_and_fabric(self):
        cluster = Cluster(3, config=DET)
        assert len(cluster) == 3
        for node in cluster.nodes:
            assert node.env is cluster.env
            assert node.nic.fabric is cluster.fabric

    def test_all_pairs_paths_exist(self):
        cluster = Cluster(4, config=DET)
        names = [node.nic.name for node in cluster.nodes]
        for src in names:
            for dst in names:
                if src != dst:
                    assert cluster.fabric.path_stages(src, dst)

    def test_analyzer_on_node0(self):
        cluster = Cluster(2, config=DET)
        assert cluster.analyzer.link is cluster.nodes[0].link

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Cluster(1, config=DET)

    def test_two_node_cluster_equivalent_to_testbed_latency(self):
        """A 2-node cluster must time identically to the Testbed."""
        from repro.hlp.mpi import MpiStack

        cluster = Cluster(2, config=DET)
        s0 = MpiStack(cluster.nodes[0])
        s1 = MpiStack(cluster.nodes[1])
        c01 = s0.connect(s1)
        c10 = s1.connect(s0)
        marks = {}

        def initiator():
            recv = yield from c01.irecv(8)
            yield from c01.isend(8)
            yield from c01.wait(recv)

        def responder():
            recv = yield from c10.irecv(8)
            yield from c10.wait(recv)
            marks["one_way"] = cluster.env.now
            yield from c10.isend(8)

        cluster.env.process(responder())
        cluster.env.run(until=cluster.env.process(initiator()))
        assert marks["one_way"] == pytest.approx(E2E, rel=0.05)


def ring_allreduce(n_nodes: int, **params):
    return run_collective(
        "allreduce", Cluster(n_nodes, config=DET), algorithm="ring", **params
    )


class TestRingAllreduce:
    @pytest.fixture(scope="class")
    def results(self):
        return {n: ring_allreduce(n, iterations=5) for n in (2, 4, 8)}

    def test_step_count(self, results):
        assert results[2].steps == 2
        assert results[4].steps == 6
        assert results[8].steps == 14

    def test_per_step_time_is_one_latency(self, results):
        """Each lockstep ring step costs one end-to-end latency (the
        §6 model composed): within 2% for every cluster size."""
        for result in results.values():
            assert result.time_per_step_ns == pytest.approx(
                E2E + result.reduce_compute_ns, rel=0.02
            )

    def test_total_scales_with_2n_minus_1_steps(self, results):
        ratio = results[8].time_per_iteration_ns / results[2].time_per_iteration_ns
        assert ratio == pytest.approx(14 / 2, rel=0.02)

    def test_compute_heavy_reduce_adds_per_step(self):
        light = ring_allreduce(4, iterations=3, reduce_compute_ns=0.0)
        heavy = ring_allreduce(4, iterations=3, reduce_compute_ns=500.0)
        added = heavy.time_per_step_ns - light.time_per_step_ns
        assert added == pytest.approx(500.0, abs=30.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ring_allreduce(4, iterations=0)
        with pytest.raises(ValueError):
            ring_allreduce(4, reduce_compute_ns=-1.0)
        with pytest.raises(ValueError):
            ring_allreduce(1)
