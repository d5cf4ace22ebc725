"""The pluggable transport layer: resolution, shm path, multi-rail."""

import zlib

import pytest

from repro.llp.uct import UCS_OK, UctWorker
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig
from repro.node.testbed import Testbed
from repro.transport import TransportConfig

DET = SystemConfig.builder().deterministic().build()


def _workers(cluster):
    return [UctWorker(node) for node in cluster.nodes]


class TestTransportConfig:
    def test_defaults_are_single_rail_shm_enabled(self):
        config = TransportConfig()
        assert config.rails == 1
        assert config.shm_enabled
        assert config.shm_copy_64b_ns is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rails": 0},
            {"rail_policy": "fastest"},
            {"shm_latency_ns": -1.0},
            {"shm_copy_64b_ns": -0.5},
            {"rail_split_bytes": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TransportConfig(**kwargs)

    def test_default_transport_elided_from_config_hash(self):
        # Pre-transport campaign caches key on the config hash; the new
        # section must not invalidate them at its default value.
        from repro.sim.hashing import canonicalize

        base = SystemConfig.paper_testbed()
        (payload,) = canonicalize(base).values()
        assert "transport" not in payload
        changed = SystemConfig.builder().transport(rails=2).build()
        (changed_payload,) = canonicalize(changed).values()
        assert "transport" in changed_payload
        assert base.stable_hash() != changed.stable_hash()

    def test_builder_rejects_unknown_transport_keyword(self):
        with pytest.raises(TypeError, match="rail_policy"):
            SystemConfig.builder().transport(rail_polcy="round_robin")


class TestResolution:
    def test_cross_node_resolves_nic_transport(self):
        tb = Testbed(DET)
        w1, w2 = UctWorker(tb.node1), UctWorker(tb.node2)
        ep = w1.create_iface().create_ep(w2.create_iface())
        assert ep.transport.caps.name == "pcie_nic"
        assert ep.transport.caps.uses_pcie

    def test_same_node_resolves_shm_transport(self):
        cluster = Cluster(2, config=DET, processes_per_node=2)
        node = cluster.nodes[0]
        w1 = UctWorker(node, core=node.cores[0])
        w2 = UctWorker(node, core=node.cores[1])
        ep = w1.create_iface().create_ep(w2.create_iface())
        assert ep.transport.caps.name == "shm"
        assert ep.transport.caps.intra_node
        assert not ep.transport.caps.uses_pcie

    def test_shm_disabled_falls_back_to_nic(self):
        config = SystemConfig.builder(DET).transport(shm_enabled=False).build()
        cluster = Cluster(2, config=config, processes_per_node=2)
        node = cluster.nodes[0]
        w1 = UctWorker(node, core=node.cores[0])
        w2 = UctWorker(node, core=node.cores[1])
        ep = w1.create_iface().create_ep(w2.create_iface())
        assert ep.transport.caps.name == "pcie_nic"


class TestIfaceNaming:
    def test_workers_on_one_node_get_distinct_mailboxes(self):
        # Interfaces are numbered per node: two workers sharing a node
        # must never dequeue each other's AMs or CQEs.
        cluster = Cluster(2, config=DET, processes_per_node=2)
        node = cluster.nodes[0]
        ifaces = [UctWorker(node, core=core).create_iface() for core in node.cores]
        assert [iface.name for iface in ifaces] == ["node0.iface0", "node0.iface1"]
        assert ifaces[0].am_mailbox is not ifaces[1].am_mailbox
        assert ifaces[0].qp.cq.mailbox is not ifaces[1].qp.cq.mailbox

    def test_single_worker_node_keeps_iface0(self):
        tb = Testbed(DET)
        assert UctWorker(tb.node1).create_iface().name == "node1.iface0"
        assert UctWorker(tb.node2).create_iface().name == "node2.iface0"


class TestShmPath:
    def test_shm_post_completes_inline_and_delivers(self):
        cluster = Cluster(2, config=DET, processes_per_node=2)
        node = cluster.nodes[0]
        w1 = UctWorker(node, core=node.cores[0])
        w2 = UctWorker(node, core=node.cores[1])
        iface1, iface2 = w1.create_iface(), w2.create_iface()
        ep = iface1.create_ep(iface2)
        env = cluster.env
        got = []
        iface2.set_am_handler(lambda message: got.append(message))

        def sender():
            status = yield from ep.am_short(8)
            assert status == UCS_OK

        def receiver():
            yield from w2.progress_until(lambda: bool(got))

        env.process(sender(), name="shm.send")
        p = env.process(receiver(), name="shm.recv")
        env.run(until=p)
        assert len(got) == 1
        message = got[0]
        assert message.payload_bytes == 8
        # No PCIe/NIC artefacts: never entered a queue pair.
        assert message.qp is None
        assert all(qp.txq.occupied == 0 for qp in iface1.qps)
        assert "shm_copied" in message.timestamps
        assert iface1.successful_posts == 1

    def test_shm_never_busy_posts(self):
        cluster = Cluster(2, config=DET, processes_per_node=2)
        node = cluster.nodes[0]
        w1 = UctWorker(node, core=node.cores[0])
        w2 = UctWorker(node, core=node.cores[1])
        ep = w1.create_iface().create_ep(w2.create_iface())
        assert ep.can_post(8)
        assert ep.can_post(4096)

    def test_shm_is_faster_than_nic_loopback_config(self):
        # One-way 8B latency: shm delivery instant vs the full
        # PCIe+NIC+wire path between nodes.
        cluster = Cluster(2, config=DET, processes_per_node=2)
        node = cluster.nodes[0]
        w1 = UctWorker(node, core=node.cores[0])
        w2 = UctWorker(node, core=node.cores[1])
        iface2 = w2.create_iface()
        ep = w1.create_iface().create_ep(iface2)
        env = cluster.env

        def sender():
            yield from ep.am_short(8)

        p = env.process(sender(), name="send")
        env.run(until=p)
        env.run()  # drain the deferred delivery
        message = ep.iface.last_message
        shm_ns = message.timestamps["payload_visible"] - message.timestamps["posted"]
        # The config's inter-node one-way network latency alone exceeds
        # the whole shm hand-off.
        assert shm_ns < cluster.config.network.one_way_latency()


class TestMultiRail:
    def _run_posts(self, policy, n_posts=8, payload=8, split=64):
        config = (
            SystemConfig.builder()
            .deterministic()
            .transport(rails=2, rail_policy=policy, rail_split_bytes=split)
            .build()
        )
        cluster = Cluster(2, config=config)
        w0, w1 = _workers(cluster)
        i0, i1 = w0.create_iface(), w1.create_iface()
        ep = i0.create_ep(i1)

        def sender():
            for _ in range(n_posts):
                if payload <= config.nic.inline_max_bytes:
                    status = yield from ep.put_short(payload)
                else:
                    status = yield from ep.put_zcopy(payload)
                assert status == UCS_OK
            while any(qp.txq.occupied for qp in i0.qps):
                yield from w0.progress()

        p = cluster.env.process(sender(), name="sender")
        cluster.run(until=p)
        stats = cluster.fabric.link_stats()
        return cluster, ep, stats

    def test_node_owns_one_stack_per_rail(self):
        config = SystemConfig.builder(DET).transport(rails=2).build()
        cluster = Cluster(2, config=config)
        node = cluster.nodes[0]
        assert len(node.rails) == 2
        assert node.rails[0].nic is node.nic
        assert node.rails[1].nic.name == "node0.nic1"
        assert node.rails[1].link is not node.link

    def test_round_robin_splits_posts_evenly(self):
        _, _, stats = self._run_posts("round_robin")
        assert stats["node0.nic->node1.nic"]["frames"] == 4
        assert stats["node0.nic1->node1.nic1"]["frames"] == 4

    def test_hash_by_peer_keeps_flow_on_one_rail(self):
        cluster, ep, stats = self._run_posts("hash_by_peer")
        key = f"{ep.iface.name}->{ep.remote_recv_target}"
        rail = zlib.crc32(key.encode("utf-8")) % 2
        expected = f"node0.nic{'' if rail == 0 else '1'}->node1.nic{'' if rail == 0 else '1'}"
        assert stats[expected]["frames"] == 8

    def test_size_split_routes_large_messages_to_last_rail(self):
        _, _, small = self._run_posts("size_split", payload=8, split=64)
        assert small["node0.nic->node1.nic"]["frames"] == 8
        _, _, large = self._run_posts("size_split", payload=128, split=64)
        assert large["node0.nic1->node1.nic1"]["frames"] == 8

    def test_single_rail_run_unchanged_by_transport_section(self):
        # The refactor's contract: with defaults, posting artefacts are
        # exactly the pre-transport ones (names, rail list, qp alias).
        tb = Testbed(DET)
        worker = UctWorker(tb.node1)
        iface = worker.create_iface()
        assert len(iface.qps) == 1
        assert iface.qp is iface.qps[0]
        assert iface.qp.name == f"{iface.name}.qp"
        assert len(tb.node1.rails) == 1
        assert tb.node1.rails[0].nic is tb.node1.nic
