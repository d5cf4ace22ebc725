"""Trace-level proof that same-node ranks bypass the PCIe/NIC path.

The acceptance check for the shared-memory transport: run a collective
with two ranks per node and verify, from the recorded timeline itself,
that every intra-node message lives entirely in cpu/transport land —
zero PCIe, NIC or network events — while inter-node messages still walk
the full stack.
"""

from repro.collectives import run_collective
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig
from repro.trace import trace_session

DET = SystemConfig.builder().deterministic().build()

HW_LAYERS = {"pcie", "nic", "network"}


def _events_by_message(session):
    """msg id → set of layers that recorded any span/instant for it."""
    layers: dict[object, set[str]] = {}
    for event in session.spans() + session.instants():
        msg = event.attrs.get("msg")
        if msg is not None:
            layers.setdefault(msg, set()).add(event.layer)
    return layers


class TestIntraNodeBypass:
    def test_shm_messages_have_zero_pcie_nic_events(self):
        with trace_session() as session:
            cluster = Cluster(2, config=DET, processes_per_node=2)
            result = run_collective("allreduce", cluster, algorithm="ring", iterations=1)
        assert result.processes_per_node == 2
        assert result.total_ns > 0

        shm_messages = {
            span.attrs["msg"]
            for tracer in session.tracers
            for span in tracer.spans()
            if span.layer == "transport" and span.name == "shm_post"
        }
        # A 4-rank ring on 2 nodes has intra-node neighbour pairs
        # (0,1) and (2,3) in both directions.
        assert shm_messages

        layers = _events_by_message(session)
        nic_messages = {msg for msg in layers if msg not in shm_messages}
        # The ring also crosses the node boundary, so the control group
        # is non-empty and does use the hardware path.
        assert nic_messages
        assert any(layers[msg] & HW_LAYERS for msg in nic_messages)

        for msg in shm_messages:
            hw = layers[msg] & HW_LAYERS
            assert not hw, f"shm message {msg} touched hardware layers {hw}"

    def test_single_rank_per_node_has_no_shm_events(self):
        with trace_session() as session:
            cluster = Cluster(2, config=DET)
            run_collective("allreduce", cluster, algorithm="ring", iterations=1)
        assert not [
            span
            for tracer in session.tracers
            for span in tracer.spans()
            if span.layer == "transport"
        ]
