"""Scale-out collectives — 64 ranks on a routed k=4 fat-tree.

The acceptance experiment for the fabric layer: a 64-node ring
allreduce (8 B per rank) must land within 5% of the analytic
2(N−1)-step recurrence walked over the routed per-link latencies.
Beyond the assertion, the run is appended to ``BENCH_sim.json`` (via
the run-indexed history in :mod:`test_simulator_performance`) so the
wall-clock and events/sec of the largest standard experiment have a
machine-readable trajectory.
"""

import time

from conftest import write_report
from test_simulator_performance import _record

from repro.collectives import predicted_ring_allreduce_ns, ring_allreduce
from repro.node import SystemConfig
from repro.node.cluster import Cluster

N_NODES = 64
PAYLOAD_BYTES = 8
REDUCE_NS = 20.0


def test_ring_allreduce_64_nodes_fat_tree(report_dir):
    config = (
        SystemConfig.builder().deterministic().topology("fat_tree:4").build()
    )
    cluster = Cluster(N_NODES, config=config)

    t0 = time.perf_counter()
    result = ring_allreduce(
        cluster,
        payload_bytes=PAYLOAD_BYTES,
        reduce_compute_ns=REDUCE_NS,
        iterations=1,
    )
    wall_s = time.perf_counter() - t0

    model = predicted_ring_allreduce_ns(
        N_NODES, config, cluster.topology, reduce_compute_ns=REDUCE_NS
    )
    error = abs(result.total_ns - model) / model
    env = cluster.env
    effective = env.events_executed + env.events_fast_forwarded

    shared = sum(
        1
        for stats in cluster.fabric.link_stats().values()
        if stats["peak_inflight"] > 1
    )
    lines = [
        f"ring allreduce, {N_NODES} ranks on {cluster.topology.spec}:",
        f"  simulated : {result.total_ns:>12.1f} ns ({result.steps} steps)",
        f"  model     : {model:>12.1f} ns (zero-load recurrence)",
        f"  error     : {error:>11.2%}",
        f"  engine    : {env.events_executed} executed + "
        f"{env.events_fast_forwarded} credited events in {wall_s:.2f} s"
        f" ({env.events_executed / wall_s:,.0f} executed/s,"
        f" {effective / wall_s:,.0f} effective/s)",
        f"  contention: {shared} links saw >1 frame in flight",
    ]
    write_report(report_dir, "collectives_scale", "\n".join(lines))

    _record(
        "collectives_scale",
        {
            "workload": "allreduce",
            "algorithm": "ring",
            "n_nodes": N_NODES,
            "topology": "fat_tree:4",
            "payload_bytes": PAYLOAD_BYTES,
            "simulated_ns": result.total_ns,
            "model_ns": model,
            "model_error": error,
            "events_executed": env.events_executed,
            "events_fast_forwarded": env.events_fast_forwarded,
            "events_processed": effective,
            "wall_s": wall_s,
            "events_per_s": effective / wall_s if wall_s else 0.0,
            "events_per_s_kind": "effective",
            "executed_per_s": env.events_executed / wall_s if wall_s else 0.0,
        },
    )

    assert result.steps == 2 * (N_NODES - 1)
    assert error < 0.05


def test_recursive_doubling_allreduce_1024_ranks(report_dir):
    """1024 ranks on a k=16 fat-tree — the scale acceptance entry.

    Ring at this size would chain ~2M sends; recursive doubling keeps
    the dependency depth at log2(1024) = 10 rounds, which is what makes
    a 1024-rank collective tractable for a tracked benchmark.  The run
    replays through the event kernel (tiers 1-2: wheel + compiled
    chains); the analytic fast-forward does not cover collectives.
    """
    from repro.collectives import recursive_doubling_allreduce

    n_ranks = 1024
    config = (
        SystemConfig.builder().deterministic().topology("fat_tree:16").build()
    )
    cluster = Cluster(n_ranks, config=config)

    t0 = time.perf_counter()
    result = recursive_doubling_allreduce(
        cluster,
        payload_bytes=PAYLOAD_BYTES,
        reduce_compute_ns=REDUCE_NS,
        iterations=1,
    )
    wall_s = time.perf_counter() - t0

    env = cluster.env
    effective = env.events_executed + env.events_fast_forwarded
    lines = [
        f"recursive-doubling allreduce, {n_ranks} ranks on {cluster.topology.spec}:",
        f"  simulated : {result.total_ns:>12.1f} ns ({result.steps} rounds)",
        f"  engine    : {effective} effective events in {wall_s:.2f} s"
        f" ({env.events_executed / wall_s:,.0f} executed/s,"
        f" {effective / wall_s:,.0f} effective/s)",
        f"  of which  : {env.events_fast_forwarded} fast-forwarded"
        f" (compiled chains)",
    ]
    write_report(report_dir, "collectives_scale_1024", "\n".join(lines))

    _record(
        "collectives_scale",
        {
            "workload": "allreduce",
            "algorithm": "recursive_doubling",
            "n_nodes": n_ranks,
            "topology": "fat_tree:16",
            "payload_bytes": PAYLOAD_BYTES,
            "simulated_ns": result.total_ns,
            "events_executed": env.events_executed,
            "events_fast_forwarded": env.events_fast_forwarded,
            "events_processed": effective,
            "wall_s": wall_s,
            "events_per_s": effective / wall_s if wall_s else 0.0,
            "events_per_s_kind": "effective",
            "executed_per_s": env.events_executed / wall_s if wall_s else 0.0,
        },
    )

    assert result.steps == 10
    # Ten dependency rounds of ~one end-to-end latency each: the run
    # must land in the tens of microseconds, not milliseconds.
    assert 0 < result.total_ns < 100_000


def test_nic_offload_barrier_and_bcast_64_nodes(report_dir):
    """Host-bypass acceptance: offloaded barrier/bcast at 64 ranks.

    The same 64-node fat-tree runs each collective twice — host
    algorithms (PR-5) vs NIC-resident descriptors (``offload="nic"``) —
    and the offloaded variant must win outright while staying within 5%
    of its zero-load model.  The win is the per-hop host critical path
    (LLP post, two PCIe crossings, RC-to-MEM, CQ poll) that interior
    hops no longer pay.
    """
    from repro.collectives import run_collective
    from repro.collectives.model import (
        predicted_nic_barrier_ns,
        predicted_nic_tree_broadcast_ns,
    )

    config = (
        SystemConfig.builder().deterministic().topology("fat_tree:4").build()
    )
    lines = [f"NIC-offloaded collectives, {N_NODES} ranks on fat_tree:4:"]
    for op in ("barrier", "bcast"):
        host_cluster = Cluster(N_NODES, config=config)
        host = run_collective(op, host_cluster, iterations=1)

        nic_cluster = Cluster(N_NODES, config=config)
        t0 = time.perf_counter()
        nic = run_collective(op, nic_cluster, offload="nic", iterations=1)
        wall_s = time.perf_counter() - t0

        if op == "barrier":
            model = predicted_nic_barrier_ns(
                N_NODES, config, nic_cluster.topology
            )
        else:
            model = predicted_nic_tree_broadcast_ns(
                N_NODES, config, nic_cluster.topology
            )
        error = abs(nic.total_ns - model) / model
        saving = 1.0 - nic.total_ns / host.total_ns
        events = nic_cluster.env.events_executed
        lines += [
            f"  {op}:",
            f"    host    : {host.total_ns:>12.1f} ns",
            f"    nic     : {nic.total_ns:>12.1f} ns"
            f" ({saving:.1%} host-bypass saving)",
            f"    model   : {model:>12.1f} ns (error {error:.2%})",
            f"    engine  : {events} events in {wall_s:.3f} s",
        ]
        _record(
            "collectives_offload",
            {
                "workload": op,
                "offload": "nic",
                "n_nodes": N_NODES,
                "topology": "fat_tree:4",
                "host_ns": host.total_ns,
                "nic_ns": nic.total_ns,
                "saving": saving,
                "model_ns": model,
                "model_error": error,
                "events_processed": events,
                "wall_s": wall_s,
                "executed_per_s": events / wall_s if wall_s else 0.0,
            },
        )

        assert nic.total_ns < host.total_ns, (
            f"offloaded {op} must beat the host algorithm"
        )
        assert error < 0.05

    write_report(report_dir, "collectives_offload", "\n".join(lines))
