"""Traffic runners and campaign workloads over the cluster fabric.

Three families:

* :func:`run_pattern` — drive any ``(src, dst)`` pattern (see
  :mod:`repro.traffic.patterns`) through full MPI stacks, one process
  per rank, with optional bursty on/off gaps; link-occupancy stats are
  reset before and snapshotted after, so each run's roll-up covers only
  its own frames.
* App skeletons — :func:`run_halo_ranks` (1-D halo exchange across N
  ranks), :func:`run_pserver` (parameter-server push/pull rounds),
  :func:`run_random_access` (the GUPS kernel).
* ``*_workload`` wrappers with the uniform campaign signature
  ``workload(config, **params) -> dict`` — registered in
  :mod:`repro.campaign.workloads` as ``traffic``, ``shuffle``,
  ``incast``, ``outcast``, ``halo``, ``stencil``, ``pserver`` and
  ``randomaccess``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

from repro.bench.multicore import MulticoreResult, run_multicore_put_bw
from repro.hlp.mpi import MpiComm, MpiStack
from repro.network.topology import TopologySpec
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig
from repro.traffic.patterns import make_pattern, summarize_link_stats

__all__ = [
    "RandomAccessResult",
    "halo_workload",
    "incast_workload",
    "outcast_workload",
    "pserver_workload",
    "randomaccess_workload",
    "run_halo_ranks",
    "run_pattern",
    "run_pserver",
    "run_random_access",
    "shuffle_workload",
    "stencil_workload",
    "traffic_pattern_workload",
]


def _with_topology(
    config: SystemConfig, topology: str | TopologySpec | None
) -> SystemConfig:
    if topology is None:
        return config
    spec = TopologySpec.parse(topology) if isinstance(topology, str) else topology
    return config.evolve(
        network=dataclasses.replace(config.network, topology=spec)
    )


class _CommTable:
    """Deterministically-ordered communicator cache over rank stacks."""

    def __init__(self, stacks: list[MpiStack]) -> None:
        self.stacks = stacks
        self._comms: dict[tuple[int, int], MpiComm] = {}

    def comm(self, src: int, dst: int) -> MpiComm:
        key = (src, dst)
        comm = self._comms.get(key)
        if comm is None:
            comm = self.stacks[src].connect(self.stacks[dst])
            self._comms[key] = comm
        return comm


def _rank_stacks(cluster: Cluster, signal_period: int) -> list[MpiStack]:
    return [
        MpiStack(
            cluster.node_for_rank(rank),
            signal_period=signal_period,
            core=cluster.core_for_rank(rank),
        )
        for rank in range(cluster.n_ranks)
    ]


def run_pattern(
    cluster: Cluster,
    pairs: list[tuple[int, int]],
    payload_bytes: int = 8,
    messages_per_pair: int = 4,
    signal_period: int = 64,
    burst_len: int = 0,
    gap_ns: float = 0.0,
) -> dict[str, Any]:
    """Drive ``messages_per_pair`` rounds of a pattern through the fabric.

    Each round every rank posts receives for all its inbound flows,
    sends one message per outbound flow, then waits for the receives —
    lockstep per flow, overlapped across flows.  With ``burst_len > 0``
    a rank idles ``gap_ns`` after every ``burst_len`` rounds (bursty
    on/off injection).  Returns measurements including a link-stats
    roll-up scoped to exactly this run's frames.
    """
    if messages_per_pair < 1:
        raise ValueError(f"messages_per_pair must be >= 1, got {messages_per_pair}")
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
    if burst_len < 0 or gap_ns < 0:
        raise ValueError("burst_len and gap_ns must be >= 0")
    n_ranks = cluster.n_ranks
    for src, dst in pairs:
        if src == dst or not (0 <= src < n_ranks and 0 <= dst < n_ranks):
            raise ValueError(f"bad pair ({src}, {dst}) for {n_ranks} ranks")
    stacks = _rank_stacks(cluster, signal_period)
    table = _CommTable(stacks)
    # Create communicators up front in a fixed order (sender side first,
    # then the receiver's reverse comm used for irecv/wait) so runs are
    # deterministic regardless of process interleaving.
    for src, dst in pairs:
        table.comm(src, dst)
        table.comm(dst, src)
    outbound: dict[int, list[int]] = {r: [] for r in range(n_ranks)}
    inbound: dict[int, list[int]] = {r: [] for r in range(n_ranks)}
    for src, dst in pairs:
        outbound[src].append(dst)
        inbound[dst].append(src)
    env = cluster.env
    cluster.fabric.reset_stats()
    t_start = env.now

    def rank(index: int) -> Generator:
        outs = [table.comm(index, dst) for dst in outbound[index]]
        incs = [table.comm(index, src) for src in inbound[index]]
        for round_index in range(messages_per_pair):
            requests = []
            for comm in incs:
                request = yield from comm.irecv(payload_bytes)
                requests.append((comm, request))
            for comm in outs:
                yield from comm.isend(payload_bytes)
            for comm, request in requests:
                yield from comm.wait(request)
            if burst_len and gap_ns > 0 and (round_index + 1) % burst_len == 0:
                yield env.timeout(gap_ns)

    processes = [
        env.process(rank(index), name=f"traffic.rank{index}")
        for index in range(n_ranks)
        if outbound[index] or inbound[index]
    ]
    env.run(until=env.all_of(processes))
    total_ns = env.now - t_start
    messages = len(pairs) * messages_per_pair
    link_stats = cluster.fabric.link_stats()
    return {
        "n_ranks": n_ranks,
        "processes_per_node": cluster.processes_per_node,
        "flows": len(pairs),
        "messages": messages,
        "payload_bytes": payload_bytes,
        "total_ns": total_ns,
        "message_rate_per_s": messages / total_ns * 1e9 if total_ns else 0.0,
        "link_stats": link_stats,
        **{f"link_{k}": v for k, v in summarize_link_stats(link_stats).items()},
    }


def run_halo_ranks(
    env: Any,
    stacks: list[MpiStack],
    iterations: int = 200,
    halo_bytes: int = 8,
    compute_ns: float = 500.0,
    periodic: bool = False,
) -> dict[str, float]:
    """1-D halo exchange over ``stacks`` (rank i ↔ its chain neighbours).

    Non-periodic by default: rank 0 and rank N-1 have one neighbour, a
    two-rank run being exactly the paper's §7 stencil check.  Records
    rank 0's accumulated communication time and completion instant.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if compute_ns < 0:
        raise ValueError(f"compute_ns must be >= 0, got {compute_ns}")
    n_ranks = len(stacks)
    if n_ranks < 2:
        raise ValueError(f"a halo exchange needs at least two ranks, got {n_ranks}")
    table = _CommTable(stacks)

    def neighbours(index: int) -> list[int]:
        out = []
        if index > 0 or periodic:
            out.append((index - 1) % n_ranks)
        if index < n_ranks - 1 or periodic:
            out.append((index + 1) % n_ranks)
        return out

    for index in range(n_ranks):
        for peer in neighbours(index):
            table.comm(index, peer)
    stats = {"comm_ns": 0.0, "t_end": 0.0}

    def rank(index: int) -> Generator:
        comms = [table.comm(index, peer) for peer in neighbours(index)]
        core = stacks[index].cpu
        record = index == 0
        for _ in range(iterations):
            t0 = env.now
            requests = []
            for comm in comms:
                halo = yield from comm.irecv(halo_bytes)
                requests.append((comm, halo))
            for comm in comms:
                yield from comm.isend(halo_bytes)
            for comm, halo in requests:
                yield from comm.wait(halo)
            if record:
                stats["comm_ns"] += env.now - t0
            if compute_ns > 0:
                yield from core.execute("stencil_compute", mean=compute_ns)
        if record:
            stats["t_end"] = env.now

    processes = [
        env.process(rank(index), name=f"halo.rank{index}")
        for index in range(n_ranks)
    ]
    env.run(until=env.all_of(processes))
    return stats


def run_pserver(
    cluster: Cluster,
    iterations: int = 4,
    push_bytes: int = 8,
    pull_bytes: int = 8,
    server: int = 0,
    signal_period: int = 64,
) -> dict[str, Any]:
    """Parameter-server rounds: workers push (incast), server pulls back
    (outcast) — each iteration is one synchronous SGD-style step."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    n_ranks = cluster.n_ranks
    if not 0 <= server < n_ranks:
        raise ValueError(f"server {server} out of range for {n_ranks} ranks")
    if n_ranks < 2:
        raise ValueError(f"a parameter server needs at least two ranks")
    stacks = _rank_stacks(cluster, signal_period)
    table = _CommTable(stacks)
    workers = [r for r in range(n_ranks) if r != server]
    for worker in workers:
        table.comm(worker, server)
        table.comm(server, worker)
    env = cluster.env
    cluster.fabric.reset_stats()
    t_start = env.now

    def server_rank() -> Generator:
        comms = [table.comm(server, worker) for worker in workers]
        for _ in range(iterations):
            requests = []
            for comm in comms:
                request = yield from comm.irecv(push_bytes)
                requests.append((comm, request))
            for comm, request in requests:
                yield from comm.wait(request)
            for comm in comms:
                yield from comm.isend(pull_bytes)

    def worker_rank(index: int) -> Generator:
        comm = table.comm(index, server)
        for _ in range(iterations):
            yield from comm.isend(push_bytes)
            params = yield from comm.irecv(pull_bytes)
            yield from comm.wait(params)

    processes = [env.process(server_rank(), name=f"pserver.rank{server}")]
    processes += [
        env.process(worker_rank(worker), name=f"pserver.rank{worker}")
        for worker in workers
    ]
    env.run(until=env.all_of(processes))
    total_ns = env.now - t_start
    link_stats = cluster.fabric.link_stats()
    return {
        "n_ranks": n_ranks,
        "processes_per_node": cluster.processes_per_node,
        "workers": len(workers),
        "iterations": iterations,
        "push_bytes": push_bytes,
        "pull_bytes": pull_bytes,
        "total_ns": total_ns,
        "time_per_iteration_ns": total_ns / iterations,
        "link_stats": link_stats,
        **{f"link_{k}": v for k, v in summarize_link_stats(link_stats).items()},
    }


# -- the GUPS kernel ---------------------------------------------------------


@dataclass
class RandomAccessResult:
    """Outcome of one random-access run."""

    n_cores: int
    update_bytes: int
    updates: int
    #: Aggregate CPU-side update rate.
    gups: float
    #: Aggregate NIC-observed update rate (saturates at the I/O wall).
    nic_gups: float
    #: PCIe credit stalls during the measured window.
    credit_stalls: int

    @property
    def updates_per_core_per_s(self) -> float:
        """Per-core update rate (the Eq. 1 pace when unthrottled)."""
        return self.gups * 1e9 / self.n_cores if self.n_cores else 0.0


def run_random_access(
    n_cores: int = 8,
    config: SystemConfig | None = None,
    updates_per_core: int = 300,
    update_bytes: int = 8,
) -> RandomAccessResult:
    """Run the kernel; remote target addresses are uniform-random, but
    since the simulated NIC's write cost is address-independent the
    timing-relevant behaviour is exactly the multicore injection study,
    which this wraps."""
    result: MulticoreResult = run_multicore_put_bw(
        n_cores,
        config=config or SystemConfig.paper_testbed(),
        n_messages_per_core=updates_per_core,
        payload_bytes=update_bytes,
    )
    return RandomAccessResult(
        n_cores=n_cores,
        update_bytes=update_bytes,
        updates=n_cores * updates_per_core,
        gups=result.aggregate_rate_per_s / 1e9,
        nic_gups=result.nic_rate_per_s / 1e9,
        credit_stalls=result.credit_stalls,
    )


# -- campaign workload wrappers -----------------------------------------------


def traffic_pattern_workload(
    config: SystemConfig,
    pattern: str = "permutation",
    n_nodes: int = 4,
    processes_per_node: int = 1,
    topology: str | None = None,
    payload_bytes: int = 8,
    messages_per_pair: int = 4,
    signal_period: int = 64,
    burst_len: int = 0,
    gap_ns: float = 0.0,
    shift: int = 1,
    pairs_per_rank: int = 1,
    pattern_seed: int = 2019,
    hotspot: int = 0,
) -> dict[str, Any]:
    """Any named pattern on an N-node (× processes_per_node) cluster.

    Pattern-specific knobs: ``shift`` (permutation), ``pairs_per_rank``
    and ``pattern_seed`` (uniform_random), ``hotspot`` — the sink/source
    rank (incast/outcast).
    """
    config = _with_topology(config, topology)
    cluster = Cluster(
        n_nodes, config=config, processes_per_node=processes_per_node
    )
    pattern_kwargs: dict[str, Any] = {}
    if pattern == "permutation":
        pattern_kwargs["shift"] = shift
    elif pattern == "uniform_random":
        pattern_kwargs["pairs_per_rank"] = pairs_per_rank
        pattern_kwargs["seed"] = pattern_seed
    elif pattern == "incast":
        pattern_kwargs["sink"] = hotspot
    elif pattern == "outcast":
        pattern_kwargs["source"] = hotspot
    pairs = make_pattern(pattern, cluster.n_ranks, **pattern_kwargs)
    measurements = run_pattern(
        cluster,
        pairs,
        payload_bytes=payload_bytes,
        messages_per_pair=messages_per_pair,
        signal_period=signal_period,
        burst_len=burst_len,
        gap_ns=gap_ns,
    )
    return {"pattern": pattern, **measurements}


def shuffle_workload(config: SystemConfig, **params: Any) -> dict[str, Any]:
    """MapReduce shuffle: the all-to-all pattern (every ordered pair)."""
    params.pop("pattern", None)
    return traffic_pattern_workload(config, pattern="all_to_all", **params)


def incast_workload(config: SystemConfig, **params: Any) -> dict[str, Any]:
    """N-to-1 incast onto rank ``hotspot`` (default 0)."""
    params.pop("pattern", None)
    return traffic_pattern_workload(config, pattern="incast", **params)


def outcast_workload(config: SystemConfig, **params: Any) -> dict[str, Any]:
    """1-to-N outcast from rank ``hotspot`` (default 0)."""
    params.pop("pattern", None)
    return traffic_pattern_workload(config, pattern="outcast", **params)


def halo_workload(
    config: SystemConfig,
    n_nodes: int = 2,
    processes_per_node: int = 1,
    topology: str | None = None,
    iterations: int = 50,
    halo_bytes: int = 8,
    compute_ns: float = 500.0,
    signal_period: int = 64,
    periodic: bool = False,
) -> dict[str, Any]:
    """1-D halo exchange across all ranks (the stencil app, scaled out)."""
    config = _with_topology(config, topology)
    cluster = Cluster(
        n_nodes, config=config, processes_per_node=processes_per_node
    )
    stacks = _rank_stacks(cluster, signal_period)
    cluster.fabric.reset_stats()
    stats = run_halo_ranks(
        cluster.env,
        stacks,
        iterations=iterations,
        halo_bytes=halo_bytes,
        compute_ns=compute_ns,
        periodic=periodic,
    )
    comm_per_iter = stats["comm_ns"] / iterations
    link_stats = cluster.fabric.link_stats()
    return {
        "n_ranks": cluster.n_ranks,
        "processes_per_node": cluster.processes_per_node,
        "iterations": iterations,
        "halo_bytes": halo_bytes,
        "compute_ns": compute_ns,
        "total_comm_ns": stats["comm_ns"],
        "total_ns": stats["t_end"],
        "comm_ns_per_iteration": comm_per_iter,
        "comm_fraction": stats["comm_ns"] / stats["t_end"] if stats["t_end"] else 0.0,
        "link_stats": link_stats,
        **{f"link_{k}": v for k, v in summarize_link_stats(link_stats).items()},
    }


def stencil_workload(config: SystemConfig, **params: Any) -> dict[str, Any]:
    """The §7 two-rank stencil check (halo exchange at N=2)."""
    params.setdefault("n_nodes", 2)
    params.setdefault("iterations", 200)
    return halo_workload(config, **params)


def pserver_workload(
    config: SystemConfig,
    n_nodes: int = 4,
    processes_per_node: int = 1,
    topology: str | None = None,
    iterations: int = 4,
    push_bytes: int = 8,
    pull_bytes: int = 8,
    server: int = 0,
    signal_period: int = 64,
) -> dict[str, Any]:
    """Parameter-server push/pull rounds (incast then outcast per step)."""
    config = _with_topology(config, topology)
    cluster = Cluster(
        n_nodes, config=config, processes_per_node=processes_per_node
    )
    return run_pserver(
        cluster,
        iterations=iterations,
        push_bytes=push_bytes,
        pull_bytes=pull_bytes,
        server=server,
        signal_period=signal_period,
    )


def randomaccess_workload(
    config: SystemConfig,
    n_cores: int = 8,
    updates_per_core: int = 300,
    update_bytes: int = 8,
) -> dict[str, Any]:
    """The GUPS-style random-access kernel (multicore injection study)."""
    result = run_random_access(
        n_cores,
        config=config,
        updates_per_core=updates_per_core,
        update_bytes=update_bytes,
    )
    return {
        "n_cores": result.n_cores,
        "updates": result.updates,
        "update_bytes": result.update_bytes,
        "gups": result.gups,
        "nic_gups": result.nic_gups,
        "credit_stalls": result.credit_stalls,
        "updates_per_core_per_s": result.updates_per_core_per_s,
    }
