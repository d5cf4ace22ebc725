"""The collective algorithms themselves.

Every algorithm runs one MPI process per *rank* (a full MPICH→UCP→UCT
stack, busy-poll progress loops and all) and drives real messages
through the fabric — contention on shared topology links is observed,
not modelled.  With ``processes_per_node > 1`` ranks are block-placed
(rank r on node r // ppn, pinned to core r % ppn) and same-node pairs
resolve the shared-memory transport automatically.  Communicators are created up front in a fixed
order so runs are deterministic regardless of process interleaving.

A node's receives share its UCP worker mailbox, so concurrent messages
from different partners match in arrival order (FIFO), exactly like
unexpected-message handling in a real tag-matching engine with one
source wildcard.  The algorithms below only overlap one outstanding
receive per rank per step, which keeps that ambiguity timing-neutral.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.hlp.mpi import MpiComm, MpiStack
from repro.node.cluster import Cluster

__all__ = ["CollectiveResult", "run_collective"]


@dataclass
class CollectiveResult:
    """Outcome of one collective run."""

    cluster: Cluster
    algorithm: str
    #: Total rank count (nodes × processes_per_node).
    n_nodes: int
    payload_bytes: int
    reduce_compute_ns: float
    iterations: int
    #: Virtual time at which the collective (all iterations) completed.
    total_ns: float
    #: Point-to-point exchanges on the longest dependency chain of one
    #: iteration (2(N-1) for ring, ceil(log2 N) for the log algorithms).
    steps: int
    #: Ranks per node the run was placed with.
    processes_per_node: int = 1
    #: Where the algorithm ran: "host" (the MPI stack drives every
    #: hop) or "nic" (interior hops are NIC-resident, see
    #: :mod:`repro.collectives.offload`).
    offload: str = "host"

    @property
    def time_per_iteration_ns(self) -> float:
        """Mean wall time of one complete collective operation."""
        return self.total_ns / self.iterations if self.iterations else 0.0

    @property
    def time_per_step_ns(self) -> float:
        """Mean time per chain step (≈ one end-to-end latency)."""
        return self.time_per_iteration_ns / self.steps if self.steps else 0.0


class _Runtime:
    """Per-run MPI plumbing: one stack per rank, cached communicators.

    One process per rank, block placement.  At one process per node
    the stack/core objects are exactly the per-node ones of old runs.
    """

    def __init__(self, cluster: Cluster, signal_period: int) -> None:
        self.cluster = cluster
        self.nodes = [cluster.node_for_rank(r) for r in range(cluster.n_ranks)]
        self.cores = [cluster.core_for_rank(r) for r in range(cluster.n_ranks)]
        self.stacks = [
            MpiStack(node, signal_period=signal_period, core=core)
            for node, core in zip(self.nodes, self.cores)
        ]
        self._comms: dict[tuple[int, int], MpiComm] = {}

    def comm(self, src: int, dst: int) -> MpiComm:
        """Rank ``src``'s communicator towards rank ``dst`` (cached)."""
        key = (src, dst)
        comm = self._comms.get(key)
        if comm is None:
            comm = self.stacks[src].connect(self.stacks[dst])
            self._comms[key] = comm
        return comm


def _validate(n_nodes: int, iterations: int, reduce_compute_ns: float) -> None:
    if n_nodes < 2:
        raise ValueError(f"collectives need at least two ranks, got {n_nodes}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if reduce_compute_ns < 0:
        raise ValueError(f"reduce_compute_ns must be >= 0, got {reduce_compute_ns}")


def _ring_allreduce_impl(
    cluster: Cluster,
    payload_bytes: int = 8,
    reduce_compute_ns: float = 20.0,
    iterations: int = 20,
    signal_period: int = 64,
) -> CollectiveResult:
    """Ring allreduce: 2(N−1) lockstep steps, one chunk right per step.

    Each step receives a chunk from the left neighbour, sends one right
    and reduces — the reduce-scatter + allgather schedule.  With every
    rank advancing in lockstep the per-step time is one end-to-end
    latency, so the §6 model composes to
    ``2(N−1) × (end-to-end + reduce)`` on a uniform fabric (see
    :func:`repro.collectives.model.predicted_ring_allreduce_ns` for the
    per-link generalisation).
    """
    n_nodes = cluster.n_ranks
    _validate(n_nodes, iterations, reduce_compute_ns)
    runtime = _Runtime(cluster, signal_period)
    to_right = [runtime.comm(i, (i + 1) % n_nodes) for i in range(n_nodes)]
    env = cluster.env
    steps = 2 * (n_nodes - 1)
    marks: dict[str, float] = {}

    def rank(index: int) -> Generator:
        comm = to_right[index]
        core = runtime.cores[index]
        for _ in range(iterations):
            for _step in range(steps):
                incoming = yield from comm.irecv(payload_bytes)
                yield from comm.isend(payload_bytes)
                yield from comm.wait(incoming)
                if reduce_compute_ns > 0:
                    yield from core.execute("reduce_op", mean=reduce_compute_ns)
        if index == 0:
            marks["t_end"] = env.now

    processes = [
        env.process(rank(index), name=f"allreduce.rank{index}")
        for index in range(n_nodes)
    ]
    env.run(until=env.all_of(processes))
    return CollectiveResult(
        cluster=cluster,
        algorithm="ring_allreduce",
        n_nodes=n_nodes,
        payload_bytes=payload_bytes,
        reduce_compute_ns=reduce_compute_ns,
        iterations=iterations,
        total_ns=marks["t_end"],
        steps=steps,
        processes_per_node=cluster.processes_per_node,
    )


def _recursive_doubling_allreduce_impl(
    cluster: Cluster,
    payload_bytes: int = 8,
    reduce_compute_ns: float = 20.0,
    iterations: int = 1,
    signal_period: int = 64,
) -> CollectiveResult:
    """Recursive-doubling allreduce: log2(N) pairwise exchange rounds.

    Round r pairs rank i with ``i XOR 2^r``; both exchange the full
    vector and reduce.  Requires a power-of-two rank count.
    """
    n_nodes = cluster.n_ranks
    _validate(n_nodes, iterations, reduce_compute_ns)
    if n_nodes & (n_nodes - 1):
        raise ValueError(
            f"recursive doubling needs a power-of-two rank count, got {n_nodes}"
        )
    rounds = n_nodes.bit_length() - 1
    runtime = _Runtime(cluster, signal_period)
    for r in range(rounds):
        for i in range(n_nodes):
            runtime.comm(i, i ^ (1 << r))
    env = cluster.env

    def rank(index: int) -> Generator:
        core = runtime.cores[index]
        for _ in range(iterations):
            for r in range(rounds):
                comm = runtime.comm(index, index ^ (1 << r))
                incoming = yield from comm.irecv(payload_bytes)
                yield from comm.isend(payload_bytes)
                yield from comm.wait(incoming)
                if reduce_compute_ns > 0:
                    yield from core.execute("reduce_op", mean=reduce_compute_ns)

    processes = [
        env.process(rank(index), name=f"rd_allreduce.rank{index}")
        for index in range(n_nodes)
    ]
    env.run(until=env.all_of(processes))
    return CollectiveResult(
        cluster=cluster,
        algorithm="recursive_doubling_allreduce",
        n_nodes=n_nodes,
        payload_bytes=payload_bytes,
        reduce_compute_ns=reduce_compute_ns,
        iterations=iterations,
        total_ns=env.now,
        steps=rounds,
        processes_per_node=cluster.processes_per_node,
    )


def _bcast_rounds(n_nodes: int) -> int:
    return (n_nodes - 1).bit_length()


def _tree_broadcast_impl(
    cluster: Cluster,
    payload_bytes: int = 8,
    iterations: int = 1,
    root: int = 0,
    signal_period: int = 64,
) -> CollectiveResult:
    """Binomial-tree broadcast from ``root``.

    In round r the ranks that already hold the payload each forward it
    to one new rank, doubling coverage; rank i (relative to the root)
    receives in round ``floor(log2 i)`` from ``i - 2^floor(log2 i)``.
    The chain depth is ``ceil(log2 N)`` rounds.
    """
    n_nodes = cluster.n_ranks
    _validate(n_nodes, iterations, 0.0)
    if not 0 <= root < n_nodes:
        raise ValueError(f"root {root} out of range for {n_nodes} ranks")
    rounds = _bcast_rounds(n_nodes)
    runtime = _Runtime(cluster, signal_period)
    # Relative rank r talks to parent/children computed in rank space
    # shifted so the root is 0.
    for rel in range(1, n_nodes):
        parent_rel = rel - (1 << (rel.bit_length() - 1))
        child = (rel + root) % n_nodes
        parent = (parent_rel + root) % n_nodes
        runtime.comm(parent, child)
        runtime.comm(child, parent)
    env = cluster.env

    def rank(index: int) -> Generator:
        rel = (index - root) % n_nodes
        recv_round = rel.bit_length() - 1 if rel else -1
        parent = ((rel - (1 << recv_round)) + root) % n_nodes if rel else -1
        children = [
            ((rel + (1 << r)) + root) % n_nodes
            for r in range(recv_round + 1, rounds)
            if rel + (1 << r) < n_nodes
        ]
        for _ in range(iterations):
            if rel:
                comm = runtime.comm(index, parent)
                incoming = yield from comm.irecv(payload_bytes)
                yield from comm.wait(incoming)
            for child in children:
                comm = runtime.comm(index, child)
                request = yield from comm.isend(payload_bytes)
                yield from comm.wait(request)

    processes = [
        env.process(rank(index), name=f"bcast.rank{index}")
        for index in range(n_nodes)
    ]
    env.run(until=env.all_of(processes))
    return CollectiveResult(
        cluster=cluster,
        algorithm="tree_broadcast",
        n_nodes=n_nodes,
        payload_bytes=payload_bytes,
        reduce_compute_ns=0.0,
        iterations=iterations,
        total_ns=env.now,
        steps=rounds,
        processes_per_node=cluster.processes_per_node,
    )


def _barrier_impl(
    cluster: Cluster,
    iterations: int = 1,
    signal_period: int = 64,
) -> CollectiveResult:
    """Dissemination barrier: ``ceil(log2 N)`` token rounds.

    In round r every rank sends an 8-byte token to ``(i + 2^r) mod N``
    and waits for the token from ``(i - 2^r) mod N`` — after the last
    round every rank has (transitively) heard from every other.
    """
    n_nodes = cluster.n_ranks
    _validate(n_nodes, iterations, 0.0)
    rounds = _bcast_rounds(n_nodes)
    token_bytes = 8
    runtime = _Runtime(cluster, signal_period)
    for r in range(rounds):
        for i in range(n_nodes):
            runtime.comm(i, (i + (1 << r)) % n_nodes)
    env = cluster.env

    def rank(index: int) -> Generator:
        for _ in range(iterations):
            for r in range(rounds):
                to = (index + (1 << r)) % n_nodes
                frm = (index - (1 << r)) % n_nodes
                out = runtime.comm(index, to)
                inc = runtime.comm(index, frm)
                incoming = yield from inc.irecv(token_bytes)
                yield from out.isend(token_bytes)
                yield from inc.wait(incoming)

    processes = [
        env.process(rank(index), name=f"barrier.rank{index}")
        for index in range(n_nodes)
    ]
    env.run(until=env.all_of(processes))
    return CollectiveResult(
        cluster=cluster,
        algorithm="barrier",
        n_nodes=n_nodes,
        payload_bytes=token_bytes,
        reduce_compute_ns=0.0,
        iterations=iterations,
        total_ns=env.now,
        steps=rounds,
        processes_per_node=cluster.processes_per_node,
    )

# -- the unified call surface ------------------------------------------------

#: Default algorithm per operation (what MPI implementations pick for
#: small messages at these scales).
_DEFAULT_ALGORITHM = {
    "allreduce": "ring",
    "bcast": "binomial_tree",
    "barrier": "dissemination",
}


def _nic_barrier(cluster: Cluster, **params: object) -> CollectiveResult:
    from repro.collectives.offload import nic_barrier

    return nic_barrier(cluster, **params)  # type: ignore[arg-type]


def _nic_tree_broadcast(cluster: Cluster, **params: object) -> CollectiveResult:
    from repro.collectives.offload import nic_tree_broadcast

    return nic_tree_broadcast(cluster, **params)  # type: ignore[arg-type]


#: (op, algorithm, offload) -> implementation.  The offloaded variants
#: import lazily so the host-only path never loads the offload engine.
_IMPLEMENTATIONS = {
    ("allreduce", "ring", "host"): _ring_allreduce_impl,
    ("allreduce", "recursive_doubling", "host"): _recursive_doubling_allreduce_impl,
    ("bcast", "binomial_tree", "host"): _tree_broadcast_impl,
    ("barrier", "dissemination", "host"): _barrier_impl,
    ("bcast", "binomial_tree", "nic"): _nic_tree_broadcast,
    ("barrier", "dissemination", "nic"): _nic_barrier,
}


def run_collective(
    op: str,
    cluster: Cluster,
    *,
    algorithm: str | None = None,
    offload: str = "host",
    **params: object,
) -> CollectiveResult:
    """Run one collective operation — the single entry point.

    ``op`` is ``"allreduce"``, ``"bcast"`` or ``"barrier"``;
    ``algorithm`` defaults per operation (ring / binomial_tree /
    dissemination); ``offload="nic"`` selects the NIC-resident variants
    of barrier and bcast (:mod:`repro.collectives.offload`).  Remaining
    keyword arguments (``payload_bytes``, ``iterations``,
    ``reduce_compute_ns``, ``signal_period``, ``root``) pass through to
    the implementation.
    """
    if op not in _DEFAULT_ALGORITHM:
        raise ValueError(
            f"unknown collective op {op!r}; registered: "
            f"{', '.join(sorted(_DEFAULT_ALGORITHM))}"
        )
    if offload not in ("host", "nic"):
        raise ValueError(
            f"unknown offload mode {offload!r}; choose 'host' or 'nic'"
        )
    chosen = algorithm if algorithm is not None else _DEFAULT_ALGORITHM[op]
    impl = _IMPLEMENTATIONS.get((op, chosen, offload))
    if impl is None:
        available = sorted(
            a for (o, a, f) in _IMPLEMENTATIONS if o == op and f == offload
        )
        if not available:
            raise ValueError(
                f"{op!r} has no offload={offload!r} implementation — "
                f"NIC offload covers 'barrier' and 'bcast'"
            )
        raise ValueError(
            f"unknown {op} algorithm {chosen!r} for offload={offload!r}; "
            f"registered: {', '.join(available)}"
        )
    return impl(cluster, **params)  # type: ignore[arg-type]
