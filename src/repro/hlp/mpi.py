"""MPICH-like MPI layer over UCP (§5).

``MPI_Isend`` decides how to execute the operation and calls
``ucp_tag_send_nb``; ``MPI_Wait`` runs the progress engine —
``ucp_worker_progress`` in a loop — until the request completes, with
MPICH's registered callback executed from inside the UCP callback chain.
``MPI_Waitall`` batch-progresses a whole window, re-posting pended busy
posts along the way (§6).
"""

from __future__ import annotations

import itertools
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.llp.profiling import UcsProfiler
from repro.hlp.ucp import UcpEndpoint, UcpRequest, UcpWorker
from repro.node.node import Node

__all__ = ["MpiComm", "MpiRequest", "MpiStack"]

_mpi_request_ids = itertools.count(1)


@dataclass
class MpiRequest:
    """An ``MPI_Request``: wraps the underlying UCP request."""

    ucp_request: UcpRequest
    request_id: int = field(default_factory=lambda: next(_mpi_request_ids))

    @property
    def completed(self) -> bool:
        """Whether the operation has finished."""
        return self.ucp_request.completed

    @property
    def kind(self) -> str:
        """"send" or "recv"."""
        return self.ucp_request.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed else "pending"
        return f"<MpiRequest#{self.request_id} {self.kind} {state}>"


class MpiStack:
    """One MPI process: the full MPICH→UCP→UCT stack on a node."""

    def __init__(
        self,
        node: Node,
        profiler: UcsProfiler | None = None,
        signal_period: int = 64,
        core=None,
    ) -> None:
        self.node = node
        self.cpu = core if core is not None else node.cpu
        self.profiler = profiler or UcsProfiler(node.timer, enabled=False)
        self.ucp = UcpWorker(
            node, self.profiler, signal_period=signal_period, core=self.cpu
        )

    def connect(self, remote: "MpiStack") -> "MpiComm":
        """Build the communicator towards a remote process."""
        return MpiComm(self, self.ucp.create_ep(remote.ucp))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiStack node={self.node.name}>"


class MpiComm:
    """A point-to-point communicator between two MPI processes.

    All operations are generators executed on the owning node's CPU.
    """

    def __init__(self, stack: MpiStack, ep: UcpEndpoint) -> None:
        self.stack = stack
        self.ep = ep

    # -- initiation -----------------------------------------------------------------
    def isend(self, payload_bytes: int) -> Generator:
        """``MPI_Isend``: returns an :class:`MpiRequest`.

        Charges the MPICH initiation cost (datatype checks, interface
        selection — 24.37 ns) and then calls into UCP (2.19 ns) which
        executes the LLP post.
        """
        cpu = self.stack.cpu
        profiler = self.stack.profiler
        tracer = self.stack.node.env.tracer
        tspan = tracer.begin(
            "mpi", "mpi_isend", track=cpu.name, bytes=payload_bytes
        )
        start = yield from profiler.begin("mpi_isend")
        yield from cpu.execute("mpich_isend")
        ucp_request = yield from self.stack.ucp.tag_send_nb(self.ep, payload_bytes)
        yield from profiler.end("mpi_isend", start)
        tracer.end(tspan)
        return MpiRequest(ucp_request)

    def irecv(self, payload_bytes: int) -> Generator:
        """``MPI_Irecv``: post a receive.

        The paper assumes receive initiation overlaps the transfer (§6)
        and attributes no cost to it; the MPICH completion callback it
        registers (47.99 ns) is charged when the message lands.
        """
        cpu = self.stack.cpu

        def mpich_callback(_request: UcpRequest) -> Generator:
            yield from cpu.execute("mpich_recv_callback")

        ucp_request = yield from self.stack.ucp.tag_recv_nb(
            payload_bytes, upper_callback=mpich_callback
        )
        return MpiRequest(ucp_request)

    # -- progress -----------------------------------------------------------------------
    def wait(self, request: MpiRequest) -> Generator:
        """``MPI_Wait``: block until ``request`` completes.

        Structure per §5/§6: MPICH blocking-entry overhead, then a loop
        on ``ucp_worker_progress`` (inside which the UCP→MPICH callback
        chain runs when the operation completes), then the remaining
        MPICH work after a successful progress (36.89 ns).
        """
        cpu = self.stack.cpu
        profiler = self.stack.profiler
        tracer = self.stack.node.env.tracer
        tspan = tracer.begin(
            "mpi", "mpi_wait", track=cpu.name, request=request.request_id
        )
        start = yield from profiler.begin("mpi_wait")
        entry = yield from profiler.begin("mpich_wait_entry")
        yield from cpu.execute("mpich_wait_entry")
        yield from profiler.end("mpich_wait_entry", entry)
        ucp_request = request.ucp_request
        yield from self.stack.ucp.progress_until(lambda: ucp_request.completed)
        after = yield from profiler.begin("mpich_after_progress")
        yield from cpu.execute("mpich_after_progress")
        yield from profiler.end("mpich_after_progress", after)
        yield from profiler.end("mpi_wait", start)
        tracer.end(tspan)
        return None

    def waitall(self, requests: list[MpiRequest]) -> Generator:
        """``MPI_Waitall``: batch-progress a window of operations.

        Loops the progress engine until every request completes,
        charging the per-request finalisation work as requests retire.
        Busy-posted sends are re-posted by UCP from inside the progress
        loop (their LLP_post time lands here, the §6 caveat-1 effect).
        """
        cpu = self.stack.cpu
        profiler = self.stack.profiler
        tracer = self.stack.node.env.tracer
        tspan = tracer.begin(
            "mpi", "mpi_waitall", track=cpu.name, requests=len(requests)
        )
        start = yield from profiler.begin("mpi_waitall")
        remaining = [r for r in requests if not r.completed]
        # Already-completed requests still need their finalisation pass.
        for _ in range(len(requests) - len(remaining)):
            yield from cpu.execute("mpich_request_finalize")

        def any_completed() -> bool:
            return any(request.completed for request in remaining)

        while remaining:
            # Only this worker's passes complete its requests, so none of
            # ``remaining`` has completed yet: at least one pass runs.
            yield from self.stack.ucp.progress_until(any_completed)
            still = []
            for request in remaining:
                if request.completed:
                    yield from cpu.execute("mpich_request_finalize")
                else:
                    still.append(request)
            remaining = still
        yield from profiler.end("mpi_waitall", start)
        tracer.end(tspan)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiComm on {self.stack.node.name}>"
