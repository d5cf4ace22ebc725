"""UCT-like transport: endpoints, interface, worker (§4.1).

All public operations are generators executed on the owning node's CPU
core: they advance simulated time exactly as the real code paths burn
cycles, and they drive the PCIe/NIC hardware at the right instants.

The §4.1 LLP_post step sequence is reproduced literally:

1. Prepare the message descriptor (``md_setup``, incl. the inline
   payload memcpy);
2. a store memory barrier (``barrier_md``, ``dmb st``);
3. DoorBell-counter increment + its store barrier (``barrier_dbc``);
4. the PIO copy to Device-GRE memory (``pio_copy_64b`` per 64-byte
   chunk), which hands the descriptor to the Root Complex;
5. miscellaneous function-call/branching overhead (``llp_post_misc``).

A post against a full TxQ is a *busy post*: it fails after
``busy_post`` nanoseconds and the caller must progress the CQ first.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.llp.profiling import UcsProfiler
from repro.nic.descriptor import Message, MessageOp
from repro.node.node import Node
from repro.transport.base import (
    UCS_ERR_NO_RESOURCE,
    UCS_OK,
    Transport,
    resolve_transport,
)
from repro.transport.nicrail import PcieNicTransport
from repro.transport.shm import ShmTransport

__all__ = [
    "UCS_ERR_NO_RESOURCE",
    "UCS_OK",
    "invoke_callback",
    "UctEndpoint",
    "UctIface",
    "UctWorker",
]

# UCS status codes now live in repro.transport.base (every transport
# returns them); re-exported here for all existing importers.
_ = (UCS_OK, UCS_ERR_NO_RESOURCE)

#: Completion/receive callbacks run inside ``worker.progress``.  A
#: callback may be a plain function (costless bookkeeping) or a
#: generator function (simulated code that burns CPU time).
Callback = Callable[[Any], Any]


def invoke_callback(callback: Callback, argument: Any) -> Generator:
    """Run ``callback`` from simulated code, yielding through generators."""
    result = callback(argument)
    if result is not None and hasattr(result, "__next__"):
        result = yield from result
    return result


class UctWorker:
    """Progress engine over one or more interfaces.

    ``progress()`` is the paper's ``uct_worker_progress``: it polls each
    interface's CQ (retiring at most one CQE per call, the "dequeuing
    one entry" of LLP_prog) and each interface's active-message mailbox,
    running registered callbacks before returning.
    """

    def __init__(
        self,
        node: Node,
        profiler: UcsProfiler | None = None,
        core=None,
    ) -> None:
        self.node = node
        #: The core this worker's software runs on (multi-core studies
        #: pin one worker per core; default is the node's first core).
        self.cpu = core if core is not None else node.cpu
        self.profiler = profiler or UcsProfiler(node.timer, enabled=False)
        self.ifaces: list[UctIface] = []
        self.progress_calls = 0
        self.empty_progress_calls = 0

    def create_iface(self, signal_period: int = 1, name: str | None = None) -> "UctIface":
        """Open an interface (one queue pair + one AM mailbox)."""
        iface = UctIface(self, signal_period=signal_period, name=name)
        self.ifaces.append(iface)
        return iface

    def progress(self) -> Generator:
        """One progress pass; returns the number of events processed."""
        cpu = self.cpu
        tracer = self.node.env.tracer
        self.progress_calls += 1
        events = 0
        start = yield from self.profiler.begin("llp_prog")
        for iface in self.ifaces:
            # One CQ poll per rail (a single-rail iface polls exactly
            # the one CQ it always polled).
            for qp in iface.qps:
                cqe = qp.cq.try_poll()
                if cqe is None:
                    continue
                tspan = None
                if tracer.enabled:
                    tspan = tracer.begin(
                        "llp", "llp_prog", track=cpu.name,
                        msg=cqe.message.msg_id, kind="cqe",
                    )
                yield from cpu.execute("llp_prog")
                qp.consume_cqe(cqe)
                events += 1
                if cqe.status != "ok":
                    # Transport error CQE (retry budget exhausted): the
                    # slot is freed like any completion, software sees a
                    # structured failure instead of a hang.
                    iface.error_completions += 1
                    if tracer.enabled:
                        tracer.counter("llp", "error_completions")
                for callback in iface.completion_callbacks:
                    yield from invoke_callback(callback, cqe)
                if tspan is not None:
                    tracer.end(tspan)
            ok, message = iface.am_mailbox.try_get()
            if ok:
                tspan = None
                if tracer.enabled:
                    tspan = tracer.begin(
                        "llp", "llp_prog", track=cpu.name,
                        msg=message.msg_id, kind="am",
                    )
                yield from cpu.execute("llp_prog")
                iface.messages_delivered += 1
                events += 1
                if iface.am_handler is not None:
                    yield from invoke_callback(iface.am_handler, message)
                if tspan is not None:
                    tracer.end(tspan)
        if events == 0:
            self.empty_progress_calls += 1
            if tracer.enabled:
                tracer.counter("llp", "empty_progress_calls")
            yield from cpu.execute("llp_prog_empty")
        yield from self.profiler.end("llp_prog", start)
        return events

    def progress_until(self, predicate: Callable[[], bool]) -> Generator:
        """Spin ``progress()`` until ``predicate()`` holds."""
        while not predicate():
            yield from self.progress()
        return None

    def wait_am_interrupt(self, iface: "UctIface") -> Generator:
        """Interrupt-driven receive: sleep until an AM arrives (§2).

        "The user could also request to be notified with an interrupt
        regarding the completion.  However, the polling approach is
        latency-oriented since there is no context switch to the kernel
        in the critical path."  The blocked thread burns no CPU, but
        pays ``interrupt_wakeup`` plus the usual dequeue cost once the
        message lands.  Returns the message.
        """
        message = yield iface.am_mailbox.get()
        yield from self.cpu.execute("interrupt_wakeup")
        yield from self.cpu.execute("llp_prog")
        iface.messages_delivered += 1
        if iface.am_handler is not None:
            yield from invoke_callback(iface.am_handler, message)
        return message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UctWorker node={self.node.name} ifaces={len(self.ifaces)}>"


class UctIface:
    """One transport interface: queue pair(s) plus AM receive resources."""

    def __init__(
        self,
        worker: UctWorker,
        signal_period: int = 1,
        name: str | None = None,
    ) -> None:
        node = worker.node
        self.worker = worker
        self.node = node
        self.name = name or node.next_iface_name()
        #: One queue pair per NIC rail.  Rail 0 keeps the historical
        #: ``{iface}.qp`` name so single-rail artefacts are unchanged.
        self.qps = [
            rail.nic.create_qp(
                signal_period=signal_period,
                name=f"{self.name}.qp" if index == 0 else f"{self.name}.qp{index}",
            )
            for index, rail in enumerate(node.rails)
        ]
        self.qp = self.qps[0]
        #: The inter-node transport (always available).
        self.nic_transport: Transport = PcieNicTransport(self)
        self._shm_transport: Transport | None = None
        #: Target-side landing zone for active messages sent to this iface.
        self.am_recv_target = f"{self.name}.am"
        self.am_mailbox = node.memory.mailbox(self.am_recv_target)
        self.completion_callbacks: list[Callback] = []
        self.am_handler: Callback | None = None
        self.messages_delivered = 0
        self.busy_posts = 0
        self.successful_posts = 0
        #: Error CQEs observed (transport retry budget exhausted).
        self.error_completions = 0
        #: Journal hook: the most recently posted message (ground truth
        #: for benchmarks; the real UCT API does not return it).
        self.last_message: Message | None = None

    def set_am_handler(self, handler: Callback) -> None:
        """Register the active-message receive callback (generator fn)."""
        self.am_handler = handler

    def add_completion_callback(self, callback: Callback) -> None:
        """Register a send-completion callback (generator fn)."""
        self.completion_callbacks.append(callback)

    @property
    def shm_transport(self) -> Transport:
        """The intra-node shared-memory transport (created on demand)."""
        if self._shm_transport is None:
            self._shm_transport = ShmTransport(self)
        return self._shm_transport

    def create_ep(self, remote: "UctIface") -> "UctEndpoint":
        """Connect an endpoint, resolving the transport for the peer.

        Same-node peers get the shared-memory path (when the config
        enables it); everything else rides the PCIe/NIC rails, with one
        destination NIC per remote rail.
        """
        return UctEndpoint(
            self,
            remote.am_recv_target,
            remote.node.nic.name,
            transport=resolve_transport(self, remote),
            remote_nics=tuple(rail.nic.name for rail in remote.node.rails),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UctIface {self.name!r}>"


class UctEndpoint:
    """A connected endpoint: the object posts are issued on.

    The endpoint is transport-agnostic: every operation delegates to
    the :class:`~repro.transport.base.Transport` resolved for the peer
    at ``create_ep`` time (PCIe/NIC rails inter-node, shared memory
    intra-node).  Posts return ``UCS_OK`` or ``UCS_ERR_NO_RESOURCE``
    exactly as before the transports became pluggable.
    """

    def __init__(
        self,
        iface: UctIface,
        remote_recv_target: str,
        remote_nic: str | None = None,
        transport: "Transport | None" = None,
        remote_nics: tuple[str, ...] | None = None,
    ) -> None:
        self.iface = iface
        self.remote_recv_target = remote_recv_target
        #: Destination NIC port name (None = the two-node fabric peer).
        self.remote_nic = remote_nic
        #: The resolved transport; defaults to the PCIe/NIC path so
        #: directly-constructed endpoints behave as they always did.
        self.transport: Transport = (
            transport if transport is not None else iface.nic_transport
        )
        #: Destination NIC per remote rail (multi-rail peers).
        self.remote_nics = remote_nics
        #: Round-robin rail cursor (advanced by the rail selector).
        self.rail_cursor = 0

    def remote_nic_for(self, rail: int) -> str | None:
        """The destination NIC name for a post leaving on ``rail``."""
        if self.remote_nics:
            return self.remote_nics[min(rail, len(self.remote_nics) - 1)]
        return self.remote_nic

    def can_post(self, payload_bytes: int = 0) -> bool:
        """Whether a post would find transmit resources right now."""
        return self.transport.can_post(self, payload_bytes)

    # -- public data-path operations ------------------------------------------
    def put_short(self, payload_bytes: int) -> Generator:
        """RDMA-write a small payload via PIO+inline (the put_bw op).

        Returns ``UCS_OK`` or ``UCS_ERR_NO_RESOURCE`` (busy post).
        """
        return self.transport.post_short(self, MessageOp.PUT, payload_bytes)

    def am_short(self, payload_bytes: int) -> Generator:
        """Send-receive a small payload via PIO+inline (the am_lat op)."""
        return self.transport.post_short(self, MessageOp.AM, payload_bytes)

    def put_zcopy(self, payload_bytes: int) -> Generator:
        """RDMA-write via the DoorBell + DMA-read path (§2 steps 1-3).

        Used for payloads beyond the inline limit; two PCIe round trips
        replace the PIO copy.
        """
        return self.transport.post_doorbell(self, MessageOp.PUT, payload_bytes)

    def get_bcopy(self, payload_bytes: int, local_buffer: str | None = None) -> Generator:
        """RDMA-read: pull ``payload_bytes`` from the remote memory.

        An extension beyond the paper's put/am benchmarks: the request
        WQE goes out via PIO (it is small), the target NIC DMA-reads the
        data without involving the target CPU, and the response lands in
        ``local_buffer`` on this node (default: this iface's AM mailbox
        namespace with a ``.get`` suffix).  The read response doubles as
        the acknowledgement.
        """
        return self.transport.post_one_sided(
            self, MessageOp.GET, payload_bytes, local_buffer, "get"
        )

    def atomic_fadd(self, payload_bytes: int = 8, local_buffer: str | None = None) -> Generator:
        """RDMA fetch-and-add: atomically update remote memory.

        Extension beyond the paper: the request goes out via PIO, the
        target NIC performs the read-modify-write against its host
        memory (one DMA read + one DMA write, no target CPU), and the
        old value returns like a read response.
        """
        return self.transport.post_one_sided(
            self, MessageOp.ATOMIC, payload_bytes, local_buffer, "atomic"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UctEndpoint {self.iface.name!r} -> {self.remote_recv_target!r}>"
