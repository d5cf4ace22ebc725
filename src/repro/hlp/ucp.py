"""UCP-like protocol layer over UCT.

Implements ``tag_send_nb``, ``tag_recv_nb`` and ``worker_progress``
with the completion-callback chain the paper measures in §5, plus the
two §6 caveats: busy posts are pended and re-posted during progress,
and the NIC is asked for a completion only every ``signal_period``
operations (unsignaled completions).
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import Any

from repro.llp.profiling import UcsProfiler
from repro.llp.uct import (
    UCS_OK,
    UctEndpoint,
    UctIface,
    UctWorker,
    invoke_callback,
)
from repro.nic.completion import Cqe
from repro.nic.descriptor import Message
from repro.node.node import Node

__all__ = ["UcpEndpoint", "UcpRequest", "UcpWorker"]

_request_ids = itertools.count(1)

#: UCX's default unsignaled-completion period ("c = 64 in UCX", §6).
DEFAULT_SIGNAL_PERIOD = 64


@dataclass
class UcpRequest:
    """A non-blocking operation handle (send or receive)."""

    kind: str  # "send" | "recv"
    payload_bytes: int
    completed: bool = False
    #: "ok", or "error" when the transport gave up on the operation.
    status: str = "ok"
    #: Failure reason accompanying an error status.
    error: str | None = None
    #: The message that satisfied a recv (for journal access).
    message: Message | None = None
    #: Upper-layer (MPICH) completion callback; may be a generator fn.
    upper_callback: Callable[["UcpRequest"], Any] | None = None
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed else "pending"
        return f"<UcpRequest#{self.request_id} {self.kind} {state}>"


class UcpWorker:
    """One UCP worker: owns a UCT worker/iface pair and request state."""

    def __init__(
        self,
        node: Node,
        profiler: UcsProfiler | None = None,
        signal_period: int = DEFAULT_SIGNAL_PERIOD,
        core=None,
    ) -> None:
        self.node = node
        self.cpu = core if core is not None else node.cpu
        self.profiler = profiler or UcsProfiler(node.timer, enabled=False)
        self.uct_worker = UctWorker(node, self.profiler, core=self.cpu)
        self.iface: UctIface = self.uct_worker.create_iface(signal_period=signal_period)
        self.iface.add_completion_callback(self._on_send_cqe)
        self.iface.set_am_handler(self._on_am_message)
        #: Sends posted to the NIC, oldest first, awaiting completion.
        self.inflight_sends: deque[UcpRequest] = deque()
        #: Sends that hit a busy post, awaiting re-post during progress.
        self.pending_sends: deque[tuple[UcpRequest, UctEndpoint]] = deque()
        #: Posted receives awaiting a message (FIFO matching).
        self.posted_recvs: deque[UcpRequest] = deque()
        #: Messages that arrived before their receive was posted.
        self.unexpected: deque[Message] = deque()
        #: LLP_posts executed on behalf of pended sends during progress
        #: (the §6 caveat-1 accounting: deducted from Post_prog).
        self.progress_llp_posts = 0
        #: Simulated ns spent on those re-posts (for the deduction).
        self.progress_llp_post_ns = 0.0
        self.busy_posts_encountered = 0
        #: Transport error CQEs observed (structured failures, not hangs).
        self.transport_errors = 0
        self._recv_side_events = 0
        #: Times a wait loop parked, running its empty passes as callbacks.
        self.parks = 0
        #: Empty passes that could not park, by reason ("traced", "profiled").
        self.park_declines: dict[str, int] = {}

    # -- endpoints -----------------------------------------------------------------
    def create_ep(self, remote: "UcpWorker") -> "UcpEndpoint":
        """Connect to a remote UCP worker."""
        return UcpEndpoint(self, self.iface.create_ep(remote.iface))

    # -- send path ---------------------------------------------------------------------
    def tag_send_nb(
        self,
        ep: "UcpEndpoint",
        payload_bytes: int,
        upper_callback: Callable[[UcpRequest], Any] | None = None,
    ) -> Generator:
        """``ucp_tag_send_nb``: non-blocking eager send (generator).

        Charges the UCP initiation cost, then attempts the LLP post.  On
        a busy post the request is pended and completes via progress.
        Returns the :class:`UcpRequest`.
        """
        cpu = self.cpu
        request = UcpRequest(
            kind="send", payload_bytes=payload_bytes, upper_callback=upper_callback
        )
        tracer = self.node.env.tracer
        tspan = tracer.begin(
            "hlp", "ucp_isend", track=cpu.name,
            request=request.request_id, bytes=payload_bytes,
        )
        start = yield from self.profiler.begin("ucp_isend")
        yield from cpu.execute("ucp_isend")
        status = yield from ep.uct_ep.am_short(payload_bytes)
        if status == UCS_OK:
            # Inline send: the PIO copy consumed the user buffer, so the
            # request is complete immediately (UCX returns NULL from
            # ucp_tag_send_nb in this case).  The TxQ slot stays
            # occupied until a CQE retires it, but that is transport
            # state, not request state.
            request.completed = True
        else:
            self.busy_posts_encountered += 1
            self.pending_sends.append((request, ep.uct_ep))
        yield from self.profiler.end("ucp_isend", start)
        tracer.end(tspan)
        return request

    def _on_send_cqe(self, cqe: Cqe) -> None:
        """UCT completion callback: retire in-flight *non-inline* sends.

        Inline sends complete at post time; only zcopy-style sends (the
        user buffer is pinned until the NIC has read it) wait for the
        CQE.  One CQE retires up to ``cqe.completes`` of them.

        An error CQE still retires requests (the TxQ accounting is
        identical) but marks the *signaled* one — the message the
        transport gave up on — as failed; its banked unsignaled
        predecessors were ACKed before the failure.
        """
        failed = cqe.status != "ok"
        if failed:
            self.transport_errors += 1
        retire = min(cqe.completes, len(self.inflight_sends))
        for index in range(retire):
            request = self.inflight_sends.popleft()
            request.completed = True
            if failed and index == retire - 1:
                request.status = "error"
                request.error = cqe.error

    # -- receive path --------------------------------------------------------------------
    def tag_recv_nb(
        self,
        payload_bytes: int,
        upper_callback: Callable[[UcpRequest], Any] | None = None,
    ) -> Generator:
        """``ucp_tag_recv_nb``: post a receive (generator).

        The paper treats receive initiation as overlapped (§6), so no
        cost table entry is charged; matching is FIFO, with an
        unexpected-message queue for early arrivals.
        """
        request = UcpRequest(
            kind="recv", payload_bytes=payload_bytes, upper_callback=upper_callback
        )
        if self.unexpected:
            message = self.unexpected.popleft()
            yield from self._complete_recv(request, message)
        else:
            self.posted_recvs.append(request)
        return request

    def _on_am_message(self, message: Message) -> Generator:
        """UCT AM handler: run the UCP→MPICH callback chain (§5).

        Executed inside ``uct_worker_progress`` *before it returns*,
        exactly as the paper describes.
        """
        if not self.posted_recvs:
            self.unexpected.append(message)
            return None
        request = self.posted_recvs.popleft()
        yield from self._complete_recv(request, message)
        return None

    def _complete_recv(self, request: UcpRequest, message: Message) -> Generator:
        cpu = self.cpu
        tracer = self.node.env.tracer
        tspan = tracer.begin(
            "hlp", "ucp_recv_callback", track=cpu.name,
            msg=message.msg_id, request=request.request_id,
        )
        start = yield from self.profiler.begin("ucp_recv_callback")
        yield from cpu.execute("ucp_recv_callback")
        request.message = message
        request.completed = True
        self._recv_side_events += 1
        if request.upper_callback is not None:
            inner = yield from self.profiler.begin("mpich_recv_callback")
            with tracer.span(
                "hlp", "mpich_recv_callback", track=cpu.name, msg=message.msg_id
            ):
                yield from invoke_callback(request.upper_callback, request)
            yield from self.profiler.end("mpich_recv_callback", inner)
        yield from self.profiler.end("ucp_recv_callback", start)
        tracer.end(tspan)
        return None

    # -- progress ------------------------------------------------------------------------
    def worker_progress(self) -> Generator:
        """``ucp_worker_progress``: one pass of the progress engine.

        Order matches UCX: re-post pended sends while resources allow,
        then progress the transport (which runs completion and receive
        callbacks inline).  Returns the number of transport events.
        """
        cpu = self.cpu
        env = self.node.env
        if env.tracer.enabled:
            env.tracer.counter("hlp", "worker_progress_calls")
        start = yield from self.profiler.begin("ucp_worker_progress")
        yield from cpu.execute("ucp_prog_body")
        return (yield from self._progress_rest(start))

    def _progress_rest(self, start: float | None) -> Generator:
        """The pass after its ``ucp_prog_body`` segment: re-posts, then
        the transport poll (a parked pass resumes here)."""
        env = self.node.env
        repost_start = env.now
        while self.pending_sends:
            # Ask the pended send's own transport/rail for space — the
            # single-rail NIC path reads the same txq.has_space bit it
            # always did; shm never blocks.
            request, uct_ep = self.pending_sends[0]
            if not uct_ep.can_post(request.payload_bytes):
                break
            self.pending_sends.popleft()
            status = yield from uct_ep.am_short(request.payload_bytes)
            if status == UCS_OK:
                self.progress_llp_posts += 1
                request.completed = True
            else:  # pragma: no cover - has_space raced; retry later
                self.pending_sends.appendleft((request, uct_ep))
                break
        self.progress_llp_post_ns += env.now - repost_start
        events = yield from self.uct_worker.progress()
        yield from self.profiler.end("ucp_worker_progress", start)
        return events

    def progress_until(self, predicate: Callable[[], bool]) -> Generator:
        """Spin :meth:`worker_progress` until ``predicate()`` holds.

        ``predicate`` is checked at every pass boundary — the MPI wait
        loops (``MPI_Wait``, ``MPI_Waitall``) are this loop.  After a
        pass that found nothing the process parks and the following
        empty passes run on the callback tier (see :meth:`_park`); a
        pass whose side effects are observable — traced, or inside an
        active profiler region — declines, counted in
        :attr:`park_declines` by reason.
        """
        idle = False
        while not predicate():
            if idle:
                reason = self._park_declined()
                if reason is None:
                    if not (yield from self._park(predicate)):
                        return None
                    idle = (yield from self._progress_rest(None)) == 0
                    continue
                self.park_declines[reason] = self.park_declines.get(reason, 0) + 1
            idle = (yield from self.worker_progress()) == 0
        return None

    def _park_declined(self) -> str | None:
        """Why an empty pass may not run on the callback tier (None: it may)."""
        if self.node.env.tracer.enabled:
            return "traced"
        profiler = self.profiler
        if profiler.is_active("ucp_worker_progress") or profiler.is_active("llp_prog"):
            return "profiled"
        return None

    def _park(self, predicate: Callable[[], bool]) -> Generator:
        """Run empty passes as callbacks while this process sleeps.

        Starts at a pass boundary.  An empty pass is two stages standing
        in for its two CPU segments: the body stage checks
        ``predicate()`` and charges ``ucp_prog_body``; the poll stage
        looks for work — the head pending send able to post, a CQE on
        any rail, an AM (shm deliveries included) — and, finding none,
        counts the pass and charges ``llp_prog_empty``.  A stage's
        continuation is pushed in the same step as the :class:`Timeout`
        it replaces, at the same absolute time and with the same draw
        from the core's stream, so the calendar, the RNG states and the
        CPU accounts stay bit-identical to the process-tier loop.  A
        zero-length stage continues within the step, exactly as
        ``execute`` does without yielding; the process only parks once
        a stage has been pushed.

        Returns True when a poll saw work (the caller finishes that pass
        with :meth:`_progress_rest`) and False when ``predicate()`` held
        at a pass boundary.  Either way the process resumes within the
        step that decided it (:meth:`Environment.fire_now`).
        """
        env = self.node.env
        cpu = self.cpu
        charge_body = cpu.charger("ucp_prog_body")
        charge_empty = cpu.charger("llp_prog_empty")
        uct = self.uct_worker
        pending = self.pending_sends
        # Every rail's CQ and the AM mailbox (shm deliveries land there too).
        watched = [qp.cq.mailbox for iface in uct.ifaces for qp in iface.qps]
        watched += [iface.am_mailbox for iface in uct.ifaces]
        defer_at = env.defer_at
        woken = env.event()

        def run(at_poll: bool) -> bool | None:
            """Run stages until one is pushed (None) or the wait decides."""
            while True:
                if not at_poll:
                    if predicate():
                        return False
                    duration = charge_body()
                    if duration > 0:
                        defer_at(stage, env.now + duration, args=(True,))
                        return None
                at_poll = False
                if (
                    pending and pending[0][1].can_post(pending[0][0].payload_bytes)
                ) or any(watched):
                    return True
                uct.progress_calls += 1
                uct.empty_progress_calls += 1
                duration = charge_empty()
                if duration > 0:
                    defer_at(stage, env.now + duration, args=(False,))
                    return None

        def stage(at_poll: bool) -> None:
            decided = run(at_poll)
            if decided is not None:
                env.fire_now(woken, decided)

        decided = run(False)
        if decided is None:
            self.parks += 1
            decided = yield woken
        # ``run`` and ``stage`` refer to each other.  The deciding stage
        # pushed nothing, so break the cycle here: left to the cyclic
        # collector, every park's closures linger in the old generation.
        del stage
        return decided

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<UcpWorker node={self.node.name} inflight={len(self.inflight_sends)}"
            f" pending={len(self.pending_sends)}>"
        )


class UcpEndpoint:
    """A UCP endpoint bound to a remote worker."""

    def __init__(self, worker: UcpWorker, uct_ep: UctEndpoint) -> None:
        self.worker = worker
        self.uct_ep = uct_ep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UcpEndpoint via {self.worker.node.name}>"
