"""Event loop and process primitives for the simulation kernel.

The calendar orders ``[time, priority, sequence, item, args]`` entries:
ties at the same simulated time are broken first by an explicit
priority (URGENT before NORMAL) and then by insertion order, which
keeps runs fully deterministic.

Since the three-tier refactor the calendar is a **bucketed time wheel**
rather than a single binary heap:

- near-future entries (the dominant case: fixed hardware delays in the
  10 ns – 10 µs range) land in one of ``_WHEEL_SLOTS`` buckets of
  ``_WHEEL_GRAIN_NS`` each, keyed by ``int(time / grain)``.  A bucket
  is sorted only when the cursor reaches it, so the common
  push/pop pair costs an append plus an amortised-linear drain instead
  of two ``O(log n)`` sift operations;
- far-future entries (beyond the wheel's horizon: watchdogs, replay
  timers) overflow into a ``heapq`` tier and migrate into the wheel as
  the cursor advances;
- entries are **slab-allocated**: processed entry lists go onto a free
  list and are recycled by later pushes, so the steady state allocates
  no per-event objects at all.

The execution model on top of the calendar is itself three tiers:

- the :class:`Process` tier wraps Python generators for stateful actors
  (progress engines, benchmark drivers) that block, wait on events and
  get interrupted;
- the **callback tier** (:meth:`Environment.defer` /
  :meth:`Environment.defer_at` / :meth:`Environment.chain`) schedules
  plain callables directly on the calendar with no :class:`Event`,
  generator or :class:`Process` allocation.  The per-packet hardware
  machinery (TLP delivery, ACK DLLPs, wire propagation, switch
  forwarding, DMA engines) runs on this tier, increasingly as
  *compiled chains*: one calendar entry at a precomputed absolute time
  standing in for a whole per-hop sequence (the elided entries are
  accounted in :attr:`Environment.events_fast_forwarded`);
- the **analytic fast-forward** tier skips the calendar entirely for
  detected steady-state phases: a driver validates a closed-form model
  against a probe window and then calls :meth:`Environment.fast_forward`
  to jump the clock to the synthesised terminal time.

All tiers share one calendar, one clock and one tie-breaking order, so
mixing them cannot reorder simultaneous work nondeterministically.

Time is a ``float`` measured in **nanoseconds** throughout the project;
the communication components modelled by the paper all live in the
10 ns – 10 µs range, where double precision is exact to well below a
femtosecond.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections.abc import Callable, Generator, Iterable
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "NULL_TRACER",
    "NullTracer",
    "Process",
    "SimulationError",
    "Timeout",
    "URGENT",
    "NORMAL",
    "set_tracer_factory",
]

#: Scheduling priority for events that must fire before ordinary events
#: scheduled at the same timestamp (e.g. resumption of an interrupted
#: process).  Lower sorts earlier.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel.

    Examples include running a finished environment backwards, triggering
    an already-triggered event, or yielding a non-event from a process.
    """


class _NullSpanContext:
    """Context manager returned by :meth:`NullTracer.span`: does nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The do-nothing tracer installed on every :class:`Environment`.

    Instrumented components call ``tracer.span(...)`` / ``tracer.instant``
    unconditionally on the slow paths and guard hot loops with
    ``if tracer.enabled:``.  This class makes the disabled case free of
    allocations and near-free of call overhead; :class:`repro.trace.Tracer`
    implements the same surface with real recording.
    """

    __slots__ = ()

    #: Hot paths test this attribute before doing any per-span work.
    enabled = False

    def bind(self, env: "Environment") -> "NullTracer":
        """Attach to an environment's clock (no-op here)."""
        return self

    def begin(self, layer: str, name: str, track: str | None = None, **attrs: Any):
        """Open a span; returns an opaque handle (``None`` here)."""
        return None

    def end(self, span: Any) -> None:
        """Close a span handle returned by :meth:`begin`."""

    def span(self, layer: str, name: str, track: str | None = None, **attrs: Any):
        """Context manager wrapping :meth:`begin`/:meth:`end`."""
        return _NULL_SPAN_CONTEXT

    def instant(self, layer: str, name: str, track: str | None = None, **attrs: Any):
        """Record a zero-duration event."""
        return None

    def counter(self, layer: str, name: str, value: float = 1.0) -> None:
        """Bump a per-layer counter."""


#: Shared no-op tracer; ``Environment.tracer`` defaults to this.
NULL_TRACER = NullTracer()

#: When set (by :func:`repro.trace.trace_session`), every Environment
#: created afterwards asks this factory for its tracer instead of using
#: :data:`NULL_TRACER`.  Kept here — not in ``repro.trace`` — so the
#: engine never imports the tracing package.
_tracer_factory: Callable[["Environment"], Any] | None = None


def set_tracer_factory(factory: Callable[["Environment"], Any] | None) -> None:
    """Install (or clear, with ``None``) the default tracer factory."""
    global _tracer_factory
    _tracer_factory = factory


class Interrupt(Exception):
    """Thrown into a process when another actor interrupts it.

    The ``cause`` attribute carries an arbitrary, caller-supplied payload
    describing why the interrupt happened.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event has three observable states:

    - *pending*: created, not yet triggered;
    - *triggered*: scheduled on the event calendar but callbacks not yet
      run;
    - *processed*: callbacks have run; ``value`` is final.

    Events may succeed (carrying a ``value``) or fail (carrying an
    exception, which is re-raised inside every waiting process).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    #: Sentinel distinguishing "no value yet" from a ``None`` value.
    PENDING = object()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once all callbacks have executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with.

        Raises
        ------
        SimulationError
            If the event has not been triggered yet.
        """
        if self._value is Event.PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when this event is processed.

        The bridge from the callback tier to events: continuation-style
        code (e.g. a deferred hardware step waiting on a
        :class:`~repro.sim.resources.Resource` grant) attaches its next
        step here instead of yielding from a generator.

        Raises
        ------
        SimulationError
            If the event has already been processed — its callbacks have
            run and this one would be silently dropped.
        """
        if self.callbacks is None:
            raise SimulationError(
                f"cannot add a callback to already-processed {self!r}"
            )
        self.callbacks.append(callback)

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.env._schedule(self, priority=NORMAL, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env._schedule(self, priority=NORMAL, delay=0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self._triggered = True
        self.env._schedule(self, priority=NORMAL, delay=0.0)

    # -- internal ----------------------------------------------------------
    def _mark_processed(self) -> None:
        """Run callbacks exactly once; called by the environment.

        A *failed* event processed with nobody listening re-raises its
        exception: a crashed process must never die silently.
        """
        callbacks = self.callbacks
        self.callbacks = None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)
        elif not self._ok:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        self._triggered = True
        env._schedule(self, priority=NORMAL, delay=delay)


class _Initialize(Event):
    """Internal event that kicks off a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self._triggered = True
        self.callbacks.append(process._resume)
        env._schedule(self, priority=URGENT, delay=0.0)


class Process(Event):
    """A running simulated actor wrapping a Python generator.

    The process itself is an :class:`Event` that fires when the generator
    returns (successfully, with the generator's return value) or raises
    (failed, with the exception).  This lets processes wait on each other
    simply by yielding the other process.
    """

    __slots__ = ("_generator", "_waiting_on", "_interrupt_pending", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Event | None = None
        self._interrupt_pending = False
        self.name = name or getattr(generator, "__name__", "process")
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting on an event detaches it from that event
        first so the event's eventual firing does not resume it twice.
        Interrupts **coalesce**: a second interrupt issued while one is
        already scheduled but not yet delivered is dropped (the first
        cause wins), so the generator is never advanced twice for one
        wake-up.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished {self.name!r}")
        if self._interrupt_pending:
            return
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._interrupt_pending = True
        failed = Event(self.env)
        failed._ok = False
        failed._value = Interrupt(cause)
        failed._triggered = True
        failed.callbacks.append(self._resume)
        self.env._schedule(failed, priority=URGENT, delay=0.0)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
        self._waiting_on = None
        self._interrupt_pending = False
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.env._active_process = None
            self.fail(exc)
            return
        self.env._active_process = None

        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
            self._generator.close()
            self.fail(error)
            return
        if target.env is not self.env:
            self._generator.close()
            self.fail(SimulationError("yielded event belongs to another Environment"))
            return
        if target.callbacks is None:
            # Already processed: resume immediately (at the current time)
            # with its settled value.
            settled = Event(self.env)
            settled._ok = target._ok
            settled._value = target._value
            settled._triggered = True
            settled.callbacks.append(self._resume)
            self.env._schedule(settled, priority=URGENT, delay=0.0)
            self._waiting_on = settled
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events.

    An event counts as *settled* once its callbacks have run; a condition
    tracks how many of its constituents are still outstanding and fires
    as soon as its satisfaction rule holds.
    """

    __slots__ = ("_events", "_total", "_outstanding")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("all events must share one Environment")
        self._total = len(self._events)
        self._outstanding = 0
        failed: Event | None = None
        for event in self._events:
            if event.callbacks is None:
                if not event._ok and failed is None:
                    failed = event
            else:
                self._outstanding += 1
                event.callbacks.append(self._check)
        if failed is not None:
            self.fail(failed._value)
        elif self._satisfied():
            self._finish()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._outstanding -= 1
        if self._satisfied():
            self._finish()

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _finish(self) -> None:
        self.succeed(
            [e._value for e in self._events if e._value is not Event.PENDING]
        )


class AllOf(_Condition):
    """Fires when every constituent event has settled (conjunction)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._outstanding == 0


class AnyOf(_Condition):
    """Fires when at least one constituent event has settled.

    An :class:`AnyOf` over zero events fires immediately, mirroring
    :class:`AllOf` over zero events.
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._outstanding < self._total or self._total == 0


#: Wheel bucket width in nanoseconds.  A power of two, so scaling by
#: ``1 / grain`` is exact and bucket indexing can never disagree with a
#: float comparison against the bucket boundary.  512 ns comfortably
#: exceeds the typical fixed hardware delay (10–500 ns), so most pushes
#: land in the active bucket (one C-level ``insort``) or its immediate
#: successors, and bucket advances stay rare.
_WHEEL_GRAIN_NS = 512.0
_WHEEL_INV_GRAIN = 1.0 / _WHEEL_GRAIN_NS
#: Number of wheel slots; the wheel spans ~2.1 ms ahead of the cursor.
#: Only watchdog/replay timers overflow to the far-future heap.
_WHEEL_SLOTS = 4096
#: Virtual-time span covered by the wheel ahead of the cursor.
_WHEEL_SPAN_NS = _WHEEL_GRAIN_NS * _WHEEL_SLOTS


class Environment:
    """The simulation clock, event calendar and scheduler.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock, in nanoseconds.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # -- the bucketed time-wheel calendar -----------------------------
        # Entries are slab-allocated mutable lists
        # ``[time, priority, sequence, item, args]``; ``item`` is an
        # :class:`Event` when ``args`` is ``None``, otherwise a plain
        # callable invoked as ``item(*args)`` (the callback fast tier).
        # List comparison never reaches ``item``: ``sequence`` is unique.
        self._wheel: list[list[list]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._wheel_count = 0
        #: Bucket index (``int(time / grain)``) of the bucket currently
        #: being drained through ``_active``.  Invariant: every wheel
        #: entry has a bucket index in ``(cursor, cursor + _WHEEL_SLOTS)``
        #: — index == cursor entries go straight into ``_active``.
        self._cursor = int(self._now * _WHEEL_INV_GRAIN)
        #: The active bucket, sorted ascending, consumed via
        #: ``_active_pos`` (same-bucket pushes insort behind the pos).
        self._active: list[list] = []
        self._active_pos = 0
        #: Far-future tier: a plain heap for entries beyond the wheel's
        #: horizon; migrated into the wheel as the cursor advances.
        self._overflow: list[list] = []
        #: Slab free list: processed entries are recycled here.
        self._free: list[list] = []
        self._sequence = 0
        self._processed_events = 0
        self._fast_forwarded_events = 0
        self._active_process: Process | None = None
        #: Observability hook: every instrumented component reads spans
        #: through here.  A no-op unless a tracer factory is installed
        #: (see :func:`repro.trace.trace_session`).
        self.tracer: Any = (
            _tracer_factory(self) if _tracer_factory is not None else NULL_TRACER
        )
        #: Optional callback ``(when, item)`` invoked for every calendar
        #: entry the scheduler processes, before it runs.  ``item`` is
        #: the :class:`Event`, or the bare callable for callback-tier
        #: entries.
        self.on_event: Callable[[float, Any], None] | None = None

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total events processed since creation (throughput metric)."""
        return self._processed_events

    @property
    def events_executed(self) -> int:
        """Calendar entries actually popped and run (same as
        :attr:`processed_events`; the name pairs with
        :attr:`events_fast_forwarded` for speedup audits)."""
        return self._processed_events

    @property
    def events_fast_forwarded(self) -> int:
        """Events *not* replayed: per-hop entries elided by compiled
        chains plus entries skipped by analytic fast-forward jumps.

        ``events_executed + events_fast_forwarded`` is the effective
        event count a pre-refactor replay of the same scenario would
        have processed — the numerator of "effective events/s"."""
        return self._fast_forwarded_events

    def credit_fast_forwarded(self, count: int) -> None:
        """Account ``count`` calendar entries as elided, not executed.

        Called by compiled chains (one entry standing in for a per-hop
        sequence) and by :meth:`fast_forward`.  Keeping the split
        explicit makes speedup claims auditable from any run.
        """
        self._fast_forwarded_events += count

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _push(self, time: float, priority: int, item: Any, args: tuple | None) -> None:
        """Insert one calendar entry at absolute ``time`` (>= now)."""
        self._sequence += 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = priority
            entry[2] = self._sequence
            entry[3] = item
            entry[4] = args
        else:
            entry = [time, priority, self._sequence, item, args]
        if time - self._now > _WHEEL_SPAN_NS:
            # Far future (or non-finite): the overflow heap.  Slightly
            # conservative versus the exact window check — harmless,
            # migration pulls it into the wheel once in range.
            heapq.heappush(self._overflow, entry)
            return
        index = int(time * _WHEEL_INV_GRAIN)
        offset = index - self._cursor
        if offset <= 0:
            # The bucket being drained (or, pathologically, behind it —
            # impossible for monotone time, but insort stays correct):
            # keep the active run sorted behind the consumption point.
            insort(self._active, entry, lo=self._active_pos)
        elif offset < _WHEEL_SLOTS:
            self._wheel[index % _WHEEL_SLOTS].append(entry)
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, entry)

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {event!r} into the past: "
                f"delay={delay!r} at now={self._now!r}"
            )
        self._push(self._now + delay, priority, event, None)

    def defer(
        self,
        fn: Callable[..., Any],
        delay: float = 0.0,
        priority: int = NORMAL,
        args: tuple = (),
    ) -> None:
        """Schedule ``fn(*args)`` on the calendar ``delay`` ns from now.

        The callback fast tier: one calendar entry, no :class:`Event` or
        generator allocation.  The callable runs exactly as an event at
        the same ``(time, priority, insertion order)`` would — both
        tiers share one calendar and one tie-break rule.  Exceptions
        raised by ``fn`` propagate out of :meth:`step`/:meth:`run`
        (callback-tier work must never die silently).

        Use for fire-and-forget hardware machinery; keep stateful actors
        that wait, block or get interrupted on the :class:`Process` tier.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot defer {fn!r} into the past: "
                f"delay={delay!r} at now={self._now!r}"
            )
        self._push(self._now + delay, priority, fn, args)

    def defer_at(
        self,
        fn: Callable[..., Any],
        at: float,
        priority: int = NORMAL,
        args: tuple = (),
    ) -> None:
        """Schedule ``fn(*args)`` at the absolute time ``at``.

        The compiled-chain primitive: a caller that has pre-folded a
        per-hop delay sequence into one terminal timestamp (summing
        left-to-right, so the float result is bit-identical to hop-by-hop
        scheduling) lands the whole chain as a single calendar entry.
        """
        if at < self._now:
            raise SimulationError(
                f"cannot defer {fn!r} into the past: "
                f"at={at!r} before now={self._now!r}"
            )
        self._push(at, priority, fn, args)

    def fire_now(self, event: Event, value: Any = None) -> None:
        """Succeed ``event`` with ``value`` and run its callbacks right now.

        Unlike :meth:`Event.succeed`, no calendar entry is pushed and no
        sequence number is consumed: a process waiting on ``event``
        resumes inside the current step, as if its code were part of the
        entry being processed.  This lets callback-tier code hand work
        back to a parked process without perturbing the calendar's keys
        or tie-breaks.  Call it from callback-tier code, never from
        inside a running process.

        Raises
        ------
        SimulationError
            If ``event`` has already been triggered.
        """
        if event._triggered:
            raise SimulationError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = value
        event._triggered = True
        event._mark_processed()

    def chain(
        self,
        *steps: tuple[float, Callable[[], Any]],
        priority: int = NORMAL,
    ) -> None:
        """Run ``(delay, fn)`` steps sequentially on the callback tier.

        Each step is scheduled only when the previous one fires, so the
        clock advances exactly as a generator yielding one timeout per
        step would: step *k* runs at ``(...((now + d0) + d1)... + dk)``
        — the same floating-point sum, bit for bit.  An exception in a
        step surfaces and abandons the remaining steps.
        """
        if not steps:
            return
        index = 0

        def advance() -> None:
            nonlocal index
            fn = steps[index][1]
            index += 1
            fn()
            if index < len(steps):
                self.defer(advance, steps[index][0], priority)

        self.defer(advance, steps[0][0], priority)

    def _ensure_active(self) -> bool:
        """Advance the wheel until the active bucket holds the next entry.

        Returns False when the whole calendar (active run, wheel and
        overflow) is empty.  Runs no callbacks — semantically pure, so
        :meth:`peek` can call it safely.
        """
        while True:
            if self._active_pos < len(self._active):
                return True
            if self._active:
                self._active.clear()
                self._active_pos = 0
            overflow = self._overflow
            if self._wheel_count == 0 and not overflow:
                return False
            if overflow:
                if self._wheel_count == 0:
                    head = overflow[0][0]
                    if head == float("inf"):
                        # Non-finite times can't be bucketed; drain them
                        # straight through the active run, heap-ordered.
                        self._active = [heapq.heappop(overflow)]
                        self._active_pos = 0
                        return True
                    # Nothing in range: jump the cursor straight to the
                    # earliest overflow entry's bucket.
                    jump = int(head * _WHEEL_INV_GRAIN)
                    if jump > self._cursor:
                        self._cursor = jump
                # Migrate everything now inside the window.  The limit is
                # exact: grain is a power of two, so the comparison
                # agrees bitwise with the bucket-index arithmetic.
                limit = (self._cursor + _WHEEL_SLOTS) * _WHEEL_GRAIN_NS
                wheel = self._wheel
                while overflow and overflow[0][0] < limit:
                    entry = heapq.heappop(overflow)
                    wheel[int(entry[0] * _WHEEL_INV_GRAIN) % _WHEEL_SLOTS].append(entry)
                    self._wheel_count += 1
            if self._wheel_count:
                wheel = self._wheel
                cursor = self._cursor
                for ahead in range(_WHEEL_SLOTS):
                    slot = (cursor + ahead) % _WHEEL_SLOTS
                    bucket = wheel[slot]
                    if bucket:
                        self._cursor = cursor + ahead
                        bucket.sort()
                        self._active = bucket
                        wheel[slot] = []
                        self._active_pos = 0
                        self._wheel_count -= len(bucket)
                        break
            # Loop: the overflow may still hold entries beyond the (now
            # advanced) window, or the active run is ready.

    def step(self) -> None:
        """Process exactly one entry from the calendar."""
        if self._active_pos >= len(self._active) and not self._ensure_active():
            raise SimulationError("attempt to step an empty event calendar")
        entry = self._active[self._active_pos]
        self._active_pos += 1
        when = entry[0]
        item = entry[3]
        args = entry[4]
        # Recycle before running: the callback may push new entries and
        # immediately reuse this slab slot (locals hold what we need).
        entry[3] = None
        entry[4] = None
        self._free.append(entry)
        self._now = when
        self._processed_events += 1
        if self.on_event is not None:
            self.on_event(when, item)
        if args is None:
            item._mark_processed()
        else:
            item(*args)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._ensure_active():
            return self._active[self._active_pos][0]
        return float("inf")

    def fast_forward(self, to: float, skipped_events: int = 0) -> int:
        """Jump the clock to ``to``, discarding every pending entry.

        The analytic fast-forward tier's terminal operation: a driver
        that has validated a closed-form steady-state model synthesises
        the final virtual time and calls this instead of replaying the
        remaining events.  All discarded calendar entries plus
        ``skipped_events`` (the driver's count of events that were never
        scheduled at all) are accounted in
        :attr:`events_fast_forwarded`.  Returns the total credited.
        """
        if to < self._now:
            raise SimulationError(
                f"cannot fast-forward to {to!r}, clock is already at {self._now!r}"
            )
        dropped = (
            len(self._active) - self._active_pos
            + self._wheel_count
            + len(self._overflow)
        )
        self._active.clear()
        self._active_pos = 0
        if self._wheel_count:
            for bucket in self._wheel:
                bucket.clear()
            self._wheel_count = 0
        self._overflow.clear()
        self._now = to
        cursor = int(to * _WHEEL_INV_GRAIN)
        if cursor > self._cursor:
            self._cursor = cursor
        credited = dropped + skipped_events
        self._fast_forwarded_events += credited
        return credited

    def _pending_count(self) -> int:
        """Number of calendar entries not yet processed (all tiers)."""
        return (
            len(self._active) - self._active_pos
            + self._wheel_count
            + len(self._overflow)
        )

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the calendar drains;
            a number
                run until the clock reaches that time (exclusive of
                events scheduled exactly at it);
            an :class:`Event`
                run until that event has been processed, returning its
                value (or raising its exception).
        """
        if until is None:
            while self._ensure_active():
                self.step()
            return None

        if isinstance(until, Event):
            while not until._processed:
                if not self._ensure_active():
                    raise SimulationError(
                        "event calendar drained before the awaited event fired "
                        "(deadlock: some process is waiting forever)"
                    )
                self.step()
            if until._ok:
                return until._value
            raise until._value

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon!r}, clock is already at {self._now!r}"
            )
        while self._ensure_active() and self._active[self._active_pos][0] < horizon:
            self.step()
        # The clock always ends at the horizon, even when the calendar
        # drained before reaching it: time passes whether or not events
        # were left to process.
        self._now = horizon
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment t={self._now:.2f}ns queued={self._pending_count()}>"
