"""Outside-in attribution of the simulator's host time, per ``repro`` layer.

Nothing here edits ``src/``.  Two mechanisms observe the simulator from
the outside, and both are installed only for a traced round:

* **Calendar-entry attribution** (:class:`Attribution`).  The public
  ``Environment.on_event`` hook is set on every Environment right after
  its constructor returns (the constructor itself resets the hook, so an
  install through the tracer factory would record nothing), and
  ``env.tracer`` stays the null tracer so compiled chains and analytic
  fast-forward engage exactly as in an untraced run.  Each executed
  calendar entry is charged to the ``repro`` package that owns it: the
  callable's module on the callback tier, the module of the innermost
  suspended generator on the process tier.  An entry is charged the host
  time until the next entry starts or until ``Environment.run`` returns,
  so host work between runs is not billed to the last entry's layer.
* **Boundary wrappers** (:class:`Boundaries`).  Class-level wrappers
  (module-level for the collectives' zero-load models) count calls into
  each layer's public entry points and time the synchronous ones.
  Timers nest: each reports *self* time, the wrapper's span minus the
  spans of boundary timers called inside it.
  Generator methods (``UctWorker.progress``, ``CpuCore.execute``,
  ``UcpWorker.worker_progress``) are counted but never timed, because
  their span includes simulated waiting.  Their wrappers count the call
  and hand back the method's own generator, adding no generator frame.
  The programs' own counters are not used: analytic fast-forward adds
  the calls it elided to them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from types import GeneratorType
from typing import Any

from repro.collectives import model as collectives_model
from repro.cpu.core import CpuCore
from repro.hlp.ucp import UcpWorker
from repro.llp.uct import UctWorker
from repro.network.fabric import Fabric
from repro.network.topology import Topology
from repro.nic.offload import OffloadEngine
from repro.node.cluster import Cluster
from repro.pcie.link import PcieLink
from repro.serve.store import ResultStore
from repro.sim.engine import Environment, Event, Process
from repro.sim.rng import JitterModel

#: Calendar layers reported as ``<layer>.entries`` / ``<layer>.self_s``;
#: every other owner (``repro.sim``, ``repro.node``, ``repro.campaign``,
#: code outside ``repro`` ...) is pooled as ``other``.
LAYERS = (
    "cpu", "llp", "hlp", "transport", "pcie", "nic", "network",
    "collectives", "bench", "other",
)

_RESUME = Process._resume
_perf = time.perf_counter


def _layer_of_module(module: str | None) -> str:
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Attribution:
    """Charges every executed calendar entry to its owning layer."""

    def __init__(self) -> None:
        self.entries: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.process_entries = 0
        self.callback_entries = 0
        self.run_s = 0.0
        #: Every Environment created while installed (strong references,
        #: dropped by :meth:`close`), so executed/credited totals cover
        #: environments that a workload has already let go of.
        self.environments: list[Environment] = []
        self._by_code: dict[Any, str] = {}
        self._current: str | None = None
        self._since = 0.0

    # -- the on_event hook -------------------------------------------------
    def on_event(self, when: float, item: Any) -> None:
        now = _perf()
        current = self._current
        if current is not None:
            self.self_s[current] += now - self._since
        if isinstance(item, Event):
            self.process_entries += 1
            layer = self._event_owner(item)
        else:
            self.callback_entries += 1
            layer = self._callable_owner(item)
        self.entries[layer] += 1
        self._current = layer
        self._since = now

    def stop_clock(self) -> None:
        """Close the running entry's interval (``Environment.run`` returned)."""
        if self._current is not None:
            self.self_s[self._current] += _perf() - self._since
            self._current = None

    # -- ownership ---------------------------------------------------------
    def _callable_owner(self, fn: Any) -> str:
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        layer = self._by_code.get(code) if code is not None else None
        if layer is None:
            layer = _layer_of_module(getattr(func, "__module__", None))
            if code is not None:
                self._by_code[code] = layer
        return layer

    def _event_owner(self, event: Event) -> str:
        callbacks = event.callbacks
        if not callbacks:
            return "other"  # the kernel settling an event nobody awaits
        for callback in callbacks:
            if getattr(callback, "__func__", None) is _RESUME:
                return self._generator_owner(callback.__self__._generator)
        return self._callable_owner(callbacks[0])

    def _generator_owner(self, generator: Any) -> str:
        inner = generator
        nested = inner.gi_yieldfrom
        while type(nested) is GeneratorType:
            inner = nested
            nested = inner.gi_yieldfrom
        code = inner.gi_code
        layer = self._by_code.get(code)
        if layer is None:
            frame = inner.gi_frame
            module = frame.f_globals.get("__name__") if frame is not None else None
            layer = _layer_of_module(module)
            self._by_code[code] = layer
        return layer

    # -- installation ------------------------------------------------------
    def executed(self) -> int:
        return sum(env.events_executed for env in self.environments)

    def credited(self) -> int:
        return sum(env.events_fast_forwarded for env in self.environments)

    def close(self) -> None:
        self.environments = []


class Boundaries:
    """Counters and nested self-timers at the layers' public entry points."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        #: Open timers: [name, start, time covered by nested timers].
        self._stack: list[list[Any]] = []

    def enter(self, name: str) -> bool:
        """Open timer ``name``; True unless it is already open further out."""
        outermost = all(frame[0] != name for frame in self._stack)
        self._stack.append([name, _perf(), 0.0])
        return outermost

    def leave(self) -> None:
        """Close the innermost timer, crediting its self time."""
        name, start, covered = self._stack.pop()
        elapsed = _perf() - start
        self.seconds[name] += elapsed - covered
        if self._stack:
            self._stack[-1][2] += elapsed


def _counted(method: Callable[..., Any], calls: str,
             counts: Counter[str]) -> Callable[..., Any]:
    """Count calls of ``method``.

    A generator method's caller gets the method's own generator back, so
    its ``yield from`` and the innermost-generator attribution see
    exactly what they would see untraced: no generator frame is added.
    """
    @functools.wraps(method)
    def counted(*args: Any, **kwargs: Any) -> Any:
        counts[calls] += 1
        return method(*args, **kwargs)

    return counted


@contextmanager
def traced() -> Iterator[tuple[Attribution, Boundaries]]:
    """Install both mechanisms for the duration of the block.

    The block's simulated results must equal an untraced run's; the
    caller checks that by comparing output digests.
    """
    attribution = Attribution()
    bounds = Boundaries()
    counts = bounds.counts
    patched: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, wrapper: Callable[..., Any]) -> None:
        patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def timed(owner: Any, name: str, timer: str, calls: str | None = None,
              success: Callable[[Any], bool] | None = None,
              hits: str | None = None) -> None:
        """Self-time ``owner.name`` (a class or a module) as ``timer``;
        count its outermost calls (those whose result passes ``success``,
        when given) as ``calls`` and its non-None results as ``hits``."""
        method = owner.__dict__[name]

        enter, leave = bounds.enter, bounds.leave

        @functools.wraps(method)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outermost = enter(timer)
            try:
                result = method(*args, **kwargs)
            finally:
                leave()
            if calls is not None and outermost and (success is None or success(result)):
                counts[calls] += 1
            if hits is not None and result is not None:
                counts[hits] += 1
            return result

        patch(owner, name, wrapper)

    env_init = Environment.__dict__["__init__"]
    env_run = Environment.__dict__["run"]

    @functools.wraps(env_init)
    def init(self: Environment, *args: Any, **kwargs: Any) -> None:
        env_init(self, *args, **kwargs)
        # After the constructor: it resets on_event itself.
        self.on_event = attribution.on_event
        attribution.environments.append(self)

    depth = 0

    @functools.wraps(env_run)
    def run(self: Environment, until: Any = None) -> Any:
        nonlocal depth
        depth += 1
        start = _perf()
        try:
            return env_run(self, until)
        finally:
            depth -= 1
            if depth == 0:
                attribution.stop_clock()
                attribution.run_s += _perf() - start

    patch(Environment, "__init__", init)
    patch(Environment, "run", run)

    for cls, name, calls in (
        (JitterModel, "sample", "sim.jitter_draws"),
        (UctWorker, "progress", "llp.progress_calls"),
        (UcpWorker, "worker_progress", "hlp.progress_calls"),
        (OffloadEngine, "on_frame", "nic.offload_frames"),
    ):
        patch(cls, name, _counted(cls.__dict__[name], calls, counts))

    execute = CpuCore.__dict__["execute"]

    @functools.wraps(execute)
    def counted_execute(self: CpuCore, segment: str, *args: Any, **kwargs: Any) -> Any:
        counts["cpu.execute_calls"] += 1
        if segment == "llp_prog_empty":  # the one segment of a pass that found nothing
            counts["llp.empty_progress_calls"] += 1
        return execute(self, segment, *args, **kwargs)

    patch(CpuCore, "execute", counted_execute)

    timed(Fabric, "transmit", "network.transmit_s", "network.frames")
    timed(Fabric, "try_send_data_at", "network.transmit_s", "network.frames",
          success=bool)
    timed(Topology, "path", "network.route_s", "network.route_lookups")
    timed(Topology, "next_hop", "network.route_s", "network.route_lookups")
    timed(PcieLink, "send", "pcie.send_s", "pcie.tlps")
    timed(Cluster, "__init__", "node.cluster_build_s")
    # The zero-load models; callers that reach them through the module
    # (``model.predicted_*``) are timed, re-exported names are not.
    for name in dir(collectives_model):
        if name.startswith("predicted_"):
            timed(collectives_model, name, "collectives.model_s")
    timed(ResultStore, "get", "serve.store_get_s", "serve.store_gets",
          hits="serve.store_hits")
    timed(ResultStore, "put", "serve.store_put_s", "serve.store_puts")

    try:
        yield attribution, bounds
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
