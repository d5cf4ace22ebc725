"""One node: CPU + Root Complex + PCIe link(s) + host memory + NIC(s)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.core import CpuCore
from repro.cpu.timer import VirtualTimer
from repro.faults.inject import FaultInjector
from repro.node.config import SystemConfig
from repro.nic.nic import Nic
from repro.pcie.link import PcieLink
from repro.pcie.root_complex import HostMemory, RootComplex
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams

__all__ = ["Node", "Rail"]


@dataclass(frozen=True)
class Rail:
    """One PCIe/NIC rail: a private link + Root Complex + NIC.

    Rail 0 is the node's original stack (same objects as ``node.link``
    / ``node.rc`` / ``node.nic``); additional rails clone it with
    suffixed names and independent RNG streams.
    """

    link: PcieLink
    rc: RootComplex
    nic: Nic


class Node:
    """A complete host: the unit Figure 1 decomposes.

    Parameters
    ----------
    env:
        Shared simulation environment.
    config:
        System parameters (CPU costs, PCIe, NIC...).
    streams:
        Root random streams; the node scopes its own substreams.
    name:
        Node label, e.g. ``"node1"``.
    record_samples:
        Forwarded to the CPU core (keep per-segment duration samples).
    faults:
        The testbed-wide fault injector; ``None`` keeps every layer on
        its original zero-cost path.
    """

    def __init__(
        self,
        env: Environment,
        config: SystemConfig,
        streams: RandomStreams,
        name: str,
        record_samples: bool = False,
        n_cores: int = 1,
        faults: FaultInjector | None = None,
    ) -> None:
        if n_cores < 1:
            raise ValueError(f"a node needs at least one core, got {n_cores}")
        self.env = env
        self.config = config
        self.name = name
        self._streams = streams.child(name)
        self._record_samples = record_samples
        scoped = self._streams
        jitter = config.effective_jitter()
        #: All cores on this node; the paper's single-threaded runs use
        #: ``cores[0]`` (aliased as :attr:`cpu`), the many-core intro
        #: scenario ("each core participates in communication") uses the
        #: rest.
        self.cores: list[CpuCore] = [
            CpuCore(
                env,
                config.costs,
                jitter,
                scoped.get(f"cpu{index}"),
                name=f"{name}.cpu{index}",
                record_samples=record_samples,
            )
            for index in range(n_cores)
        ]
        self.cpu = self.cores[0]
        overhead_mean, overhead_std = config.effective_timer_overhead()
        self.timer = VirtualTimer(
            env,
            scoped.get("timer"),
            measurement_overhead_ns=overhead_mean,
            overhead_std_ns=overhead_std,
        )
        self.memory = HostMemory(env, name=f"{name}.mem")
        self._ifaces_opened = 0
        self.link = PcieLink(
            env, config.pcie, name=f"{name}.pcie", rng=scoped.get("pcie"),
            faults=faults,
        )
        self.rc = RootComplex(env, self.link, config.pcie, self.memory, name=f"{name}.rc")
        self.nic = Nic(
            env, self.link, config.nic, self.memory, name=f"{name}.nic",
            faults=faults,
        )
        #: All PCIe/NIC rails. Rail 0 holds the objects above (so the
        #: single-rail default builds exactly the pre-rail node: same
        #: names, same RNG streams, same construction order); rails
        #: >= 1 clone the stack with an ``{index}`` name suffix and
        #: their own name-keyed RNG streams.
        self.rails: list[Rail] = [Rail(self.link, self.rc, self.nic)]
        for index in range(1, config.transport.rails):
            link = PcieLink(
                env, config.pcie, name=f"{name}.pcie{index}",
                rng=scoped.get(f"pcie{index}"), faults=faults,
            )
            rc = RootComplex(env, link, config.pcie, self.memory, name=f"{name}.rc{index}")
            nic = Nic(
                env, link, config.nic, self.memory, name=f"{name}.nic{index}",
                faults=faults,
            )
            self.rails.append(Rail(link, rc, nic))

    def add_core(self) -> CpuCore:
        """Bring one more core online (multi-core injection studies)."""
        index = len(self.cores)
        core = CpuCore(
            self.env,
            self.config.costs,
            self.config.effective_jitter(),
            self._streams.get(f"cpu{index}"),
            name=f"{self.name}.cpu{index}",
            record_samples=self._record_samples,
        )
        self.cores.append(core)
        return core

    def next_iface_name(self) -> str:
        """Name the next UCT interface opened on this node.

        Interfaces are numbered per node, not per worker, so workers
        sharing a node (several ranks, or one worker per core) get
        distinct AM and CQ mailboxes; the first is ``{node}.iface0``.
        """
        index = self._ifaces_opened
        self._ifaces_opened += 1
        return f"{self.name}.iface{index}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name!r} cores={len(self.cores)}>"
