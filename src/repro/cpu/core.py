"""The sequential CPU core executing named software segments.

A :class:`CpuCore` is the time-source for everything the paper calls
"CPU": LLP and HLP code regions run *on* a core by yielding from
:meth:`CpuCore.execute`, which advances simulated time by a jittered
duration and records per-segment accounting.  The accounting doubles as
the simulation's ground truth against which the profiling methodology
(which re-measures the same segments with timer overhead and noise) is
validated.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.cpu.costs import SegmentCosts
from repro.sim.engine import Environment
from repro.sim.rng import JitterModel

__all__ = ["CpuCore", "SegmentAccount"]


@dataclass
class SegmentAccount:
    """Accumulated ground-truth time for one named segment."""

    count: int = 0
    total_ns: float = 0.0
    samples: list[float] = field(default_factory=list)

    @property
    def mean_ns(self) -> float:
        """Mean simulated duration of the segment (0 when never run)."""
        return self.total_ns / self.count if self.count else 0.0


class CpuCore:
    """A single simulated core executing segments sequentially.

    Parameters
    ----------
    env:
        Simulation environment.
    costs:
        Cost table with mean durations for named segments.
    jitter:
        Noise model applied to every execution.
    rng:
        Random generator dedicated to this core.
    name:
        Label used in diagnostics and stream naming.
    record_samples:
        When True, keep every per-execution duration (needed by tests
        and by distribution analyses; costs memory on long runs).
    """

    def __init__(
        self,
        env: Environment,
        costs: SegmentCosts,
        jitter: JitterModel,
        rng: np.random.Generator,
        name: str = "cpu",
        record_samples: bool = False,
    ) -> None:
        self.env = env
        self.costs = costs
        self.jitter = jitter
        self.rng = rng
        self.name = name
        self.record_samples = record_samples
        self.accounts: dict[str, SegmentAccount] = {}
        self.busy_ns = 0.0

    def segment_mean(self, segment: str) -> float:
        """Configured mean duration for ``segment`` from the cost table.

        Raises
        ------
        AttributeError
            If the segment is not a field of :class:`SegmentCosts`.
        """
        return getattr(self.costs, segment)

    def execute(self, segment: str, mean: float | None = None):
        """Run ``segment`` on this core (generator; yield from it).

        Parameters
        ----------
        segment:
            Name for accounting.  When ``mean`` is omitted the name must
            be a :class:`SegmentCosts` field.
        mean:
            Override mean duration in ns.

        Yields
        ------
        The timeout advancing simulated time.  Returns the actual
        (jittered) duration in ns.
        """
        duration = self.charge(segment, mean)
        if duration > 0:
            yield self.env.timeout(duration)
        return duration

    def charge(self, segment: str, mean: float | None = None) -> float:
        """The bookkeeping half of :meth:`execute`, without advancing time.

        Draws one jittered duration for ``segment`` from this core's
        stream, accounts it exactly as :meth:`execute` does and returns
        it; the caller is responsible for letting that much simulated
        time pass (callback-tier code schedules its continuation at
        ``env.now + duration``, the float a :class:`Timeout` computes).
        """
        nominal = self.segment_mean(segment) if mean is None else mean
        duration = self.jitter.sample(nominal, self.rng)
        account = self.accounts.setdefault(segment, SegmentAccount())
        account.count += 1
        account.total_ns += duration
        if self.record_samples:
            account.samples.append(duration)
        self.busy_ns += duration
        return duration

    def charger(self, segment: str) -> Callable[[], float]:
        """:meth:`charge` for one segment, with its mean and account
        looked up once — for hot loops that charge the same segment over
        and over (the idle MPI-wait chain).  Each call draws and accounts
        exactly as ``charge(segment)`` would; the segment's account is
        created up front."""
        nominal = self.segment_mean(segment)
        account = self.accounts.setdefault(segment, SegmentAccount())
        jitter, rng = self.jitter, self.rng

        def charge() -> float:
            duration = jitter.sample(nominal, rng)
            account.count += 1
            account.total_ns += duration
            if self.record_samples:
                account.samples.append(duration)
            self.busy_ns += duration
            return duration

        return charge

    def account(self, segment: str) -> SegmentAccount:
        """Accounting entry for ``segment`` (empty if never run)."""
        return self.accounts.get(segment, SegmentAccount())

    def ground_truth_mean(self, segment: str) -> float:
        """Observed mean duration of a segment over the run so far."""
        return self.account(segment).mean_ns

    def utilization(self) -> float:
        """Fraction of elapsed simulated time this core was busy."""
        return self.busy_ns / self.env.now if self.env.now > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CpuCore {self.name!r} busy={self.busy_ns:.1f}ns>"
