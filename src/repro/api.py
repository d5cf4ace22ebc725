"""The single front door to the simulator: build, run, sweep.

Everything the per-module constructors scatter — testbed assembly,
topology, fault plans, tracing, campaign sweeps — composes in one
place::

    from repro.api import Experiment, SystemConfig

    exp = Experiment(
        config=SystemConfig.builder().nic(txq_depth=4).deterministic(),
        nodes=64,
        topology="fat_tree:4",
        trace=False,
    )
    run = exp.run("allreduce", algorithm="ring", payload_bytes=8)
    print(run.measurements["time_per_iteration_ns"])

    sweep = exp.sweep("allreduce", axes={"n_nodes": (8, 16, 64)}, jobs=4)

An :class:`Experiment` is cheap and immutable-ish: each ``run`` builds
a fresh simulation from the resolved config, so repeated runs are
independent and deterministic.  Workload names come from the campaign
registry (:mod:`repro.campaign.workloads`); unknown names raise
``KeyError`` listing what is registered.

The lower-level entry points (``Testbed(config)``, per-module config
constructors, ``repro.collectives.run_collective``) keep working; this
module is the supported composition layer on top of them.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.serve.service import Answer, ServeTier

from repro.campaign import CampaignResult, CampaignSpec, SweepAxis, run_campaign
from repro.campaign.workloads import get_workload
from repro.faults.plan import FaultPlan
from repro.network.topology import TopologySpec
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig, SystemConfigBuilder
from repro.node.testbed import Testbed

__all__ = [
    "Experiment",
    "ExperimentRun",
    "FaultPlan",
    "SystemConfig",
    "SystemConfigBuilder",
    "TopologySpec",
]


@dataclass
class ExperimentRun:
    """One completed workload execution."""

    workload: str
    params: dict[str, Any]
    config: SystemConfig
    #: The workload's flat measurement dict (JSON-encodable).
    measurements: dict[str, Any]
    #: Span/counter summary when the experiment traces, else None.
    trace_summary: dict[str, Any] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(self.measurements.items()))
        return f"<ExperimentRun {self.workload} {body}>"


class Experiment:
    """A composed experiment: config + scale + topology + faults + trace.

    Parameters
    ----------
    config:
        A :class:`SystemConfig`, a :class:`SystemConfigBuilder` (built
        automatically), or None for the paper testbed.
    nodes:
        Cluster size for workloads that take an ``n_nodes`` parameter
        (collectives); also what :meth:`cluster` builds.
    topology:
        ``TopologySpec``, a string like ``"fat_tree:4"`` / ``"ring"`` /
        ``"torus:4x4"``, or None to keep the config's topology.
    faults:
        A :class:`FaultPlan`, a plan-file path, or None.
    trace:
        Record spans during :meth:`run` and attach the summary to the
        :class:`ExperimentRun` (sweeps pass the flag to the campaign).
    seed / deterministic:
        Override the corresponding config fields when not None.
    processes_per_node:
        Ranks per node for workloads that accept it (collectives,
        traffic patterns); same-node rank pairs use the shared-memory
        transport automatically.
    rails:
        NIC rails per node (evolves ``config.transport.rails``); None
        keeps the config's value.
    transports:
        Which transport families endpoints may resolve: an iterable or
        comma-separated string drawn from ``{"shm", "nic"}``.  Omitting
        ``"shm"`` forces even same-node pairs through the NIC loopback
        path; None keeps the config's setting.
    """

    def __init__(
        self,
        config: SystemConfig | SystemConfigBuilder | None = None,
        *,
        nodes: int = 2,
        topology: TopologySpec | str | None = None,
        faults: FaultPlan | str | None = None,
        trace: bool = False,
        seed: int | None = None,
        deterministic: bool | None = None,
        processes_per_node: int = 1,
        rails: int | None = None,
        transports: str | tuple[str, ...] | list[str] | None = None,
        name: str = "experiment",
    ) -> None:
        if nodes < 2:
            raise ValueError(f"an experiment needs at least two nodes, got {nodes}")
        if processes_per_node < 1:
            raise ValueError(
                f"processes_per_node must be >= 1, got {processes_per_node}"
            )
        if isinstance(config, SystemConfigBuilder):
            config = config.build()
        resolved = config if config is not None else SystemConfig.paper_testbed()
        if seed is not None:
            resolved = resolved.evolve(seed=int(seed))
        if deterministic is not None:
            resolved = resolved.evolve(deterministic=deterministic)
        if topology is not None:
            spec = (
                TopologySpec.parse(topology) if isinstance(topology, str) else topology
            )
            resolved = resolved.evolve(
                network=dataclasses.replace(resolved.network, topology=spec)
            )
        if faults is not None:
            plan = FaultPlan.load(faults) if isinstance(faults, str) else faults
            resolved = resolved.evolve(faults=plan)
        transport_overrides: dict[str, Any] = {}
        if rails is not None:
            transport_overrides["rails"] = int(rails)
        if transports is not None:
            if isinstance(transports, str):
                transports = tuple(t.strip() for t in transports.split(",") if t.strip())
            chosen = set(transports)
            unknown = chosen - {"shm", "nic"}
            if unknown:
                raise ValueError(
                    f"unknown transport(s) {sorted(unknown)}; valid: 'shm', 'nic'"
                )
            if "nic" not in chosen:
                raise ValueError(
                    "the 'nic' transport cannot be disabled — inter-node "
                    "traffic has no other path"
                )
            transport_overrides["shm_enabled"] = "shm" in chosen
        if transport_overrides:
            resolved = resolved.evolve(
                transport=dataclasses.replace(
                    resolved.transport, **transport_overrides
                )
            )
        self.config = resolved
        self.nodes = nodes
        self.processes_per_node = processes_per_node
        self.trace = trace
        self.name = name

    # -- construction ------------------------------------------------------
    def cluster(self, **kwargs: Any) -> Cluster:
        """A fresh N-node cluster with this experiment's config."""
        kwargs.setdefault("processes_per_node", self.processes_per_node)
        return Cluster(self.nodes, config=self.config, **kwargs)

    def testbed(self, **kwargs: Any) -> Testbed:
        """The two-node paper testbed (requires ``nodes == 2``)."""
        if self.nodes != 2:
            raise ValueError(
                f"testbed() is the two-node setup; this experiment has "
                f"{self.nodes} nodes — use cluster()"
            )
        return Testbed(config=self.config, **kwargs)

    # -- execution ---------------------------------------------------------
    def _resolved_params(self, workload_name: str, params: dict[str, Any]) -> dict[str, Any]:
        """Fold ``nodes``/``processes_per_node`` into accepting workloads."""
        workload = get_workload(workload_name)
        try:
            accepts = inspect.signature(workload).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            return params
        resolved = dict(params)
        if "n_nodes" in accepts and "n_nodes" not in resolved:
            resolved["n_nodes"] = self.nodes
        if (
            "processes_per_node" in accepts
            and "processes_per_node" not in resolved
            and self.processes_per_node != 1
        ):
            resolved["processes_per_node"] = self.processes_per_node
        return resolved

    def run(self, workload: str, **params: Any) -> ExperimentRun:
        """Execute one registered workload and return its measurements."""
        resolved_params = self._resolved_params(workload, params)
        fn = get_workload(workload)
        if self.trace:
            from repro.trace import trace_session

            with trace_session() as session:
                measurements = fn(self.config, **resolved_params)
            trace_summary = session.summary()
        else:
            measurements = fn(self.config, **resolved_params)
            trace_summary = None
        return ExperimentRun(
            workload=workload,
            params=resolved_params,
            config=self.config,
            measurements=measurements,
            trace_summary=trace_summary,
        )

    def analyze(
        self,
        workload: str,
        what: str = "latency-tolerance",
        msg_id: Any = None,
        **params: Any,
    ) -> Any:
        """Run one workload traced and analyse the recorded spans.

        ``what`` selects the analysis (same registry as ``python -m
        repro analyze``): ``"latency-tolerance"`` returns a
        :class:`repro.analysis.latency_tolerance.LatencyToleranceReport`,
        ``"critical-path"`` the
        :class:`~repro.core.breakdown.Breakdown` of ``msg_id`` (or the
        last complete message), ``"recovery"`` the fault/recovery event
        counts.  Tracing is forced on for the underlying run regardless
        of the experiment's ``trace`` flag.
        """
        from repro.cli import TRACE_ANALYSES
        from repro.trace import trace_session

        if what not in TRACE_ANALYSES:
            raise ValueError(
                f"unknown analysis {what!r}; registered: "
                f"{', '.join(TRACE_ANALYSES)}"
            )
        resolved_params = self._resolved_params(workload, params)
        fn = get_workload(workload)
        with trace_session() as session:
            fn(self.config, **resolved_params)
        spans = session.spans()
        if what == "latency-tolerance":
            from repro.analysis.latency_tolerance import latency_tolerance

            return latency_tolerance(spans, msg_id=msg_id)
        if what == "critical-path":
            from repro.trace import critical_path_breakdown, pick_breakdown_message

            chosen = msg_id if msg_id is not None else pick_breakdown_message(spans)
            if chosen is None:
                raise ValueError(
                    "no message with a complete forward path in the trace; "
                    "give msg_id"
                )
            return critical_path_breakdown(spans, chosen)
        from repro.trace import recovery_summary

        return recovery_summary(session.instants())

    def sweep(
        self,
        workload: str,
        axes: dict[str, Any] | list[SweepAxis] | tuple[SweepAxis, ...] = (),
        seeds: tuple[int, ...] | list[int] | None = None,
        jobs: int = 1,
        cache_dir: str | None = None,
        params: dict[str, Any] | None = None,
        **spec_kwargs: Any,
    ) -> CampaignResult:
        """Run a declarative campaign sweep of one workload.

        ``axes`` maps axis names (config dotted paths or workload
        parameters) to value tuples, or is a prebuilt
        :class:`SweepAxis` list.  Extra keyword arguments pass through
        to :class:`CampaignSpec` (``timeout_s``, ``retries``...).
        """
        if isinstance(axes, dict):
            axis_objects = tuple(
                SweepAxis(name, tuple(values)) for name, values in axes.items()
            )
        else:
            axis_objects = tuple(axes)
        spec = CampaignSpec(
            name=f"{self.name}-{workload}",
            workload=workload,
            base_config=self.config,
            axes=axis_objects,
            params=self._resolved_params(workload, dict(params or {})),
            seeds=tuple(seeds) if seeds else (self.config.seed,),
            trace=self.trace,
            **spec_kwargs,
        )
        return run_campaign(spec, jobs=jobs, cache_dir=cache_dir)

    def serve(
        self,
        store: str | Any,
        verify_fraction: float = 0.1,
        margin: float = 0.05,
        jobs: int = 1,
    ) -> "ServeTier":
        """A what-if serving tier over this experiment's config.

        The returned :class:`~repro.serve.service.ServeTier` answers
        queries from the content-addressed store at ``store``, from
        surrogates fitted via its :meth:`~repro.serve.service.ServeTier.fit`,
        and by simulation for everything else; a ``verify_fraction``
        sample of surrogate answers is re-simulated and checked to the
        ``margin`` (see :mod:`repro.serve`).  Campaigns pointed at the
        same ``cache_dir`` share the store.
        """
        from repro.serve.service import ServeTier
        from repro.serve.verify import SampledVerifier

        return ServeTier(
            store,
            base_config=self.config,
            verifier=SampledVerifier(fraction=verify_fraction, margin=margin),
            jobs=jobs,
        )

    def query(
        self,
        store: str | Any,
        workload: str,
        config_overrides: dict[str, Any] | None = None,
        **params: Any,
    ) -> "Answer":
        """One-shot what-if: serve ``workload`` through a throwaway tier.

        Convenience for scripts that want a single answer without
        managing a :class:`~repro.serve.service.ServeTier`; repeated
        queries against the same ``store`` directory still hit the
        content-addressed results of earlier ones.
        """
        tier = self.serve(store)
        return tier.query(
            workload,
            self._resolved_params(workload, dict(params)),
            config_overrides or {},
            seed=self.config.seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        topo = self.config.network.topology
        return (
            f"<Experiment {self.name!r} nodes={self.nodes} "
            f"topology={topo.kind if topo else 'point-to-point'} "
            f"config={self.config.stable_hash()}>"
        )
