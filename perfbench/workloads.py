"""The benchmark's four workloads, generated from one seed.

A workload is a closed loop: one client, in one process, asks its
questions one after another.  :func:`plan` turns ``(name, seed, size)``
into a :class:`Plan`; ``plan.setup()`` does everything before the first
timed question (configs, ``Cluster``/``Testbed`` builds, surrogate fit)
and returns the round's state, and ``plan.questions(state)`` lists the
questions to time.  Every config seed and query stream derives from the
seed argument; the simulator receives only the generated inputs.

Each question returns an :class:`Answer`: the simulated-time outputs
that go into the workload digest, the model comparisons behind
``model_error_max_pct`` and any broken invariant.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis import measure_component_times
from repro.bench.perftest import run_put_bw
from repro.collectives import model, run_collective
from repro.core.models import (
    EndToEndLatencyModel,
    InjectionModelLlp,
    LatencyModelLlp,
    OverallInjectionModel,
)
from repro.network.topology import TopologySpec
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig
from repro.serve import Query, SampledVerifier, ServeTier

NAMES = ("p2p_breakdown", "allreduce_spin", "nic_offload", "serve_mix")
SIZES = ("full", "tiny")


@dataclass
class Answer:
    """What one question produced."""

    #: Simulated-time outputs (virtual ns, counts, labels) for the digest.
    outputs: dict[str, Any]
    #: (model name, simulated, model) triples in simulated ns.
    models: list[tuple[str, float, float]] = field(default_factory=list)
    #: Broken invariants; any entry fails the answer.
    broken: list[str] = field(default_factory=list)


@dataclass
class Question:
    name: str
    ask: Callable[[], Answer]


@dataclass
class Plan:
    """A seeded workload: set-up plus its questions."""

    name: str
    seed: int
    size: str
    setup: Callable[[], Any]
    questions: Callable[[Any], list[Question]]
    #: Called with the round's state after its last question.
    teardown: Callable[[Any], None] = lambda state: None
    #: Benchmark-side counters a round fills in (serve tier statistics,
    #: fast-forward engagement).
    stats: dict[str, float] = field(default_factory=dict)


def digest(value: Any) -> str:
    """SHA-256 of ``value`` with every float spelled exactly (``float.hex``)."""
    return hashlib.sha256(
        json.dumps(_canonical(value), sort_keys=True).encode()
    ).hexdigest()


def _canonical(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if dataclasses.is_dataclass(value):
        return _canonical(dataclasses.asdict(value))
    if hasattr(value, "item"):  # numpy scalar
        return _canonical(value.item())
    raise TypeError(f"cannot digest {type(value).__name__}")


def _on(config: SystemConfig, topology: str) -> SystemConfig:
    spec = TopologySpec.parse(topology)
    return config.evolve(network=dataclasses.replace(config.network, topology=spec))


# -- p2p_breakdown ------------------------------------------------------------

def _p2p(seed: int, size: str, plan: Plan) -> None:
    config = SystemConfig.paper_testbed(seed=seed)
    n_messages = 100_000 if size == "full" else 2_000

    def setup() -> dict[str, Any]:
        # Both questions build their own testbeds, so set-up is the config.
        return {}

    def campaign(state: dict[str, Any]) -> Answer:
        result = measure_component_times(config, quick=True)
        times = result.to_component_times()
        state["times"] = times
        observed = result.observed
        checks = [
            ("llp_injection_eq1", observed.get("llp_injection_overhead"),
             InjectionModelLlp(times).predicted_ns),
            ("llp_latency_s4.3", observed.get("llp_latency"),
             LatencyModelLlp(times).predicted_ns),
            ("overall_injection_eq2", observed.get("overall_injection_overhead"),
             OverallInjectionModel(times).predicted_ns),
            ("end_to_end_s6", observed.get("end_to_end_latency"),
             EndToEndLatencyModel(times).predicted_ns),
        ]
        broken = [f"validation {name} did not run" for name, sim, _ in checks
                  if sim is None or not sim > 0]
        return Answer(
            outputs={
                "llp": result.llp, "hlp": result.hlp,
                "hardware": result.hardware,
                "send_progress": result.send_progress,
                "observed": observed,
                "injection": result.injection_distribution,
            },
            models=[c for c in checks if c[1] is not None],
            broken=broken,
        )

    def put_bw(state: dict[str, Any]) -> Answer:
        result = run_put_bw(config=config.evolve(seed=seed + 1), n_messages=n_messages)
        # Fast-forward installs its synthesized end state on a testbed whose
        # calendar never runs an entry; a replayed run executes them all.
        env = result.testbed.env
        engaged = env.events_executed == 0 and env.events_fast_forwarded > 0
        plan.stats["ff_runs"] = plan.stats.get("ff_runs", 0) + 1
        plan.stats["ff_engaged"] = plan.stats.get("ff_engaged", 0) + engaged
        broken = []
        if result.n_measured != n_messages or len(result.messages) < n_messages:
            broken.append(
                f"put_bw measured {len(result.messages)} of {n_messages} messages"
            )
        # The NIC-side series spans every measured arrival; the arrival
        # of the last warm-up post can land inside the window as well.
        if len(result.observed_injection_overheads_ns) < n_messages - 1:
            broken.append("put_bw injection-overhead series is incomplete")
        times = state.get("times")
        if times is None:
            broken.append("no component times to validate put_bw against")
            models = []
        else:
            models = [("put_bw_injection_eq1", result.mean_injection_overhead_ns,
                       InjectionModelLlp(times).predicted_ns)]
        return Answer(
            outputs={
                "total_ns": result.total_ns,
                "busy_posts": result.busy_posts,
                "mean_injection_ns": result.mean_injection_overhead_ns,
                "median_injection_ns": result.median_injection_overhead_ns,
            },
            models=models,
            broken=broken,
        )

    def questions(state: dict[str, Any]) -> list[Question]:
        return [
            Question("campaign", lambda: campaign(state)),
            Question("put_bw", lambda: put_bw(state)),
        ]

    plan.setup, plan.questions = setup, questions


# -- allreduce_spin and nic_offload --------------------------------------------

#: (question, op, algorithm, offload, ranks, topology) per workload and size.
_COLLECTIVES = {
    ("allreduce_spin", "full"): [
        ("allreduce_rd_64", "allreduce", "recursive_doubling", "host", 64, "fat_tree:8"),
        ("allreduce_rd_128", "allreduce", "recursive_doubling", "host", 128, "fat_tree:8"),
        ("allreduce_rd_256", "allreduce", "recursive_doubling", "host", 256, "fat_tree:16"),
        ("barrier_64", "barrier", None, "host", 64, "fat_tree:8"),
    ],
    ("allreduce_spin", "tiny"): [
        ("allreduce_rd_8", "allreduce", "recursive_doubling", "host", 8, "fat_tree:4"),
        ("barrier_8", "barrier", None, "host", 8, "fat_tree:4"),
    ],
    ("nic_offload", "full"): [
        ("nic_barrier_1024", "barrier", None, "nic", 1024, "fat_tree:16"),
        ("nic_bcast_1024", "bcast", None, "nic", 1024, "fat_tree:16"),
    ],
    ("nic_offload", "tiny"): [
        ("nic_barrier_16", "barrier", None, "nic", 16, "fat_tree:4"),
        ("nic_bcast_16", "bcast", None, "nic", 16, "fat_tree:4"),
    ],
}


def _predicted_ns(op: str, offload: str, ranks: int, config: SystemConfig,
                  cluster: Cluster) -> float:
    topology = cluster.topology
    if op == "allreduce":
        return model.predicted_recursive_doubling_ns(ranks, config, topology)
    if op == "barrier" and offload == "nic":
        return model.predicted_nic_barrier_ns(ranks, config, topology)
    if op == "barrier":
        return model.predicted_barrier_ns(ranks, config, topology)
    return model.predicted_nic_tree_broadcast_ns(ranks, config, topology)


def _collectives(seed: int, size: str, plan: Plan) -> None:
    specs = _COLLECTIVES[(plan.name, size)]
    base = SystemConfig.paper_testbed(seed=seed)

    def setup() -> list[tuple[Any, SystemConfig, Cluster]]:
        built = []
        for spec in specs:
            config = _on(base, spec[5])
            built.append((spec, config, Cluster(spec[4], config=config)))
        return built

    def ask(spec: tuple, config: SystemConfig, cluster: Cluster) -> Answer:
        name, op, algorithm, offload, ranks, _ = spec
        result = run_collective(op, cluster, algorithm=algorithm, offload=offload,
                                iterations=1)
        # The model reads routes from the cluster's topology; evaluating it
        # after the run leaves route computation inside the simulation.
        predicted = _predicted_ns(op, offload, ranks, config, cluster)
        expected_steps = math.ceil(math.log2(ranks))
        broken = []
        if result.steps != expected_steps or result.n_nodes != ranks:
            broken.append(f"{name}: {result.steps} steps over {result.n_nodes} ranks, "
                          f"expected {expected_steps} over {ranks}")
        if not result.total_ns > 0:
            broken.append(f"{name}: finished at t={result.total_ns}")
        return Answer(
            outputs={"total_ns": result.total_ns, "steps": result.steps,
                     "now_ns": cluster.env.now},
            models=[(name, result.time_per_iteration_ns, predicted)],
            broken=broken,
        )

    def questions(built: list) -> list[Question]:
        return [Question(spec[0], lambda b=(spec, config, cluster): ask(*b))
                for spec, config, cluster in built]

    plan.setup, plan.questions = setup, questions


# -- serve_mix -------------------------------------------------------------------

#: Fitted surrogate: one-way put latency over payload × switch hops.
_FIT_AXES = {
    "full": {"payload_bytes": (1024, 2048, 4096), "network.switch_count": (1, 2, 3)},
    "tiny": {"payload_bytes": (1024, 4096), "network.switch_count": (1, 3)},
}
#: Blocks per round.  A block is the five query shapes of the repo's
#: recorded query file, ``examples/serve_queries.json``, redrawn from the
#: seed: a fit grid point, two in-envelope points and two new points
#: outside the envelope (its cold run answers 20% from the store, 40%
#: from the surrogate, 40% by simulation).
_BLOCKS = {"full": 80, "tiny": 2}
_WORKLOAD = "put_oneway_latency"
#: The example's below-envelope query also deepens the NIC transmit queue.
_TXQ_DEPTH = 4


def _query_stream(seed: int, size: str) -> list[tuple[str, Query]]:
    """The seeded query stream, block by block in the example's order.

    ``grid`` re-asks a fitted grid point at the default switch count (a
    store read; the example's 1024 B query), ``in`` and ``in_hops`` are
    fresh in-envelope payloads at the default and at an overridden switch
    count (surrogate answers; 1536 B, and 3072 B over 2 switches), and
    ``above`` and ``below_txq`` are fresh payloads above the envelope and
    below it with ``nic.txq_depth`` = 4 (simulated, then written to the
    store; 8192 B, and 64 B at depth 4).
    """
    rng = random.Random(seed)
    axes = _FIT_AXES[size]
    payloads, hops = axes["payload_bytes"], axes["network.switch_count"]
    low, high = min(payloads), max(payloads)
    fit_seeds = _fit_seeds(seed)
    seen: set[tuple[Any, ...]] = set()

    def fresh(params: dict[str, int]) -> Query:
        while True:
            query_seed = rng.randrange(2**31)
            key = (*sorted(params.items()), query_seed)
            if key not in seen:
                seen.add(key)
                return Query(_WORKLOAD, dict(params), seed=query_seed)

    def in_envelope() -> int:
        # Whole 256 B steps: the one-way latency is flat across them, so
        # the surrogate's error is the seed's noise alone and stays inside
        # the verifier's margin.
        return 256 * rng.randint(low // 256, high // 256)

    stream = []
    for _ in range(_BLOCKS[size]):
        stream += [
            ("grid", Query(_WORKLOAD, {"payload_bytes": rng.choice(payloads)},
                           seed=rng.choice(fit_seeds))),
            ("in", fresh({"payload_bytes": in_envelope()})),
            ("in_hops", fresh({"payload_bytes": in_envelope(),
                               "network.switch_count": rng.choice(hops[1:])})),
            ("above", fresh({"payload_bytes": rng.randint(high + 16, 2 * high)})),
            ("below_txq", fresh({"payload_bytes": rng.randint(16, low - 16),
                                 "nic.txq_depth": _TXQ_DEPTH})),
        ]
    return stream


def _fit_seeds(seed: int) -> tuple[int, ...]:
    return tuple(random.Random(seed ^ 0x5EED).randrange(2**31) for _ in range(3))


def _serve(seed: int, size: str, plan: Plan, work_dir: Path) -> None:
    base = SystemConfig.paper_testbed(seed=seed)
    stream = _query_stream(seed, size)
    expected = {"grid": "store", "in": "surrogate", "in_hops": "surrogate",
                "above": "simulation", "below_txq": "simulation"}
    rounds = itertools.count()

    def setup() -> ServeTier:
        store = work_dir / f"store-{seed}-{next(rounds)}"
        shutil.rmtree(store, ignore_errors=True)
        tier = ServeTier(store, base_config=base,
                         verifier=SampledVerifier(fraction=0.1))
        axes, seeds = _FIT_AXES[size], _fit_seeds(seed)
        start = time.perf_counter()
        tier.fit(_WORKLOAD, axes={k: list(v) for k, v in axes.items()}, seeds=seeds)
        plan.stats["fit_s"] = time.perf_counter() - start
        # A fresh store: the fit's campaign simulates every grid point.
        plan.stats["fit_points"] = math.prod(map(len, axes.values())) * len(seeds)
        return tier

    def ask(tier: ServeTier, kind: str, query: Query) -> Answer:
        answer = tier.query(query)
        models = []
        if answer.verification is not None:
            models = [(f"verify:{metric}", simulated, predicted)
                      for metric, (predicted, simulated)
                      in answer.verification.compared.items()]
        allowed = {expected[kind]}
        if expected[kind] == "surrogate" and any(s.quarantined for s in tier.surrogates):
            # A failed audit quarantines the surrogate (a rare noise outlier
            # in the one-shot simulation can do it); from then on the tier
            # correctly falls back to simulating in-envelope points.
            allowed.add("simulation")
        broken = []
        if not answer.ok:
            broken.append(f"serve answer failed: {answer.error}")
        elif answer.source not in allowed:
            broken.append(f"{kind} query answered from {answer.source}, "
                          f"expected {' or '.join(sorted(allowed))}")
        return Answer(
            outputs={"source": answer.source, "measurements": answer.measurements},
            models=models,
            broken=broken,
        )

    def questions(tier: ServeTier) -> list[Question]:
        return [Question(f"{kind}:{query.params['payload_bytes']}",
                         lambda q=query, k=kind: ask(tier, k, q))
                for kind, query in stream]

    def teardown(tier: ServeTier) -> None:
        counters = tier.counters
        plan.stats.update(
            queries=counters["queries"],
            surrogate_hits=counters["surrogate_hits"],
            simulations=counters["simulations"],
        )
        shutil.rmtree(tier.store.directory, ignore_errors=True)

    plan.setup, plan.questions, plan.teardown = setup, questions, teardown


def plan(name: str, seed: int, size: str = "full", work_dir: Path | None = None) -> Plan:
    """The seeded :class:`Plan` of workload ``name``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    built = Plan(name, seed, size, setup=lambda: None, questions=lambda state: [])
    if name == "p2p_breakdown":
        _p2p(seed, size, built)
    elif name == "serve_mix":
        if work_dir is None:
            raise ValueError("serve_mix needs a work directory for its stores")
        _serve(seed, size, built, work_dir)
    else:
        _collectives(seed, size, built)
    return built
