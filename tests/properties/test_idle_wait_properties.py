"""Differential property: parked MPI waits are bit-identical to spinning.

An untraced collective parks its ranks' empty progress passes on the
callback tier (``UcpWorker.progress_until``); a traced run declines to
park, so every pass runs on the process tier and serves as the
reference.  Across random scenarios — ranks, processes per node, rails,
topology, operation, seed, noise on or off, and a small TxQ that leaves
busy-posted sends pending — the two runs must agree bit for bit on
every observable the idle chain touches: completion time, the clock,
each core's accounts, busy time and RNG state, and the UCT pass
counters.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import algorithms, run_collective
from repro.hlp.mpi import MpiStack
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig
from repro.trace import trace_session

#: (op, algorithm) pairs run by the host MPI stack.
_HOST_OPS = (
    ("allreduce", "ring"),
    ("allreduce", "recursive_doubling"),
    ("bcast", "binomial_tree"),
    ("barrier", "dissemination"),
)
_TOPOLOGIES = (None, "fat_tree:4", "ring")
#: Simulated ns after which a run is cut, so that a run which never
#: finishes (before ranks flushed their busy-posted sends at exit, a
#: shallow TxQ could leave a partner spinning forever) is still compared
#: at the cut rather than hanging the suite.
_HORIZON_NS = 200_000.0


class _Cut(Exception):
    """Raised on the calendar at the horizon."""


def _cut() -> None:
    raise _Cut


@st.composite
def scenarios(draw):
    op, algorithm = draw(st.sampled_from(_HOST_OPS))
    ppn = draw(st.sampled_from((1, 2, 4)))
    if algorithm == "recursive_doubling":
        n_nodes = draw(st.sampled_from((2, 4)))
    else:
        n_nodes = draw(st.integers(2, 4))
    txq_depth = draw(st.sampled_from((1, 2, 4, 64)))
    return {
        "op": op,
        "algorithm": algorithm,
        "n_nodes": n_nodes,
        "ppn": ppn,
        "rails": draw(st.sampled_from((1, 2))),
        "topology": draw(st.sampled_from(_TOPOLOGIES)),
        "seed": draw(st.integers(0, 2**16)),
        "deterministic": draw(st.booleans()),
        "txq_depth": txq_depth,
        # A period above the TxQ depth never signals a completion
        # before the queue fills, so posts would busy-loop forever.
        "signal_period": draw(st.sampled_from((1, txq_depth))),
        "iterations": 1,
    }


def _run(scenario):
    """One run; returns its observables and its UCP workers."""
    config = (
        SystemConfig.builder()
        .seed(scenario["seed"])
        .deterministic(scenario["deterministic"])
        .topology(scenario["topology"])
        .transport(rails=scenario["rails"])
        .nic(txq_depth=scenario["txq_depth"])
        .build()
    )
    stacks = []

    class RecordedStack(MpiStack):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stacks.append(self)

    cluster = Cluster(
        scenario["n_nodes"], config=config,
        processes_per_node=scenario["ppn"],
    )
    cluster.env.defer_at(_cut, _HORIZON_NS)
    with mock.patch.object(algorithms, "MpiStack", RecordedStack):
        try:
            total_ns = run_collective(
                scenario["op"], cluster, algorithm=scenario["algorithm"],
                iterations=scenario["iterations"],
                signal_period=scenario["signal_period"],
            ).total_ns.hex()
        except _Cut:
            total_ns = None
    cores = {
        core.name: (
            {name: (acc.count, acc.total_ns) for name, acc in core.accounts.items()},
            core.busy_ns,
            core.rng.bit_generator.state,
        )
        for node in cluster.nodes
        for core in node.cores
    }
    workers = [
        (stack.ucp.uct_worker.progress_calls, stack.ucp.uct_worker.empty_progress_calls)
        for stack in stacks
    ]
    observed = {
        "total_ns": total_ns,
        "now": cluster.env.now.hex(),
        "cores": cores,
        "workers": workers,
    }
    return observed, [stack.ucp for stack in stacks]


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_parked_waits_match_the_traced_reference(scenario):
    with trace_session():
        reference, traced_workers = _run(scenario)
    observed, workers = _run(scenario)

    assert observed == reference
    # The reference really ran every pass on the process tier...
    assert sum(worker.parks for worker in traced_workers) == 0
    # ...and the run under test never fell back.
    assert all(not worker.park_declines for worker in workers)
