"""Collective algorithms over the simulated MPI stack.

The paper breaks down one point-to-point message; collectives are where
those per-message overheads compound — every allreduce step pays the
full HLP/LLP/PCIe/network critical path again.  This package runs the
classic algorithms (ring and recursive-doubling allreduce, binomial
tree broadcast, dissemination barrier) across an N-node
:class:`~repro.node.cluster.Cluster`, over either the point-to-point
fabric or a routed, contended topology (see
:mod:`repro.network.topology`).

Each algorithm returns a :class:`CollectiveResult`; the matching
analytic predictions built from the paper's per-message latency
components live in :mod:`repro.collectives.model`.

:func:`run_collective` is the single entry point — op name plus
``algorithm=`` and ``offload=`` keywords — and is what the workloads,
:meth:`repro.api.Experiment.run` and the CLI call.  ``offload="nic"``
selects the NIC-resident barrier/broadcast from
:mod:`repro.collectives.offload`, which run their interior hops
entirely on the adapters.

Quickstart::

    from repro.api import Experiment

    exp = Experiment(nodes=64, topology="fat_tree:4", deterministic=True)
    run = exp.run("allreduce", algorithm="ring", payload_bytes=8)
    print(run.measurements["time_per_iteration_ns"])
"""

from repro.collectives.algorithms import CollectiveResult, run_collective
from repro.collectives.model import (
    path_end_to_end_ns,
    predicted_barrier_ns,
    predicted_nic_barrier_ns,
    predicted_nic_tree_broadcast_ns,
    predicted_recursive_doubling_ns,
    predicted_ring_allreduce_ns,
    predicted_tree_broadcast_ns,
)

__all__ = [
    "CollectiveResult",
    "path_end_to_end_ns",
    "predicted_barrier_ns",
    "predicted_nic_barrier_ns",
    "predicted_nic_tree_broadcast_ns",
    "predicted_recursive_doubling_ns",
    "predicted_ring_allreduce_ns",
    "predicted_tree_broadcast_ns",
    "run_collective",
]
