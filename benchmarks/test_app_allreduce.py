"""Application kernel — ring allreduce across cluster sizes.

The §6 end-to-end latency model composed over 2(N−1) lockstep ring
steps predicts the collective's time within 2% at every cluster size —
the multi-node payoff of the paper's single-link breakdown.
"""

import pytest
from conftest import write_report

from repro.collectives import predicted_ring_allreduce_ns, run_collective
from repro.node import SystemConfig
from repro.node.cluster import Cluster

SIZES = (2, 4, 8, 16)
REDUCE_NS = 20.0
ITERATIONS = 5


def run_sweep():
    config = SystemConfig.paper_testbed(deterministic=True)
    return [
        run_collective(
            "allreduce",
            Cluster(n, config=config),
            algorithm="ring",
            iterations=ITERATIONS,
            reduce_compute_ns=REDUCE_NS,
        )
        for n in SIZES
    ]


def test_ring_allreduce_scaling(benchmark, report_dir):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = [
        f"{'nodes':>6} {'steps':>6} {'simulated (ns)':>15} {'model (ns)':>12} {'err':>6}"
    ]
    for result in results:
        model = predicted_ring_allreduce_ns(
            result.n_nodes,
            result.cluster.config,
            result.cluster.topology,
            reduce_compute_ns=REDUCE_NS,
        )
        error = abs(result.time_per_iteration_ns - model) / model
        lines.append(
            f"{result.n_nodes:>6} {result.steps:>6} "
            f"{result.time_per_iteration_ns:>15.1f} {model:>12.1f} {error:>5.1%}"
        )
    write_report(report_dir, "app_allreduce", "\n".join(lines))

    for result in results:
        model = predicted_ring_allreduce_ns(
            result.n_nodes,
            result.cluster.config,
            result.cluster.topology,
            reduce_compute_ns=REDUCE_NS,
        )
        assert result.time_per_iteration_ns == pytest.approx(model, rel=0.02)
