#!/usr/bin/env python
"""Multi-node extension: a ring allreduce, predicted from the paper's model.

The paper measures one link between two nodes.  Its end-to-end latency
model composes: a lockstep ring collective over N nodes takes
2(N−1) steps of one end-to-end latency each.  This example runs the
collective on simulated clusters of growing size and checks the
composed prediction — small-message latency is the whole story for
fine-grained collectives, which is why the paper's breakdown matters.

Run:  python examples/ring_allreduce.py
"""

from repro.collectives import run_collective
from repro.core.components import ComponentTimes
from repro.core.models import EndToEndLatencyModel
from repro.core.whatif import Metric, WhatIfAnalysis
from repro.node import Cluster, SystemConfig

REDUCE_NS = 20.0


def main() -> None:
    config = SystemConfig.paper_testbed(deterministic=True)
    e2e = EndToEndLatencyModel(ComponentTimes.paper()).predicted_ns
    print(f"{'nodes':>6} {'steps':>6} {'simulated (ns)':>15} "
          f"{'2(N-1)(L+c) model':>18} {'error':>7}")
    for n_nodes in (2, 3, 4, 8, 16):
        result = run_collective(
            "allreduce",
            Cluster(n_nodes, config=config),
            algorithm="ring",
            iterations=5,
            reduce_compute_ns=REDUCE_NS,
        )
        model = result.steps * (e2e + REDUCE_NS)
        error = abs(result.time_per_iteration_ns - model) / model
        print(f"{n_nodes:>6} {result.steps:>6} "
              f"{result.time_per_iteration_ns:>15.1f} {model:>18.1f} "
              f"{error:>6.1%}")

    # What would the §7.1 integrated NIC buy a 16-node allreduce?
    analysis = WhatIfAnalysis(ComponentTimes.paper())
    io = analysis.latency_io_components()["Integrated NIC"]
    speedup = analysis.speedup(Metric.LATENCY, io, 0.9)
    print(f"\nA 90% I/O reduction (integrated NIC) speeds each step — and"
          f"\ntherefore the whole collective — by {speedup * 100:.1f}%: the"
          f"\npaper's per-link what-if carries straight through to N-node"
          f"\ncollectives because the steps serialise.")


if __name__ == "__main__":
    main()
