"""Application kernels — stencil halo exchange and GUPS random access.

The paper's motivating workloads, run over the full simulated stack.
The stencil verifies the §7 linear-speedup claim at application level;
the GUPS kernel shows per-core injection composing to aggregate
fine-grained throughput.
"""

import pytest
from conftest import write_report

from repro.node import SystemConfig
from repro.traffic.workloads import halo_workload, run_random_access

DET = SystemConfig.paper_testbed(deterministic=True)


def run_stencil_pair():
    switched = halo_workload(DET, n_nodes=2, iterations=150)
    direct = halo_workload(
        SystemConfig.paper_testbed_direct(deterministic=True), n_nodes=2, iterations=150
    )
    return switched, direct


def test_stencil_linear_speedup(benchmark, report_dir):
    switched, direct = benchmark.pedantic(run_stencil_pair, rounds=1, iterations=1)
    saving = switched["comm_ns_per_iteration"] - direct["comm_ns_per_iteration"]
    report = "\n".join(
        [
            f"halo exchange with switch:    {switched['comm_ns_per_iteration']:8.2f} "
            f"ns/iter (comm fraction {switched['comm_fraction']:.1%})",
            f"halo exchange without switch: {direct['comm_ns_per_iteration']:8.2f} "
            "ns/iter",
            f"application-level saving:     {saving:8.2f} ns "
            "(Figure 17d predicts 108 ns for the removed hop)",
        ]
    )
    write_report(report_dir, "app_stencil", report)
    # §7: "exactly the same linear speedups".
    assert saving == pytest.approx(108.0, abs=10.0)


def test_gups_random_access(benchmark, report_dir):
    result = benchmark.pedantic(
        run_random_access,
        kwargs=dict(n_cores=8, config=DET, updates_per_core=200),
        rounds=1,
        iterations=1,
    )
    report = "\n".join(
        [
            f"cores:              {result.n_cores}",
            f"updates:            {result.updates} × {result.update_bytes} B",
            f"aggregate rate:     {result.gups * 1e3:.3f} M updates/s",
            f"NIC-observed rate:  {result.nic_gups * 1e3:.3f} M updates/s",
            f"credit stalls:      {result.credit_stalls}",
        ]
    )
    write_report(report_dir, "app_gups", report)
    # Eight independent cores at the Eq. 1 pace.
    expected = 8 / 295.73  # updates per ns → GUPS ≈ 0.027
    assert result.gups == pytest.approx(expected, rel=0.06)
    assert result.credit_stalls == 0
