"""Tests for the two-rank halo-exchange and GUPS app kernels (repro.traffic)."""

import pytest

from repro.node import SystemConfig
from repro.traffic.workloads import halo_workload, run_random_access

DET = SystemConfig.paper_testbed(deterministic=True)


class TestHaloExchange:
    @pytest.fixture(scope="class")
    def result(self):
        return halo_workload(DET, iterations=100, compute_ns=500.0)

    def test_comm_time_in_latency_ballpark(self, result):
        """One exchange ≈ one end-to-end latency (the send overlaps the
        receive wait): within 10% of the §6 model."""
        assert result["comm_ns_per_iteration"] == pytest.approx(1387.02, rel=0.10)

    def test_comm_fraction_consistent(self, result):
        expected = result["total_comm_ns"] / result["total_ns"]
        assert result["comm_fraction"] == pytest.approx(expected)
        assert 0.5 < result["comm_fraction"] < 0.9  # 500 ns compute vs ~1.4 µs comm

    def test_compute_heavy_run_lowers_comm_fraction(self):
        light = halo_workload(DET, iterations=50, compute_ns=100.0)
        heavy = halo_workload(DET, iterations=50, compute_ns=5000.0)
        assert heavy["comm_fraction"] < light["comm_fraction"]
        # Comm time itself is compute-independent (no overlap modelled).
        assert heavy["comm_ns_per_iteration"] == pytest.approx(
            light["comm_ns_per_iteration"], rel=0.02
        )

    def test_switch_removal_saves_one_hop(self):
        switched = halo_workload(DET, iterations=100)
        direct = halo_workload(
            SystemConfig.paper_testbed_direct(deterministic=True), iterations=100
        )
        saving = switched["comm_ns_per_iteration"] - direct["comm_ns_per_iteration"]
        # §7's linear-speedup claim at application level.
        assert saving == pytest.approx(108.0, abs=10.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            halo_workload(DET, iterations=0)
        with pytest.raises(ValueError):
            halo_workload(DET, compute_ns=-1.0)


class TestRandomAccess:
    def test_gups_scaling(self):
        one = run_random_access(n_cores=1, config=DET, updates_per_core=150)
        four = run_random_access(n_cores=4, config=DET, updates_per_core=150)
        assert four.gups == pytest.approx(4 * one.gups, rel=0.05)
        assert four.updates == 600
        assert one.credit_stalls == 0

    def test_per_core_rate_matches_injection_model(self):
        result = run_random_access(n_cores=2, config=DET, updates_per_core=200)
        # Per-core update interval ≈ the Eq. 1 injection overhead.
        interval = 1.0 / result.updates_per_core_per_s * 1e9
        assert interval == pytest.approx(295.73, rel=0.06)
