"""Traffic runners: pattern driving, stats lifecycle, campaign wrappers."""

import pytest

from repro.campaign.workloads import get_workload, workload_names
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig
from repro.traffic.patterns import permutation_pattern
from repro.traffic.workloads import run_pattern, run_pserver

DET = SystemConfig.builder().deterministic().build()


class TestRunPattern:
    def test_permutation_round_trip(self):
        cluster = Cluster(2, config=DET)
        result = run_pattern(cluster, permutation_pattern(2), messages_per_pair=4)
        assert result["n_ranks"] == 2
        assert result["flows"] == 2
        assert result["messages"] == 8
        assert result["total_ns"] > 0
        assert result["message_rate_per_s"] > 0
        assert result["link_total_frames"] > 0

    def test_validation(self):
        cluster = Cluster(2, config=DET)
        with pytest.raises(ValueError, match="bad pair"):
            run_pattern(cluster, [(0, 0)])
        with pytest.raises(ValueError, match="bad pair"):
            run_pattern(cluster, [(0, 5)])
        with pytest.raises(ValueError, match="messages_per_pair"):
            run_pattern(cluster, [(0, 1)], messages_per_pair=0)

    def test_bursty_gaps_stretch_the_run(self):
        smooth = run_pattern(
            Cluster(2, config=DET), permutation_pattern(2), messages_per_pair=8
        )
        bursty = run_pattern(
            Cluster(2, config=DET),
            permutation_pattern(2),
            messages_per_pair=8,
            burst_len=2,
            gap_ns=5000.0,
        )
        # Three gaps land inside the run (after rounds 2, 4 and 6).
        assert bursty["total_ns"] >= smooth["total_ns"] + 3 * 5000.0

    def test_deterministic_repeat_in_fresh_clusters(self):
        first = run_pattern(
            Cluster(2, config=DET), permutation_pattern(2), messages_per_pair=4
        )
        second = run_pattern(
            Cluster(2, config=DET), permutation_pattern(2), messages_per_pair=4
        )
        assert first["total_ns"] == second["total_ns"]
        assert first["link_stats"] == second["link_stats"]


class TestLinkStatsLifecycle:
    """Satellite: back-to-back runs on one cluster do not bleed stats."""

    def test_reset_between_runs_scopes_each_snapshot(self):
        cluster = Cluster(2, config=DET)
        first = run_pattern(cluster, permutation_pattern(2), messages_per_pair=4)
        second = run_pattern(cluster, permutation_pattern(2), messages_per_pair=4)
        for key, entry in first["link_stats"].items():
            assert second["link_stats"][key]["frames"] == entry["frames"], key
        assert second["link_total_frames"] == first["link_total_frames"]

    def test_reset_stats_zeroes_wires_and_fabric_totals(self):
        cluster = Cluster(2, config=DET)
        run_pattern(cluster, permutation_pattern(2), messages_per_pair=2)
        assert any(
            entry["frames"] for entry in cluster.fabric.link_stats().values()
        )
        cluster.fabric.reset_stats()
        for entry in cluster.fabric.link_stats().values():
            assert entry["frames"] == 0
            assert entry["busy_ns"] == 0.0
        assert cluster.fabric.frames_delivered == 0
        assert cluster.fabric.acks_delivered == 0

    def test_snapshot_is_a_copy(self):
        cluster = Cluster(2, config=DET)
        run_pattern(cluster, permutation_pattern(2), messages_per_pair=2)
        snapshot = cluster.fabric.link_stats()
        key = next(iter(snapshot))
        snapshot[key]["frames"] = -1
        assert cluster.fabric.link_stats()[key]["frames"] != -1


class TestPserver:
    def test_push_pull_rounds(self):
        cluster = Cluster(3, config=DET)
        result = run_pserver(cluster, iterations=2)
        assert result["workers"] == 2
        assert result["iterations"] == 2
        assert result["total_ns"] > 0
        assert result["time_per_iteration_ns"] == result["total_ns"] / 2
        assert result["link_total_frames"] > 0

    def test_server_rank_validated(self):
        with pytest.raises(ValueError, match="server"):
            run_pserver(Cluster(3, config=DET), server=7)


class TestCampaignWrappers:
    def test_all_traffic_workloads_registered(self):
        names = workload_names()
        for name in (
            "traffic",
            "shuffle",
            "incast",
            "outcast",
            "halo",
            "stencil",
            "pserver",
            "randomaccess",
        ):
            assert name in names

    def test_shuffle_runs_all_to_all(self):
        result = get_workload("shuffle")(DET, n_nodes=3, messages_per_pair=1)
        assert result["pattern"] == "all_to_all"
        assert result["flows"] == 6
        assert result["messages"] == 6

    def test_incast_honours_hotspot(self):
        result = get_workload("incast")(DET, n_nodes=3, hotspot=1, messages_per_pair=1)
        assert result["pattern"] == "incast"
        assert result["flows"] == 2

    def test_halo_matches_direct_stencil_run(self):
        from repro.traffic.workloads import stencil_workload

        result = stencil_workload(DET, iterations=10)
        assert result["n_ranks"] == 2
        assert result["iterations"] == 10
        assert result["comm_ns_per_iteration"] > 0
        assert 0 < result["comm_fraction"] < 1

    def test_traffic_with_processes_per_node(self):
        result = get_workload("traffic")(
            DET,
            pattern="permutation",
            n_nodes=2,
            processes_per_node=2,
            messages_per_pair=1,
        )
        assert result["n_ranks"] == 4
        assert result["processes_per_node"] == 2

    def test_randomaccess_workload_measures_rates(self):
        result = get_workload("randomaccess")(
            DET, n_cores=2, updates_per_core=20
        )
        assert result["updates"] == 40
        assert result["gups"] > 0
        assert result["nic_gups"] > 0
