"""Collective algorithms vs their analytic models on the uniform fabric."""

import pytest

from repro.collectives import (
    predicted_barrier_ns,
    predicted_recursive_doubling_ns,
    predicted_ring_allreduce_ns,
    predicted_tree_broadcast_ns,
    run_collective,
)
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig

DET = SystemConfig.paper_testbed(deterministic=True)


class TestRingAllreduce:
    def test_matches_model_at_4_and_8_ranks(self):
        for n in (4, 8):
            result = run_collective(
                "allreduce", Cluster(n, config=DET), algorithm="ring", iterations=2
            )
            predicted = predicted_ring_allreduce_ns(n, DET, iterations=2)
            assert result.total_ns == pytest.approx(predicted, rel=0.02)
            assert result.steps == 2 * (n - 1)
            assert result.algorithm == "ring_allreduce"

    def test_result_properties(self):
        result = run_collective(
            "allreduce", Cluster(4, config=DET), algorithm="ring", iterations=5
        )
        assert result.time_per_iteration_ns == pytest.approx(result.total_ns / 5)
        assert result.time_per_step_ns == pytest.approx(
            result.time_per_iteration_ns / 6
        )

    def test_validation(self):
        cluster = Cluster(4, config=DET)
        with pytest.raises(ValueError):
            run_collective("allreduce", cluster, algorithm="ring", iterations=0)
        with pytest.raises(ValueError):
            run_collective("allreduce", cluster, algorithm="ring", reduce_compute_ns=-1.0)


    def test_four_ranks_per_node(self):
        # Ranks sharing a node once shared one AM and one CQ mailbox, so
        # a rank retired its neighbours' CQEs and the TxQ accounting broke.
        totals = []
        for _ in range(2):
            cluster = Cluster(2, config=DET, processes_per_node=4)
            result = run_collective("allreduce", cluster, iterations=1)
            assert result.n_nodes == 8
            assert result.steps == 14
            totals.append(result.total_ns)
        assert totals[0] == totals[1] > 0


class TestRecursiveDoubling:
    def test_matches_model(self):
        result = run_collective(
            "allreduce", Cluster(4, config=DET), algorithm="recursive_doubling"
        )
        predicted = predicted_recursive_doubling_ns(4, DET)
        assert result.total_ns == pytest.approx(predicted, rel=0.02)
        assert result.steps == 2  # log2(4) rounds

    def test_beats_ring_on_latency_at_8_ranks(self):
        # 3 rounds of log-algorithm vs 14 lockstep ring steps.
        rd = run_collective(
            "allreduce", Cluster(8, config=DET), algorithm="recursive_doubling"
        )
        ring = run_collective(
            "allreduce", Cluster(8, config=DET), algorithm="ring", iterations=1
        )
        assert rd.total_ns < ring.total_ns / 3

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            run_collective(
                "allreduce", Cluster(6, config=DET), algorithm="recursive_doubling"
            )
        with pytest.raises(ValueError):
            predicted_recursive_doubling_ns(6, DET)


class TestTreeBroadcast:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_single_shot_matches_model(self, n):
        result = run_collective("bcast", Cluster(n, config=DET), iterations=1)
        predicted = predicted_tree_broadcast_ns(n, DET)
        assert result.total_ns == pytest.approx(predicted, rel=0.02)

    def test_back_to_back_broadcasts_pipeline(self):
        # Leaves repost receives while the root still sends, so N
        # iterations finish in less than N single-shot latencies.
        single = predicted_tree_broadcast_ns(8, DET)
        result = run_collective("bcast", Cluster(8, config=DET), iterations=4)
        assert result.total_ns < 4 * single

    def test_nonzero_root(self):
        result = run_collective("bcast", Cluster(4, config=DET), root=2)
        predicted = predicted_tree_broadcast_ns(4, DET, root=2)
        assert result.total_ns == pytest.approx(predicted, rel=0.02)

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            run_collective("bcast", Cluster(4, config=DET), root=4)


class TestBarrier:
    @pytest.mark.parametrize("n", [4, 8])
    def test_matches_model(self, n):
        result = run_collective("barrier", Cluster(n, config=DET))
        predicted = predicted_barrier_ns(n, DET)
        assert result.total_ns == pytest.approx(predicted, rel=0.02)
        assert result.steps == (n - 1).bit_length()

    def test_non_power_of_two_rank_counts_work(self):
        result = run_collective("barrier", Cluster(5, config=DET))
        assert result.steps == 3
        assert result.total_ns == pytest.approx(
            predicted_barrier_ns(5, DET), rel=0.02
        )


class _Cut(Exception):
    """Raised on the calendar at the horizon."""


def _cut() -> None:
    raise _Cut


class TestShallowTxQ:
    """A TxQ of depth 1 busy-posts sends; every rank must still finish.

    Without the exit flush a rank could leave with a busy-posted send
    pending, and its peer would spin on that receive forever.
    """

    HORIZON_NS = 1_000_000.0

    @pytest.mark.parametrize(
        "algorithm,n_nodes,ppn,rails,topology",
        [
            ("ring", 8, 1, 1, "fat_tree:4"),
            ("recursive_doubling", 8, 2, 2, None),
        ],
    )
    def test_allreduce_finishes(self, algorithm, n_nodes, ppn, rails, topology):
        config = (
            SystemConfig.builder()
            .seed(0)
            .topology(topology)
            .transport(rails=rails)
            .nic(txq_depth=1)
            .build()
        )
        cluster = Cluster(n_nodes, config=config, processes_per_node=ppn)
        cluster.env.defer_at(_cut, self.HORIZON_NS)
        try:
            result = run_collective(
                "allreduce", cluster, algorithm=algorithm,
                iterations=4, signal_period=1,
            )
        except _Cut:
            pytest.fail(f"{algorithm} allreduce still running at the horizon")
        assert 0 < result.total_ns < self.HORIZON_NS
