"""The unified ``run_collective`` surface and its golden defaults.

Two contracts pinned here:

* **dispatch** — one entry point covering (op, algorithm, offload),
  with exit-with-registered-list errors;
* **bit-identity** — the host algorithms behind the new surface produce
  *exactly* the pre-redesign timelines (golden totals captured before
  ``run_collective`` existed), so the API redesign is provably
  behaviour-preserving at defaults.
"""

import pytest

import repro.collectives as collectives
from repro.collectives import run_collective
from repro.collectives.workloads import (
    allreduce_workload,
    barrier_workload,
    bcast_workload,
)
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig

DET = SystemConfig.paper_testbed(deterministic=True)

#: Golden end-to-end totals captured from the host algorithms BEFORE
#: the run_collective redesign (deterministic paper testbed).  Exact
#: equality: the refactor must not move a single event.
GOLDEN_TOTALS = {
    ("barrier", 4, None, 1): 2752.7800000000007,
    ("bcast", 4, None, 1): 2769.6700000000014,
    ("barrier", 8, "fat_tree:4", 2): 18447.41999999981,
    ("bcast", 8, "fat_tree:4", 2): 10196.46999999991,
    ("allreduce", 8, "fat_tree:4", 2): 79443.56000000122,
}

WORKLOADS = {
    "barrier": barrier_workload,
    "bcast": bcast_workload,
    "allreduce": allreduce_workload,
}


class TestGoldenDefaults:
    @pytest.mark.parametrize("key", sorted(GOLDEN_TOTALS, key=str))
    def test_host_defaults_are_bit_identical_to_pre_redesign(self, key):
        op, n_nodes, topology, iterations = key
        result = WORKLOADS[op](
            DET, n_nodes=n_nodes, topology=topology, iterations=iterations
        )
        assert result["total_ns"] == GOLDEN_TOTALS[key]
        assert result["offload"] == "host"


class TestDispatch:
    def test_unknown_op_lists_registered(self):
        with pytest.raises(ValueError, match=r"registered: allreduce, barrier, bcast"):
            run_collective("gather", Cluster(4, config=DET))

    def test_unknown_offload(self):
        with pytest.raises(ValueError, match=r"choose 'host' or 'nic'"):
            run_collective("barrier", Cluster(4, config=DET), offload="fpga")

    def test_unknown_algorithm_lists_registered(self):
        with pytest.raises(ValueError, match="registered"):
            run_collective("allreduce", Cluster(4, config=DET), algorithm="nope")

    def test_allreduce_has_no_nic_variant(self):
        with pytest.raises(ValueError, match="no offload='nic'"):
            run_collective("allreduce", Cluster(4, config=DET), offload="nic")

    def test_nic_offload_reaches_the_offload_impl(self):
        result = run_collective("barrier", Cluster(4, config=DET), offload="nic")
        assert result.offload == "nic"

    def test_workloads_route_through_dispatch(self):
        with pytest.raises(ValueError, match="no offload='nic'"):
            allreduce_workload(DET, n_nodes=4, offload="nic")


class TestPublicSurface:
    """Pin the package's ``__all__`` so the surface changes deliberately."""

    EXPECTED = [
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

    def test_all_is_exactly_the_curated_surface(self):
        assert list(collectives.__all__) == self.EXPECTED

    def test_every_name_resolves(self):
        for name in collectives.__all__:
            assert hasattr(collectives, name)
