"""Idle MPI waits on the callback tier (``UcpWorker.progress_until``).

Each scenario runs twice: traced, where every progress pass runs on the
process tier (the reference), and untraced, where empty passes park.
The two must agree bit for bit on the clock, the cores' accounts, busy
time and RNG state, and the UCT pass counters.
"""

from unittest import mock

from repro.collectives import algorithms, run_collective
from repro.hlp.mpi import MpiStack
from repro.llp.profiling import UcsProfiler
from repro.node.cluster import Cluster
from repro.node.config import SystemConfig
from repro.sim.engine import Environment
from repro.trace import trace_session
from repro.transport.shm import ShmTransport


def _config(**costs):
    builder = SystemConfig.builder().seed(7)
    if costs:
        builder = builder.costs(**costs)
    return builder


def _observe(cluster, stacks):
    cores = {
        core.name: (
            sorted((name, acc.count, acc.total_ns) for name, acc in core.accounts.items()),
            core.busy_ns,
            core.rng.bit_generator.state,
        )
        for node in cluster.nodes
        for core in node.cores
    }
    workers = [
        (s.ucp.uct_worker.progress_calls, s.ucp.uct_worker.empty_progress_calls)
        for s in stacks
    ]
    return cluster.env.now.hex(), cores, workers


def _late_message(builder, processes_per_node=1, regions=None):
    """Rank 1 computes for 2 us, then sends; rank 0 waits for it.

    ``regions``, when given, are the profiler regions rank 0 measures.
    """
    cluster = Cluster(2, config=builder.build(), processes_per_node=processes_per_node)
    profiler = None
    if regions is not None:
        profiler = UcsProfiler(cluster.node_for_rank(0).timer)
        profiler.enable_only(regions)
    stacks = [
        MpiStack(cluster.node_for_rank(0), profiler, core=cluster.core_for_rank(0)),
        MpiStack(cluster.node_for_rank(1), core=cluster.core_for_rank(1)),
    ]
    receiver, sender = stacks[0].connect(stacks[1]), stacks[1].connect(stacks[0])
    env = cluster.env

    def rank0():
        request = yield from receiver.irecv(8)
        yield from receiver.wait(request)
        assert request.completed

    def rank1():
        yield from stacks[1].cpu.execute("reduce_op", mean=2000.0)
        yield from sender.isend(8)

    env.process(rank1())
    env.run(until=env.process(rank0()))
    return _observe(cluster, stacks), stacks, receiver


def _both(scenario):
    with trace_session():
        reference, traced, _ = scenario()
    observed, stacks, extra = scenario()
    assert observed == reference
    assert traced[0].ucp.parks == 0
    return stacks, extra


class TestWakes:
    def test_on_a_nic_am(self):
        stacks, _ = _both(lambda: _late_message(_config()))
        assert stacks[0].ucp.parks == 1
        assert not stacks[0].ucp.park_declines

    def test_on_a_shm_delivery(self):
        stacks, comm = _both(lambda: _late_message(_config(), processes_per_node=2))
        assert isinstance(comm.ep.uct_ep.transport, ShmTransport)
        assert stacks[0].ucp.parks == 1

    def test_on_a_cqe(self):
        def scenario():
            cluster = Cluster(2, config=_config().build())
            stacks = [MpiStack(cluster.nodes[0], signal_period=1), MpiStack(cluster.nodes[1])]
            comm = stacks[0].connect(stacks[1])
            cq = stacks[0].ucp.iface.qp.cq

            def rank0():
                yield from comm.isend(8)  # inline: done at post, CQE later
                yield from stacks[0].ucp.progress_until(lambda: cq.consumed == 1)

            cluster.env.run(until=cluster.env.process(rank0()))
            return _observe(cluster, stacks), stacks, cq

        stacks, cq = _both(scenario)
        assert cq.consumed == 1
        assert stacks[0].ucp.parks == 1

    def test_on_a_pending_send_that_can_post(self):
        # A one-slot TxQ: the second send busy-posts and is pended.  The
        # slot is then freed behind the worker's back, before the first
        # send's CQE exists, so only the pending-send check can see it.
        def scenario():
            cluster = Cluster(2, config=_config().nic(txq_depth=1).build())
            stacks = [MpiStack(cluster.nodes[0], signal_period=1), MpiStack(cluster.nodes[1])]
            comm = stacks[0].connect(stacks[1])
            ucp = stacks[0].ucp
            env = cluster.env

            def rank0():
                yield from comm.isend(8)
                second = yield from comm.isend(8)
                assert len(ucp.pending_sends) == 1
                env.defer(ucp.iface.qp.txq.free, 300.0, args=(1,))
                yield from ucp.progress_until(lambda: second.completed)

            env.run(until=env.process(rank0()))
            return _observe(cluster, stacks), stacks, ucp

        stacks, ucp = _both(scenario)
        assert ucp.parks == 1
        assert ucp.progress_llp_posts == 1
        assert ucp.iface.qp.cq.consumed == 0

    def test_predicate_met_from_outside_ends_at_a_pass_boundary(self):
        # Nothing arrives: the chain itself must notice the predicate at
        # the next boundary, as the process-tier loop would.
        def scenario():
            cluster = Cluster(2, config=_config().build())
            stacks = [MpiStack(cluster.nodes[0])]
            env = cluster.env
            flag = []
            env.defer(flag.append, 1234.5, args=(True,))

            def rank0():
                yield from stacks[0].ucp.progress_until(lambda: bool(flag))
                return env.now

            done = env.run(until=env.process(rank0()))
            assert done > 1234.5
            return _observe(cluster, stacks), stacks, None

        stacks, _ = _both(scenario)
        assert stacks[0].ucp.parks == 1

    def test_zero_length_stages_continue_in_the_step(self):
        # With one segment at zero cost the reference never yields for
        # it; the chain must run on in the same step rather than push a
        # stage at the current time.
        defer_at = Environment.defer_at
        for costs in ({"ucp_prog_body": 0.0}, {"llp_prog_empty": 0.0}):
            delays = []

            def recording(env, fn, at, *args, **kwargs):
                if fn.__qualname__.startswith("UcpWorker._park"):
                    delays.append(at - env.now)
                return defer_at(env, fn, at, *args, **kwargs)

            with mock.patch.object(Environment, "defer_at", recording):
                stacks, _ = _both(lambda: _late_message(_config(**costs)))
            assert stacks[0].ucp.parks == 1
            assert delays and min(delays) > 0


class TestFallbacks:
    def test_traced_waits_decline(self):
        with trace_session():
            _, stacks, _ = _late_message(_config())
        ucp = stacks[0].ucp
        assert ucp.parks == 0
        assert set(ucp.park_declines) == {"traced"}
        assert ucp.park_declines["traced"] > 0

    def test_profiled_passes_decline(self):
        for region in ("ucp_worker_progress", "llp_prog"):
            _, stacks, _ = _late_message(_config(), regions={region})
            ucp = stacks[0].ucp
            assert ucp.parks == 0
            assert set(ucp.park_declines) == {"profiled"}
            assert stacks[0].profiler.stats(region).count > 0

    def test_regions_outside_the_pass_still_park(self):
        _, stacks, _ = _late_message(_config(), regions={"mpi_wait"})
        assert stacks[0].ucp.parks == 1
        assert not stacks[0].ucp.park_declines
        assert stacks[0].profiler.stats("mpi_wait").count == 1

    def test_untraced_collective_parks(self):
        stacks = []

        class RecordedStack(MpiStack):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stacks.append(self)

        with mock.patch.object(algorithms, "MpiStack", RecordedStack):
            run_collective("allreduce", Cluster(8, config=_config().build()), iterations=1)
        assert sum(s.ucp.parks for s in stacks) > 0
        assert all(not s.ucp.park_declines for s in stacks)
