"""The full §§3-5 measurement campaign against the simulated testbed.

Every quantity in the paper's Table 1 is *re-measured* here from noisy
benchmark runs — software through profiled regions (one component per
run, overhead subtracted), hardware through analyzer-trace arithmetic —
then assembled into a :class:`ComponentTimes` for the analytical
models.  Comparing that against the simulator's ground-truth
configuration closes the loop on the methodology itself.

Deviations from the paper, by necessity, are documented inline:

* ``RC-to-MEM(64B)`` is extrapolated linearly from the measured 8-byte
  value (the paper uses it in ``gen_completion`` but never reports a
  measurement);
* the MPICH share of ``MPI_Wait`` is measured with direct regions
  around the entry / callback / post-progress segments rather than the
  paper's total-minus-total subtraction — equivalent by construction
  and robust to run-to-run variation in the number of empty progress
  polls while blocked.

The campaign is 23 independent simulations, each with its own seed,
coupled only by arithmetic afterwards.  Each stage first lists its runs
(a module-level reducer bound to its arguments, returning only the
values the arithmetic needs), then executes them through
:func:`repro.campaign.runner.execute_points` and assembles the result
in the caller.  :func:`measure_component_times` executes all 23 in one
call, so they share one process pool.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from functools import partial
from typing import Any, TypeVar

from repro.analysis.stats import DistributionSummary, robust_mean, summarize
from repro.analysis.traces import (
    arrival_deltas,
    mwr_ack_round_trips,
    ping_completion_deltas,
    pong_ping_deltas,
)
from repro.bench.osu import run_osu_latency, run_osu_message_rate
from repro.bench.perftest import run_am_lat, run_put_bw
from repro.campaign.runner import execute_points, resolve_jobs
from repro.core.components import ComponentTimes
from repro.node.config import SystemConfig

__all__ = [
    "MeasurementCampaign",
    "measure_component_times",
    "measure_hardware",
    "measure_hlp_segments",
    "measure_llp_segments",
]

#: Regions measured with one dedicated put_bw run each (§4.1).
LLP_REGIONS = (
    "md_setup",
    "barrier_md",
    "barrier_dbc",
    "pio_copy",
    "llp_post",
    "llp_prog",
    "busy_post",
    "measurement_update",
)

#: Regions measured with one dedicated osu_latency run each (§5).
HLP_REGIONS = (
    "mpi_isend",
    "ucp_isend",
    "llp_post",
    "ucp_worker_progress",
    "llp_prog",
    "ucp_recv_callback",
    "mpich_recv_callback",
    "mpich_after_progress",
    "mpich_wait_entry",
)


@dataclass
class MeasurementCampaign:
    """Everything one full methodology run produced."""

    config: SystemConfig
    #: Corrected means of the LLP regions (put_bw runs).
    llp: dict[str, float] = field(default_factory=dict)
    #: Corrected means of the HLP regions (osu_latency runs).
    hlp: dict[str, float] = field(default_factory=dict)
    #: Hardware components from trace arithmetic.
    hardware: dict[str, float] = field(default_factory=dict)
    #: Send-progress quantities from the OSU message-rate run.
    send_progress: dict[str, float] = field(default_factory=dict)
    #: NIC-observed injection-overhead distribution (Figure 7).
    injection_distribution: DistributionSummary | None = None
    #: Benchmark-observed headline numbers for validation.
    observed: dict[str, float] = field(default_factory=dict)

    def to_component_times(self) -> ComponentTimes:
        """Assemble the measured values into the models' input."""
        llp, hlp, hw = self.llp, self.hlp, self.hardware
        llp_post_other = max(
            0.0,
            llp["llp_post"]
            - llp["md_setup"]
            - llp["barrier_md"]
            - llp["barrier_dbc"]
            - llp["pio_copy"],
        )
        mpich_isend = max(0.0, hlp["mpi_isend"] - hlp["ucp_isend"])
        ucp_isend = max(0.0, hlp["ucp_isend"] - hlp["llp_post"])
        mpich_recv_cb = hlp["mpich_recv_callback"]
        ucp_recv_cb = max(0.0, hlp["ucp_recv_callback"] - mpich_recv_cb)
        ucp_body = max(0.0, hlp["ucp_worker_progress"] - hlp["llp_prog"])
        return ComponentTimes(
            md_setup=llp["md_setup"],
            barrier_md=llp["barrier_md"],
            barrier_dbc=llp["barrier_dbc"],
            pio_copy=llp["pio_copy"],
            llp_post_other=llp_post_other,
            llp_prog=llp["llp_prog"],
            busy_post=llp["busy_post"],
            measurement_update=llp["measurement_update"],
            pcie=hw["pcie"],
            rc_to_mem_8b=hw["rc_to_mem_8b"],
            rc_to_mem_64b=hw["rc_to_mem_64b"],
            wire=hw["wire"],
            switch=hw["switch"],
            mpich_isend=mpich_isend,
            ucp_isend=ucp_isend,
            mpich_recv_callback=mpich_recv_cb,
            ucp_recv_callback=ucp_recv_cb,
            mpich_after_progress=hlp["mpich_after_progress"],
            mpi_wait_mpich=(
                hlp["mpich_wait_entry"] + mpich_recv_cb + hlp["mpich_after_progress"]
            ),
            mpi_wait_ucp=ucp_body + ucp_recv_cb,
            post_prog=self.send_progress["post_prog"],
            llp_tx_prog=self.send_progress["llp_tx_prog"],
            misc_injection=self.send_progress["misc_injection"],
        )


# -- the runs: one simulation each, reduced in the process that ran it -------

def _region_mean(
    bench: Callable[..., Any], config: SystemConfig, region: str, **params: Any
) -> float:
    """Corrected mean of one profiled region from its own benchmark run."""
    result = bench(config=config, profile_regions={region}, **params)
    return result.profiler.corrected_mean(region)


def _put_bw_trace(
    config: SystemConfig, n_messages: int
) -> tuple[float, DistributionSummary]:
    """MWr→ACK round-trip mean and arrival-delta summary of a put_bw trace.

    The raw analyzer records are the measurement here, so the run must
    replay in full — fast-forward synthesizes no trace.
    """
    put_result = run_put_bw(config=config, n_messages=n_messages, fast_forward=False)
    records = put_result.testbed.analyzer.records
    round_trips = mwr_ack_round_trips(records)
    if round_trips.size == 0:
        raise RuntimeError("no MWr→ACK pairs found in the put_bw trace")
    return float(round_trips.mean()), summarize(arrival_deltas(records))


def _am_lat_trace(
    config: SystemConfig, iterations: int, pong_ping: bool
) -> tuple[float, float | None]:
    """Ping-completion mean of an am_lat trace, plus (when asked) its
    robust pong→ping mean.

    The pong→ping deltas span CPU segments (LLP_prog + LLP_post), so
    the rare heavy-tail outliers are rejected before averaging.
    """
    records = run_am_lat(config=config, iterations=iterations).testbed.analyzer.records
    ping_completion = float(ping_completion_deltas(records).mean())
    return ping_completion, robust_mean(pong_ping_deltas(records)) if pong_ping else None


def _message_rate_counters(config: SystemConfig, **params: Any) -> dict[str, float]:
    """The counters of one OSU message-rate run that §6 needs."""
    result = run_osu_message_rate(config=config, **params)
    return {
        "n_measured": result.n_measured,
        "waitall_ns": result.waitall_ns,
        "waitall_llp_post_ns": result.waitall_llp_post_ns,
        "busy_posts": result.busy_posts,
        "cpu_side_injection_overhead_ns": result.cpu_side_injection_overhead_ns,
    }


def _observed_latency(
    bench: Callable[..., Any], config: SystemConfig, iterations: int
) -> float:
    return bench(config=config, iterations=iterations).observed_latency_ns


def _call(run: partial) -> Any:
    """Execute one run (module-level, so it pickles into pool workers)."""
    return run()


_Key = TypeVar("_Key", bound=Hashable)


def _execute(runs: dict[_Key, partial], jobs: int) -> dict[_Key, Any]:
    """Execute ``runs`` in order on ``jobs`` workers; values keyed like ``runs``."""
    return dict(zip(runs, execute_points(list(runs.values()), jobs, fn=_call)))


# -- the stages: run lists and assembly in the caller ----------------------------

def _region_runs(
    bench: Callable[..., Any],
    regions: tuple[str, ...],
    config: SystemConfig,
    seed_offset: int,
    **params: Any,
) -> dict[str, partial]:
    return {
        region: partial(
            _region_mean,
            bench,
            config.evolve(seed=config.seed + seed_offset + index),
            region,
            **params,
        )
        for index, region in enumerate(regions)
    }


def _hardware_runs(
    config: SystemConfig, n_messages: int, iterations: int
) -> dict[str, partial]:
    # Wire alone comes from a direct (no-switch) am_lat run; Switch is
    # the difference of the two latency setups, the paper's method.
    direct = config.evolve(network=config.network.without_switch(), seed=config.seed + 202)
    return {
        "am_switched": partial(
            _am_lat_trace, config.evolve(seed=config.seed + 201), iterations, True
        ),
        "am_direct": partial(_am_lat_trace, direct, iterations, False),
        "put_bw": partial(_put_bw_trace, config.evolve(seed=config.seed + 200), n_messages),
    }


def _hardware(
    values: dict[str, Any],
    llp_post_ns: float,
    llp_prog_ns: float,
    rc_to_mem_slope_ns_per_byte: float = 0.27,
) -> tuple[dict[str, float], DistributionSummary]:
    round_trip_ns, injection = values["put_bw"]
    pcie = round_trip_ns / 2.0
    network_ns, pong_ping_ns = values["am_switched"]
    network = network_ns / 2.0
    wire = values["am_direct"][0] / 2.0
    switch = max(0.0, network - wire)
    # RC-to-MEM(8B) from the pong→ping deltas of the switched run.
    rc_to_mem_8b = pong_ping_ns - 2 * pcie - llp_prog_ns - llp_post_ns
    if rc_to_mem_8b <= 0:
        raise RuntimeError(
            f"RC-to-MEM(8B) back-out produced {rc_to_mem_8b:.2f} ns; "
            "software measurements inconsistent with the trace"
        )
    rc_to_mem_64b = rc_to_mem_8b + rc_to_mem_slope_ns_per_byte * 56.0

    hardware = {
        "pcie": pcie,
        "wire": wire,
        "switch": switch,
        "network": network,
        "rc_to_mem_8b": rc_to_mem_8b,
        "rc_to_mem_64b": rc_to_mem_64b,
    }
    return hardware, injection


def _send_progress_runs(
    config: SystemConfig, windows: int, window_size: int = 64, signal_period: int = 64
) -> dict[str, partial]:
    return {
        "message_rate": partial(
            _message_rate_counters,
            config.evolve(seed=config.seed + 300),
            windows=windows,
            window_size=window_size,
            signal_period=signal_period,
        )
    }


def _send_progress(
    values: dict[str, Any],
    llp_prog_ns: float,
    busy_post_ns: float,
    signal_period: int = 64,
) -> tuple[dict[str, float], float]:
    counters = values["message_rate"]
    ops = counters["n_measured"]
    post_prog = (counters["waitall_ns"] - counters["waitall_llp_post_ns"]) / ops
    send_progress = {
        "post_prog": post_prog,
        # "Less than a nanosecond of Post_prog occurs in the LLP":
        # one CQ dequeue amortised over the unsignaled period.
        "llp_tx_prog": llp_prog_ns / signal_period,
        "misc_injection": counters["busy_posts"] * busy_post_ns / ops,
    }
    return send_progress, counters["cpu_side_injection_overhead_ns"]


# -- the public stages ------------------------------------------------------------

def measure_llp_segments(
    config: SystemConfig,
    n_messages: int = 600,
    warmup: int = 256,
    seed_offset: int = 0,
) -> dict[str, float]:
    """Measure each LLP region with its own put_bw run (§4.1).

    One region per run honours "while measuring time of a component, we
    do not simultaneously measure time in any other component".
    """
    runs = _region_runs(
        run_put_bw, LLP_REGIONS, config, seed_offset, n_messages=n_messages, warmup=warmup
    )
    return _execute(runs, jobs=1)


def measure_hlp_segments(
    config: SystemConfig,
    iterations: int = 300,
    warmup: int = 30,
    seed_offset: int = 100,
) -> dict[str, float]:
    """Measure each HLP region with its own osu_latency run (§5)."""
    runs = _region_runs(
        run_osu_latency, HLP_REGIONS, config, seed_offset,
        iterations=iterations, warmup=warmup,
    )
    return _execute(runs, jobs=1)


def measure_hardware(
    config: SystemConfig,
    llp_post_ns: float,
    llp_prog_ns: float,
    n_messages: int = 600,
    iterations: int = 300,
    rc_to_mem_slope_ns_per_byte: float = 0.27,
) -> tuple[dict[str, float], DistributionSummary]:
    """Measure PCIe, Wire, Switch and RC-to-MEM from analyzer traces (§4.3).

    PCIe and the injection distribution come from one put_bw trace,
    Network (wire + switch) from a switched am_lat trace and Wire from
    a direct one.

    Parameters
    ----------
    llp_post_ns / llp_prog_ns:
        Already-measured software components, needed to back
        RC-to-MEM(8B) out of the pong-ping delta (Figure 9).
    rc_to_mem_slope_ns_per_byte:
        Assumed linear slope used to extrapolate RC-to-MEM(64B) from
        the 8-byte measurement (documented substitution; the paper
        never reports the 64-byte value).

    Returns
    -------
    (hardware dict, injection-overhead distribution summary)
    """
    values = _execute(_hardware_runs(config, n_messages, iterations), jobs=1)
    return _hardware(values, llp_post_ns, llp_prog_ns, rc_to_mem_slope_ns_per_byte)


def measure_send_progress(
    config: SystemConfig,
    llp_post_ns: float,
    llp_prog_ns: float,
    busy_post_ns: float,
    windows: int = 30,
    window_size: int = 64,
    signal_period: int = 64,
) -> tuple[dict[str, float], float]:
    """Measure Post_prog, LLP_tx_prog and Misc from an OSU MR run (§6).

    Post_prog follows the paper's accounting: the MPI_Waitall time per
    operation minus the LLP_posts re-executed for busy posts.  Returns
    the dict plus the observed overall injection overhead (inverse
    message rate) for validation.
    """
    runs = _send_progress_runs(config, windows, window_size, signal_period)
    return _send_progress(_execute(runs, jobs=1), llp_prog_ns, busy_post_ns, signal_period)


def measure_component_times(
    config: SystemConfig | None = None,
    quick: bool = False,
    jobs: int | None = None,
) -> MeasurementCampaign:
    """Run the entire measurement campaign (the paper's §§3-6 workflow).

    Parameters
    ----------
    config:
        System to measure; defaults to the paper testbed with noise.
    quick:
        Shrink sample counts for fast test runs.
    jobs:
        Worker processes for the campaign's 23 runs.  ``None`` means
        one per usable core (1 inside a pool worker or while tracing;
        see :func:`repro.campaign.runner.resolve_jobs`); ``1`` runs
        inline.  The result is identical for every value.

    Returns
    -------
    A :class:`MeasurementCampaign`; call
    :meth:`MeasurementCampaign.to_component_times` to feed the models.
    """
    cfg = config or SystemConfig.paper_testbed()
    workers = resolve_jobs(jobs)
    n_messages = 300 if quick else 1000
    iterations = 120 if quick else 400
    windows = 12 if quick else 30

    # Longest runs (am_lat, then osu_latency) first: idle workers pull
    # the next run from one shared queue, so a long run submitted last
    # would leave the other workers idle at the end.
    stages = {
        "observed": {
            "llp_latency": partial(
                _observed_latency, run_am_lat, cfg.evolve(seed=cfg.seed + 400), iterations
            ),
            "end_to_end_latency": partial(
                _observed_latency, run_osu_latency, cfg.evolve(seed=cfg.seed + 401),
                iterations,
            ),
        },
        "hardware": _hardware_runs(cfg, n_messages, iterations),
        "hlp": _region_runs(
            run_osu_latency, HLP_REGIONS, cfg, 100, iterations=iterations, warmup=30
        ),
        "send_progress": _send_progress_runs(cfg, windows),
        "llp": _region_runs(
            run_put_bw, LLP_REGIONS, cfg, 0, n_messages=n_messages, warmup=256
        ),
    }
    done = _execute(
        {(stage, name): run for stage, runs in stages.items() for name, run in runs.items()},
        workers,
    )
    values = {
        stage: {name: done[(stage, name)] for name in runs}
        for stage, runs in stages.items()
    }

    campaign = MeasurementCampaign(config=cfg)
    campaign.llp = values["llp"]
    campaign.hlp = values["hlp"]
    campaign.hardware, campaign.injection_distribution = _hardware(
        values["hardware"],
        llp_post_ns=campaign.llp["llp_post"],
        llp_prog_ns=campaign.llp["llp_prog"],
    )
    campaign.send_progress, observed_injection = _send_progress(
        values["send_progress"],
        llp_prog_ns=campaign.llp["llp_prog"],
        busy_post_ns=campaign.llp["busy_post"],
    )

    # Headline observations for model validation.
    campaign.observed["llp_injection_overhead"] = (
        campaign.injection_distribution.mean
    )
    # §4.3: deduct half a measurement update from the reported latency.
    campaign.observed["llp_latency"] = (
        values["observed"]["llp_latency"] - campaign.llp["measurement_update"] / 2.0
    )
    campaign.observed["overall_injection_overhead"] = observed_injection
    campaign.observed["end_to_end_latency"] = values["observed"]["end_to_end_latency"]
    return campaign
