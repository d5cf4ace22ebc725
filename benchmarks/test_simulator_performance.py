"""Simulator throughput — how fast the DES core itself runs.

Not a paper artefact, but a harness health metric: the full
reproduction depends on simulating hundreds of thousands of events per
campaign, so regressions here make every experiment slower.  Beyond the
pytest-benchmark timings, this module writes ``BENCH_sim.json`` next to
the reports: events/sec of the engine plus the wall-clock of one
reference campaign run serially and with 4 worker processes, so future
changes have a machine-readable perf trajectory to compare against.
"""

import json
import os
import pathlib
import time
import timeit

from repro.bench import run_am_lat, run_put_bw
from repro.campaign import CampaignSpec, SweepAxis, run_campaign
from repro.node import SystemConfig
from repro.sim.engine import NULL_TRACER
from repro.trace import trace_session

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_sim.json"


def _reference_campaign() -> CampaignSpec:
    """A small put_bw sweep: big enough to amortise pool start-up."""
    return CampaignSpec(
        name="perf-reference",
        workload="put_bw",
        base_config=SystemConfig.paper_testbed(deterministic=True),
        axes=(SweepAxis("nic.txq_depth", (2, 8, 32, 128)),),
        params={"n_messages": 400, "warmup": 150},
        seeds=(2019, 2020),
    )


def _record(key: str, payload: dict) -> None:
    """Append one run's entry under ``key`` — history is never overwritten.

    Each key holds ``{"runs": [...]}``, one entry per invocation with a
    run index and UTC timestamp, so the perf trajectory across reruns is
    preserved.  Flat single-dict entries written by earlier revisions of
    this module are migrated into the list as run 0.
    """
    data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    entry = data.get(key)
    if entry is None:
        entry = {"runs": []}
    elif "runs" not in entry:
        entry = {"runs": [dict(entry, run=0)]}
    payload = dict(payload)
    payload["run"] = len(entry["runs"])
    payload["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    entry["runs"].append(payload)
    data[key] = entry
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_put_bw_simulation_speed(benchmark):
    # Best-of-N is the stable statistic on shared/noisy CI hosts: the
    # minimum round is the least-perturbed execution, while the mean
    # absorbs scheduler noise.  Both are recorded; the rates use the
    # best round.  events_per_s is *effective*: executed + fast-forwarded
    # entries (compiled chains credit elided entries even on short
    # replays); executed_per_s counts only entries the kernel ran.
    result = benchmark.pedantic(
        run_put_bw,
        kwargs=dict(
            config=SystemConfig.paper_testbed(deterministic=True),
            n_messages=200,
            warmup=100,
        ),
        rounds=5,
        iterations=1,
    )
    assert result.n_measured == 200

    env = result.testbed.env
    assert env.events_executed > 0  # short runs replay through the kernel
    effective = env.events_executed + env.events_fast_forwarded
    events_per_s = effective / benchmark.stats["min"]
    executed_per_s = env.events_executed / benchmark.stats["min"]
    _record(
        "engine",
        {
            "workload": "put_bw",
            "mode": "replay",
            "events_executed": env.events_executed,
            "events_fast_forwarded": env.events_fast_forwarded,
            "events_processed": effective,
            "wall_s_mean": benchmark.stats["mean"],
            "wall_s_best": benchmark.stats["min"],
            "rounds": 5,
            "events_per_s": events_per_s,
            "events_per_s_kind": "effective",
            "executed_per_s": executed_per_s,
        },
    )


def test_put_bw_fast_forward_speed(benchmark):
    """Tier-3 throughput: the analytic fast-forward at campaign scale.

    A 100k-message put_bw engages the steady-state model (after its
    bitwise probe validation), so the run's cost is two short replayed
    probes plus the scalar state machine.  The floor asserts at least
    5× the pre-refactor engine baseline (~200k events/s) in *effective*
    events per wall second; locally this lands well above 1M.
    """
    n_messages = 100_000
    result = benchmark.pedantic(
        run_put_bw,
        kwargs=dict(
            config=SystemConfig.paper_testbed(deterministic=True),
            n_messages=n_messages,
        ),
        rounds=3,
        iterations=1,
    )
    assert result.n_measured == n_messages

    env = result.testbed.env
    assert env.events_executed == 0, "fast-forward did not engage"
    assert env.events_fast_forwarded > 0
    effective = env.events_executed + env.events_fast_forwarded
    events_per_s = effective / benchmark.stats["min"]
    assert events_per_s >= 1_000_000, (
        f"effective throughput {events_per_s:,.0f} events/s is below the "
        f"1M floor (5x the pre-refactor ~200k baseline)"
    )
    _record(
        "engine",
        {
            "workload": "put_bw",
            "mode": "fast_forward",
            "n_messages": n_messages,
            "events_executed": env.events_executed,
            "events_fast_forwarded": env.events_fast_forwarded,
            "events_processed": effective,
            "wall_s_mean": benchmark.stats["mean"],
            "wall_s_best": benchmark.stats["min"],
            "rounds": 3,
            "events_per_s": events_per_s,
            "events_per_s_kind": "effective",
            "executed_per_s": env.events_executed / benchmark.stats["min"],
        },
    )


def test_am_lat_simulation_speed(benchmark):
    result = benchmark.pedantic(
        run_am_lat,
        kwargs=dict(
            config=SystemConfig.paper_testbed(deterministic=True),
            iterations=100,
            warmup=20,
        ),
        rounds=3,
        iterations=1,
    )
    assert result.iterations == 100


def test_tracer_overhead():
    """Tracing must be close to free when disabled, bounded when enabled.

    The disabled path costs one ``tracer.enabled`` attribute check per
    guard site; that cost is far below run-to-run wall-clock noise, so
    instead of differencing two noisy walls it is estimated directly:
    measured per-check cost × the number of guard evaluations (taken
    from an enabled run's span/instant/counter totals, each of which
    sits behind one or two guards).
    """
    kwargs = dict(
        config=SystemConfig.paper_testbed(deterministic=True),
        iterations=100,
        warmup=20,
    )

    def best_wall(fn, rounds: int = 3) -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    disabled_wall = best_wall(lambda: run_am_lat(**kwargs))

    with trace_session() as session:
        run_am_lat(**kwargs)
    summary = session.summary()
    assert summary["spans"] > 0

    def traced():
        with trace_session():
            run_am_lat(**kwargs)

    enabled_wall = best_wall(traced)

    checks = 200_000
    per_check_s = (
        timeit.timeit("t.enabled", globals={"t": NULL_TRACER}, number=checks) / checks
    )
    counter_bumps = sum(
        value
        for names in summary["counters"].values()
        for value in names.values()
    )
    # begin+end pairs are two guarded call sites; instants and counter
    # bumps one each.
    guard_evals = 2 * summary["spans"] + summary["instants"] + counter_bumps
    disabled_overhead_ratio = (guard_evals * per_check_s) / disabled_wall

    assert disabled_overhead_ratio < 0.05, (
        f"disabled-tracer overhead {disabled_overhead_ratio:.4%} "
        f"({guard_evals:.0f} guard checks at {per_check_s * 1e9:.1f} ns "
        f"against a {disabled_wall:.4f} s run)"
    )

    _record(
        "tracer_overhead",
        {
            "workload": "am_lat",
            "disabled_wall_s": disabled_wall,
            "enabled_wall_s": enabled_wall,
            "enabled_over_disabled": (
                enabled_wall / disabled_wall if disabled_wall else 0.0
            ),
            "spans": summary["spans"],
            "instants": summary["instants"],
            "guard_evals_est": guard_evals,
            "per_guard_check_s": per_check_s,
            "disabled_overhead_ratio": disabled_overhead_ratio,
        },
    )


def test_campaign_parallel_speed(benchmark):
    """Serial vs ``jobs=4`` wall-clock for the reference campaign.

    Pending points flow through ``execute_points``'s process pool: one
    shared call queue, each idle worker pulling the next point, so
    whatever parallelism the host offers is spent on simulation rather
    than idling behind a pre-dealt chunk.  On a host that actually
    grants 4 cores the 8-point reference campaign must run at least
    1.5× faster with ``jobs=4``; on smaller containers (``cpus`` in the
    record) the speedup is recorded but not asserted — a 1-core CI
    runner legitimately reports ~1.0×.
    """
    t0 = time.perf_counter()
    serial = run_campaign(_reference_campaign(), jobs=1)
    serial_s = time.perf_counter() - t0
    assert not serial.failures

    parallel = benchmark.pedantic(
        run_campaign,
        args=(_reference_campaign(),),
        kwargs=dict(jobs=4),
        rounds=1,
        iterations=1,
    )
    parallel_s = benchmark.stats["mean"]
    assert not parallel.failures
    # Parallel execution must not change the physics.
    assert parallel.measurements_json() == serial.measurements_json()

    cpus = os.cpu_count() or 1
    speedup = serial_s / parallel_s if parallel_s else 0.0
    _record(
        "campaign",
        {
            "points": len(serial.records),
            "serial_wall_s": serial_s,
            "jobs4_wall_s": parallel_s,
            "speedup": speedup,
            "cpus": cpus,
            "dispatch": "process-pool",
        },
    )
    if cpus >= 4:
        assert speedup >= 1.5, (
            f"jobs=4 on {cpus} cpus sped the reference campaign up only "
            f"{speedup:.2f}x (serial {serial_s:.3f}s, parallel {parallel_s:.3f}s)"
        )


def test_faults_disabled_overhead():
    """Fault injection must be close to free when no plan is attached.

    With ``faults=None`` every instrumented layer's guard is a single
    ``x is None``/``is not None`` check; like the tracer test, that cost
    is far below wall-clock noise, so it is estimated directly: measured
    per-check cost × the number of guard evaluations.  The evaluation
    count comes from a never-firing plan targeting every site — its
    per-rule ``opportunities`` counters tally exactly how often the
    guarded hot paths run for this (deterministic) workload.
    """
    from repro.faults import SITES, FaultPlan, FaultRule

    base = SystemConfig.paper_testbed(deterministic=True)
    kwargs = dict(n_messages=200, warmup=100)

    def best_wall(fn, rounds: int = 5) -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    disabled_wall = best_wall(lambda: run_put_bw(config=base, **kwargs))

    # One inert rule per site: `nth` with an unreachable occurrence never
    # fires and consults no RNG, but counts every opportunity.
    inert = FaultPlan(
        rules=tuple(
            FaultRule(site=site, kind="nth", occurrences=(10**9,))
            for site in sorted(SITES)
        )
    )
    armed = base.evolve(faults=inert)
    result = run_put_bw(config=armed, **kwargs)
    stats = result.testbed.faults.stats()
    assert stats["injected"] == 0
    guard_evals = sum(
        rule["opportunities"]
        for site in stats["sites"].values()
        for rule in site["rules"]
    )
    assert guard_evals > 0

    enabled_wall = best_wall(lambda: run_put_bw(config=armed, **kwargs))

    class _Guarded:
        faults = None

    obj = _Guarded()
    checks = 200_000
    per_check_s = (
        timeit.timeit("o.faults is not None", globals={"o": obj}, number=checks)
        / checks
    )
    disabled_overhead_ratio = (guard_evals * per_check_s) / disabled_wall

    assert disabled_overhead_ratio < 0.05, (
        f"disabled-faults overhead {disabled_overhead_ratio:.4%} "
        f"({guard_evals:.0f} guard checks at {per_check_s * 1e9:.1f} ns "
        f"against a {disabled_wall:.4f} s run)"
    )

    _record(
        "faults_overhead",
        {
            "workload": "put_bw",
            "disabled_wall_s": disabled_wall,
            "inert_plan_wall_s": enabled_wall,
            "inert_over_disabled": (
                enabled_wall / disabled_wall if disabled_wall else 0.0
            ),
            "guard_evals": guard_evals,
            "per_guard_check_s": per_check_s,
            "disabled_overhead_ratio": disabled_overhead_ratio,
        },
    )
