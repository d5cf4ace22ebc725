"""Campaign execution: fan sweep points out, isolate failures, cache.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into a
:class:`~repro.campaign.records.CampaignResult`:

1. every point is first looked up in the on-disk result cache (when a
   ``cache_dir`` is given) — hits cost one JSON read;
2. misses execute through :func:`execute_points`: inline when
   ``jobs == 1``, otherwise on a stdlib process pool whose idle workers
   pull the next point from one shared call queue, so the schedule
   balances itself even when per-point costs are wildly uneven.  A
   point that raises is captured as an ``error`` record — with type,
   message and traceback — and the rest of the campaign continues; a
   worker process that dies outright raises ``BrokenProcessPool``
   instead of wedging the campaign.  A spec-level ``timeout_s`` arms a
   SIGALRM watchdog around each point, so a hung simulation becomes a
   timeout record, and ``retries`` re-attempts errored points with
   exponential backoff;
3. successful records are written back to the cache *by the worker that
   produced them*, point by point, so a campaign killed halfway resumes
   from its last completed point on the next run.

Measurements come from the deterministic simulator, so the parallel and
serial schedules produce byte-identical
:meth:`~repro.campaign.records.CampaignResult.measurements_json` output.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback as traceback_module
from collections.abc import Callable
from typing import Any

from repro.campaign.cache import ResultCache, point_cache_key
from repro.campaign.records import STATUS_ERROR, STATUS_OK, CampaignResult, RunRecord
from repro.campaign.spec import CampaignSpec, SweepPoint
from repro.campaign.workloads import get_workload
from repro.sim import engine as sim_engine
from repro.sim.hashing import canonicalize

__all__ = [
    "PointTimeout",
    "execute_points",
    "resolve_jobs",
    "run_campaign",
    "usable_cpus",
]


class PointTimeout(Exception):
    """A sweep point exceeded the spec's per-point wall-clock budget."""


def _run_with_timeout(fn: Callable[[], Any], timeout_s: float | None) -> Any:
    """Run ``fn`` under a SIGALRM watchdog of ``timeout_s`` host seconds.

    The watchdog needs a real-time signal delivered to the executing
    thread, which Python only supports on the main thread of a process
    — true inline and in fork/spawn pool workers alike.  Elsewhere (or
    without ``timeout_s``) the call runs unguarded.
    """
    if timeout_s is None:
        return fn()
    armable = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not armable:  # pragma: no cover - non-POSIX / embedded thread
        return fn()

    def _on_alarm(signum, frame):
        raise PointTimeout(f"point exceeded timeout_s={timeout_s}")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_point(payload: tuple) -> dict[str, Any]:
    """Run one sweep point; never raises (errors become the record).

    Top-level so it pickles into pool workers.  ``payload`` is the
    point plus identity/policy fields precomputed by the parent.  The
    attempt loop applies the spec's timeout and retry policy; a
    successful record is written straight into the result cache so a
    killed campaign resumes from its last completed point.
    """
    (
        campaign,
        index,
        workload_name,
        config,
        params,
        seed,
        overrides,
        key,
        trace,
        timeout_s,
        retries,
        retry_backoff_s,
        cache_dir,
    ) = payload
    record: dict[str, Any] = {
        "campaign": campaign,
        "index": index,
        "workload": workload_name,
        "seed": seed,
        "params": dict(params),
        "config_overrides": dict(overrides),
        "config_hash": config.stable_hash(),
        "cache_key": key,
        "worker": f"{multiprocessing.current_process().name}:{os.getpid()}",
        "cache_hit": False,
        "trace": None,
    }

    def _attempt() -> dict[str, Any]:
        workload = get_workload(workload_name)
        if trace:
            from repro.trace import trace_session

            with trace_session() as session:
                measurements = workload(config, **params)
            record["trace"] = session.summary()
        else:
            measurements = workload(config, **params)
        if not isinstance(measurements, dict):
            raise TypeError(
                f"workload {workload_name!r} returned "
                f"{type(measurements).__name__}, expected a measurement dict"
            )
        return measurements

    start = time.perf_counter()
    attempts = 0
    while True:
        attempts += 1
        try:
            measurements = _run_with_timeout(_attempt, timeout_s)
            record.update(
                status=STATUS_OK,
                # canonicalize() coerces numpy scalars so records stay JSON.
                measurements={k: canonicalize(v) for k, v in measurements.items()},
                error=None,
                error_type=None,
                traceback=None,
                timeout=False,
            )
            break
        except Exception as exc:
            record.update(
                status=STATUS_ERROR,
                measurements={},
                error=str(exc),
                error_type=type(exc).__name__,
                traceback=traceback_module.format_exc(),
                timeout=isinstance(exc, PointTimeout),
            )
        if attempts > retries:
            break
        if retry_backoff_s > 0:
            time.sleep(retry_backoff_s * 2 ** (attempts - 1))
    record["attempts"] = attempts
    record["duration_s"] = time.perf_counter() - start
    if cache_dir is not None and record["status"] == STATUS_OK:
        ResultCache(cache_dir).put(key, record)
    return record


def _point_payload(
    spec: CampaignSpec,
    point: SweepPoint,
    key: str,
    cache_dir: str | os.PathLike | None,
) -> tuple:
    return (
        spec.name,
        point.index,
        point.workload,
        point.config,
        point.params,
        point.seed,
        point.config_overrides,
        key,
        spec.trace,
        spec.timeout_s,
        spec.retries,
        spec.retry_backoff_s,
        cache_dir,
    )


#: Set by the pool initializer: this process is an :func:`execute_points`
#: worker, so an automatic ``jobs`` must not open a nested pool.
_in_pool_worker = False


def _mark_pool_worker() -> None:
    global _in_pool_worker
    _in_pool_worker = True


def usable_cpus() -> int:
    """Cores this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """The worker count for a ``jobs`` argument where ``None`` means automatic.

    ``None`` is one worker per usable core, except inside an
    :func:`execute_points` worker (pools do not nest).  While a tracer
    factory is installed (a :func:`repro.trace.trace_session`) every
    value resolves to 1: spans land only in the caller's session, so
    the work must run in the caller's process.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if sim_engine._tracer_factory is not None:
        return 1
    if jobs is None:
        return 1 if _in_pool_worker else usable_cpus()
    return jobs


def execute_points(
    payloads: list[Any],
    jobs: int,
    fn: Callable[[Any], Any] = _execute_point,
) -> list[Any]:
    """Map ``fn`` (a sweep point by default) over ``payloads``, in order.

    ``jobs <= 1`` (or at most one payload) runs inline.  Otherwise a
    process pool of ``min(jobs, len(payloads))`` workers pulls payloads
    from one shared call queue, and a worker that dies raises
    ``BrokenProcessPool``.  ``fn`` and its payloads must pickle; the
    default never raises (errors become the record), any other ``fn``
    that raises re-raises here with its type and message, and the
    payloads not yet started are cancelled.  The pool forks where fork
    exists, so workloads registered at runtime reach the workers.
    """
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    from concurrent.futures import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    with ProcessPoolExecutor(
        min(jobs, len(payloads)), mp_context=context, initializer=_mark_pool_worker
    ) as pool:
        try:
            return list(pool.map(fn, payloads))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
) -> CampaignResult:
    """Execute every point of ``spec`` and return the structured result.

    Parameters
    ----------
    jobs:
        Worker processes for cache misses.  ``1`` runs inline (no
        subprocesses); results are identical either way.
    cache_dir:
        Directory of the on-disk result cache; ``None`` disables
        caching.  With ``spawn``-started workers, custom workloads
        registered at runtime must be importable module-level functions.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # Traced campaigns bypass the cache: cached records carry no trace
    # summary, and silently returning them would drop the tracing.
    effective_cache_dir = cache_dir if cache_dir is not None and not spec.trace else None
    cache = ResultCache(effective_cache_dir) if effective_cache_dir is not None else None
    points = spec.points()

    records: dict[int, RunRecord] = {}
    pending: list[tuple] = []
    for point in points:
        key = point_cache_key(point.workload, point.config, point.params, point.seed)
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            record = RunRecord.from_dict(cached)
            record.campaign = spec.name
            record.index = point.index
            record.cache_hit = True
            record.duration_s = 0.0
            records[point.index] = record
        else:
            pending.append(_point_payload(spec, point, key, effective_cache_dir))

    # Workers write their own successes into the cache (point by point,
    # for resumability) — nothing to put here.
    for payload in execute_points(pending, jobs):
        record = RunRecord.from_dict(payload)
        records[record.index] = record

    return CampaignResult(
        name=spec.name,
        workload=spec.workload,
        records=[records[index] for index in sorted(records)],
    )
