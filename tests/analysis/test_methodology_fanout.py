"""The measurement campaign's runs fan out on one process pool.

``measure_component_times`` lists its 23 independent simulations and
executes them through :func:`repro.campaign.runner.execute_points`; the
result must not depend on how many workers ran them, a run that raises
in a worker must raise the same error in the caller, and an automatic
``jobs`` must stay inline where a pool would lose spans or nest.
"""

import multiprocessing
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from repro.analysis import measure_component_times, methodology
from repro.campaign.runner import execute_points, resolve_jobs, usable_cpus
from repro.node import SystemConfig
from repro.trace import trace_session

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched module state reaches pool workers only by fork",
)


def test_every_field_is_identical_for_one_and_two_workers():
    config = SystemConfig.paper_testbed(seed=11)
    inline = measure_component_times(config, quick=True, jobs=1)
    pooled = measure_component_times(config, quick=True, jobs=2)
    for f in fields(inline):
        assert getattr(pooled, f.name) == getattr(inline, f.name), f.name


@needs_fork
def test_a_run_that_raises_in_a_worker_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(
        methodology, "mwr_ack_round_trips", lambda records: np.empty(0)
    )
    run = partial(
        methodology._put_bw_trace, SystemConfig.paper_testbed(seed=3), 40
    )
    message = "^no MWr→ACK pairs found in the put_bw trace$"
    with pytest.raises(RuntimeError, match=message) as caught:
        execute_points([run, run], 2, fn=methodology._call)
    # Raised in a worker: the pool chains the remote traceback.
    assert type(caught.value.__cause__).__name__ == "_RemoteTraceback"


def _automatic_jobs(_payload):
    return resolve_jobs(None)


class TestJobsResolution:
    def test_explicit_counts_are_kept(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3

    def test_automatic_is_one_per_usable_core(self):
        assert resolve_jobs(None) == usable_cpus() >= 1

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_below_one_is_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            resolve_jobs(jobs)

    def test_tracing_runs_inline(self):
        with trace_session():
            assert resolve_jobs(None) == 1
            assert resolve_jobs(4) == 1
        assert resolve_jobs(4) == 4

    def test_pool_workers_do_not_nest_pools(self):
        assert execute_points([None, None], 2, fn=_automatic_jobs) == [1, 1]
