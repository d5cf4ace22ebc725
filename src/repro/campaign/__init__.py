"""Declarative experiment campaigns: specs → parallel runs → records.

The orchestration layer above the benchmarks.  A campaign is *data*: a
:class:`CampaignSpec` names a workload, a base
:class:`~repro.node.config.SystemConfig`, fixed parameters, sweep axes
(config paths or workload arguments) and seeds.  :func:`run_campaign`
expands the spec, serves unchanged points from an on-disk
:class:`ResultCache`, runs the rest through
:func:`~repro.campaign.runner.execute_points` (inline at ``jobs=1``,
else a process pool) with per-point failure isolation, and returns
structured :class:`RunRecord`s instead of bare floats.

Quick tour::

    from repro.campaign import CampaignSpec, SweepAxis, run_campaign
    from repro.node import SystemConfig

    spec = CampaignSpec(
        name="txq-depth",
        workload="put_bw",
        base_config=SystemConfig.paper_testbed(deterministic=True),
        axes=(SweepAxis("nic.txq_depth", (1, 2, 8, 32, 128)),),
        params={"n_messages": 300, "warmup": 150},
    )
    result = run_campaign(spec, jobs=4, cache_dir=".campaign-cache")
    for depth, ns in result.rows("nic.txq_depth", "mean_injection_overhead_ns"):
        print(depth, ns)
"""

from repro.campaign.cache import ResultCache, code_version
from repro.campaign.records import CampaignResult, RunRecord
from repro.campaign.runner import run_campaign
from repro.campaign.spec import (
    CampaignSpec,
    SweepAxis,
    SweepPoint,
    apply_config_overrides,
)
from repro.campaign.workloads import get_workload, register_workload, workload_names

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "ResultCache",
    "RunRecord",
    "SweepAxis",
    "SweepPoint",
    "apply_config_overrides",
    "code_version",
    "get_workload",
    "register_workload",
    "run_campaign",
    "workload_names",
]
