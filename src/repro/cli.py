"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``table1``
    Print the paper's Table 1 (component times).
``breakdown {fig4,fig8,fig10,fig11,fig12,fig13,fig14,fig15,fig16}``
    Print one breakdown figure.
``whatif --metric {injection,latency} --component NAME --reduction R``
    One what-if point, plus the full Figure 17 panels with ``--panels``.
``validate``
    Check the four analytical models against the paper's observations.
``campaign [--quick] [--seed N] [--replications N] [--jobs N] [--cache-dir DIR]``
    Run the full measurement methodology against the simulator and
    print the regenerated Table 1 + validation; ``--jobs`` fans its 23
    independent runs across worker processes (same output for any N).
    With ``--replications`` the whole pipeline instead runs as a
    multi-seed campaign through :mod:`repro.campaign` — fanned across
    ``--jobs`` worker processes, with completed seeds cached under
    ``--cache-dir``.
``rank --metric {injection,latency} --reduction R``
    Rank all components by the overall speedup a given reduction buys.
``bench WORKLOAD [--sweep AXIS=V1,V2,...] [--seeds S1,S2,...]``
    Run one registered workload on the simulated testbed.  ``--sweep``
    turns the run into a declarative campaign (repeatable; axes may be
    dotted config paths like ``nic.txq_depth`` or workload parameters)
    and prints one structured RunRecord per point.
``trace WORKLOAD [--out trace.json] [--timeline N]``
    Run one workload with span tracing enabled, write the Chrome
    trace-event / Perfetto JSON to ``--out`` and print the per-layer
    summary plus — for latency workloads — the critical-path breakdown
    of the last traced message (see docs/tracing.md).
``faults [PLAN.json] [--workload NAME]``
    Without an argument: list the fault-injection sites, rule kinds and
    actions.  With a plan file: validate it and print its rules (exit 2
    with a message on schema errors); add ``--workload`` to also run
    one registered workload under the plan.  See docs/faults.md.
``analyze TRACE.json [--what ANALYSIS] [--msg-id N]``
    Analyse a recorded trace export offline.  ``--what`` selects
    ``latency-tolerance`` (per-component slack, the default),
    ``critical-path`` (the Fig-10 breakdown of one message) or
    ``recovery`` (fault/recovery event counts); unknown analyses exit 2
    with the registered list.  See docs/tracing.md.

Uniform run flags
-----------------
``bench``, ``campaign``, ``trace`` and ``faults`` accept the same run
conventions, spelled identically everywhere:

``--param K=V``
    Workload keyword argument (repeatable).  Dotted names address
    config fields instead: ``--param nic.txq_depth=4`` evolves the
    system config before the run.
``--faults PLAN.json``
    Run under a fault-injection plan; bench prints injection/recovery
    statistics after the measurement.
``--trace [OUT.json]``
    Record spans during the run and write the Chrome trace-event JSON
    (default ``trace.json``).  Campaign-backed sweeps instead attach
    per-point trace summaries to their RunRecords.
``--jobs N`` / ``--cache-dir DIR``
    Worker processes and the cross-run result cache for
    campaign-backed execution; single-run commands validate and
    ignore them.
``--seed N`` / ``--deterministic``
    Root random seed, and the jitter-free mode where every duration
    equals its configured mean.

Unknown workload names and invalid fault plans exit with code 2 and a
message listing the registered alternatives.  All commands accept
``--help``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.components import ComponentTimes
from repro.core.whatif import Metric, WhatIfAnalysis
from repro.node.config import SystemConfig
from repro.reporting import experiments as exp

__all__ = ["main"]

#: Paper-observed values for the ``validate`` command.
PAPER_OBSERVATIONS = {
    "llp_injection_overhead": 282.33,
    "llp_latency": 1190.25,
    "overall_injection_overhead": 263.91,
    "end_to_end_latency": 1336.0,
}

#: Registered trace analyses for ``analyze --what`` (and
#: :meth:`repro.api.Experiment.analyze`).
TRACE_ANALYSES = ("latency-tolerance", "critical-path", "recovery")

_BREAKDOWNS = {
    "fig4": exp.experiment_fig4,
    "fig8": exp.experiment_fig8,
    "fig10": exp.experiment_fig10,
    "fig11": exp.experiment_fig11,
    "fig12": exp.experiment_fig12,
    "fig13": exp.experiment_fig13,
    "fig14": exp.experiment_fig14,
    "fig15": exp.experiment_fig15,
    "fig16": exp.experiment_fig16,
}


def _add_uniform_flags(parser: argparse.ArgumentParser) -> None:
    """The run conventions shared by bench/campaign/trace/faults.

    One spelling everywhere — a flag learned on one subcommand works on
    the others (see the module docstring's "Uniform run flags").
    """
    parser.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        help="workload keyword argument; dotted names "
             "(nic.txq_depth=4) override config fields; repeatable",
    )
    parser.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="fault-injection plan (JSON, see docs/faults.md)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="trace.json", default=None,
        metavar="OUT.json", dest="trace_out",
        help="record spans; write Chrome trace-event JSON "
             "(default trace.json)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for campaign-backed runs",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory caching completed sweep points across runs",
    )
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument(
        "--deterministic", action="store_true",
        help="disable timing jitter (durations equal configured means)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Breaking Band (ICPP 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (paper component times)")

    breakdown = sub.add_parser("breakdown", help="print one breakdown figure")
    breakdown.add_argument("figure", choices=sorted(_BREAKDOWNS))

    whatif = sub.add_parser("whatif", help="what-if analysis (Figure 17)")
    whatif.add_argument(
        "--metric", choices=[m.value for m in Metric], default="latency"
    )
    whatif.add_argument("--component", help="component name from the panel line set")
    whatif.add_argument("--reduction", type=float, default=0.5,
                        help="fractional overhead reduction in [0, 1]")
    whatif.add_argument("--panels", action="store_true",
                        help="print all four Figure 17 panels")

    sub.add_parser("validate", help="models vs the paper's observations")
    sub.add_parser("insights", help="check the four §6 insights")

    rank = sub.add_parser(
        "rank", help="rank components by speedup from a given reduction"
    )
    rank.add_argument(
        "--metric", choices=[m.value for m in Metric], default="latency"
    )
    rank.add_argument("--reduction", type=float, default=0.5)

    campaign = sub.add_parser(
        "campaign", help="run the full measurement methodology in-simulator"
    )
    campaign.add_argument("--quick", action="store_true")
    campaign.add_argument(
        "--replications", type=int, default=0,
        help="run the pipeline as an N-seed replication campaign",
    )
    _add_uniform_flags(campaign)

    bench = sub.add_parser(
        "bench",
        help="run one micro-benchmark",
        epilog=(
            "examples: 'bench put_bw', 'bench allreduce --param n_nodes=64 "
            "--param topology=fat_tree:4', 'bench incast --param n_nodes=4 "
            "--param topology=torus:2x2 --param processes_per_node=2' "
            "(two ranks per node: same-node traffic rides the shm "
            "transport), 'bench put_bw --param transport.rails=2' "
            "(dual-rail NICs)"
        ),
    )
    bench.add_argument("workload")
    bench.add_argument(
        "--sweep", action="append", default=[], metavar="AXIS=V1,V2,...",
        help="sweep an axis (config path or workload param); repeatable",
    )
    bench.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="comma-separated noise seeds (overrides --seed)",
    )
    _add_uniform_flags(bench)

    trace = sub.add_parser(
        "trace", help="run one workload with span tracing, export Perfetto JSON"
    )
    trace.add_argument("workload")
    trace.add_argument(
        "--out", default="trace.json",
        help="Chrome trace-event JSON output path (--trace OUT overrides)",
    )
    trace.add_argument(
        "--timeline", type=int, default=0, metavar="N",
        help="also print the first N rows of the plain-text timeline",
    )
    _add_uniform_flags(trace)

    serve = sub.add_parser(
        "serve",
        help="answer a what-if query batch (store -> surrogate -> simulation)",
        epilog=(
            "QUERIES.json is either a bare array of query objects "
            '({"workload": ..., "params": {...}}) or an object with '
            '"fit" (surrogate-fitting campaigns) and "queries" lists; '
            "see docs/serving.md and examples/serve_queries.json. "
            "Dotted --param entries override the base config; plain "
            "ones become default workload parameters for every query."
        ),
    )
    serve.add_argument(
        "queries", nargs="?", default=None, metavar="QUERIES.json",
        help="query batch to answer (omit with --gc)",
    )
    serve.add_argument(
        "--store", required=True, metavar="DIR",
        help="content-addressed result store directory (shared with "
             "campaign --cache-dir)",
    )
    serve.add_argument(
        "--gc", action="store_true",
        help="garbage-collect the store instead of serving: evict every "
             "entry whose recorded code version no longer matches the "
             "running simulator, report count and bytes reclaimed",
    )
    serve.add_argument(
        "--out", default=None, metavar="ANSWERS.json",
        help="write answers + provenance + serve stats as JSON",
    )
    serve.add_argument(
        "--verify-fraction", type=float, default=0.1, dest="verify_fraction",
        help="fraction of surrogate answers re-simulated and audited "
             "(0 disables, 1 audits every answer)",
    )
    serve.add_argument(
        "--margin", type=float, default=0.05,
        help="max tolerated surrogate relative error before quarantine",
    )
    _add_uniform_flags(serve)

    analyze = sub.add_parser(
        "analyze",
        help="analyse a recorded trace export (latency tolerance, "
             "critical path, recovery)",
        epilog=(
            "examples: 'trace barrier --param n_nodes=4 --out t.json' then "
            "'analyze t.json' (per-component latency slack), "
            "'analyze t.json --what critical-path --msg-id 3'"
        ),
    )
    analyze.add_argument("trace", metavar="TRACE.json",
                         help="Chrome trace-event JSON written by --trace/trace")
    analyze.add_argument(
        "--what", default="latency-tolerance", metavar="ANALYSIS",
        help=f"analysis to run: {', '.join(TRACE_ANALYSES)} "
             "(default latency-tolerance)",
    )
    analyze.add_argument(
        "--msg-id", type=int, default=None, dest="msg_id", metavar="N",
        help="restrict the analysis to one traced message id",
    )

    faults = sub.add_parser(
        "faults", help="list fault-injection sites or validate a plan file"
    )
    faults.add_argument(
        "plan", nargs="?", default=None, metavar="PLAN.json",
        help="plan file to validate (omit to list sites/kinds/actions)",
    )
    faults.add_argument(
        "--workload", default=None, metavar="NAME",
        help="also run one registered workload under the validated plan",
    )
    _add_uniform_flags(faults)
    return parser


def _load_fault_plan(path: str, out):
    """Load a fault plan from ``path``; None + message on any error."""
    from repro.faults import FaultPlan, FaultPlanError

    try:
        return FaultPlan.load(path)
    except FaultPlanError as exc:
        print(f"invalid fault plan {path!r}: {exc}", file=out)
    except OSError as exc:
        print(f"cannot read fault plan {path!r}: {exc}", file=out)
    return None


def _fault_stats_line(testbed) -> str:
    """One-line injection/recovery summary for a fault-plan run."""
    stats = testbed.faults.stats()
    parts = [f"faults: injected={stats['injected']}"]
    retransmits = exhausted = duplicates = 0
    for node in (testbed.node1, testbed.node2):
        reliability = node.nic.reliability
        if reliability is not None:
            retransmits += reliability.retransmits
            exhausted += reliability.exhausted
            duplicates += reliability.duplicates_suppressed
    parts.append(f"retransmits={retransmits}")
    parts.append(f"exhausted={exhausted}")
    parts.append(f"duplicates_suppressed={duplicates}")
    parts.append(f"acks_dropped={testbed.fabric.acks_dropped}")
    return " ".join(parts)


def _resolve_workload(name: str, out):
    """Look ``name`` up in the registry; None + message on a miss."""
    from repro.campaign.workloads import get_workload, workload_names

    try:
        return get_workload(name)
    except KeyError:
        print(
            f"unknown workload {name!r}; registered: "
            f"{', '.join(workload_names())}",
            file=out,
        )
        return None


def _cmd_whatif(args: argparse.Namespace, out) -> int:
    times = ComponentTimes.paper()
    analysis = WhatIfAnalysis(times)
    if args.panels:
        print(exp.experiment_fig17(times), file=out)
        return 0
    metric = Metric(args.metric)
    catalogue = (
        analysis.injection_components()
        if metric is Metric.INJECTION
        else {
            **analysis.latency_cpu_components(),
            **analysis.latency_io_components(),
            **analysis.latency_network_components(),
        }
    )
    if not args.component:
        print("available components:", ", ".join(sorted(catalogue)), file=out)
        return 2
    try:
        component = catalogue[args.component]
    except KeyError:
        print(
            f"unknown component {args.component!r}; "
            f"choose from: {', '.join(sorted(catalogue))}",
            file=out,
        )
        return 2
    speedup = analysis.speedup(metric, component, args.reduction)
    print(
        f"reducing {args.component} ({component:.2f} ns) by "
        f"{args.reduction * 100:.0f}% speeds up {metric.value} by "
        f"{speedup * 100:.2f}%",
        file=out,
    )
    return 0


def _cmd_rank(args: argparse.Namespace, out, times: ComponentTimes) -> int:
    analysis = WhatIfAnalysis(times)
    metric = Metric(args.metric)
    catalogue = (
        analysis.injection_components()
        if metric is Metric.INJECTION
        else {
            **analysis.latency_cpu_components(),
            **analysis.latency_io_components(),
            **analysis.latency_network_components(),
        }
    )
    ranked = sorted(
        (
            (name, analysis.speedup(metric, value, args.reduction))
            for name, value in catalogue.items()
        ),
        key=lambda pair: -pair[1],
    )
    print(
        f"{metric.value} speedup from a {args.reduction * 100:.0f}% reduction, "
        "best first:",
        file=out,
    )
    for name, speedup in ranked:
        print(f"  {name:<16} {speedup * 100:6.2f}%", file=out)
    return 0


def _cmd_campaign(args: argparse.Namespace, out) -> int:
    if not _check_jobs(args, out):
        return 2
    split = _split_params(args.param, out)
    if split is None:
        return 2
    params, overrides = split
    if params:
        print(
            "campaign has no workload parameters; --param takes dotted "
            "config paths here (e.g. nic.txq_depth=4)",
            file=out,
        )
        return 2
    fault_plan = None
    if args.faults is not None:
        fault_plan = _load_fault_plan(args.faults, out)
        if fault_plan is None:
            return 2
    if args.replications:
        for flag, given in (
            ("--faults", fault_plan is not None),
            ("--trace", bool(args.trace_out)),
            ("--param", bool(overrides)),
        ):
            if given:
                print(f"{flag} is not supported with --replications", file=out)
                return 2
        print(
            f"running the {args.replications}-seed replication campaign "
            f"(jobs={args.jobs})...",
            file=out,
        )
        print(
            exp.experiment_replication(
                n_replications=args.replications,
                quick=args.quick,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
            ),
            file=out,
        )
        return 0

    from repro.analysis import measure_component_times

    print("running the measurement campaign...", file=out)
    config = SystemConfig.paper_testbed(
        seed=args.seed, deterministic=args.deterministic
    )
    if fault_plan is not None:
        config = config.evolve(faults=fault_plan)
    if overrides:
        maybe = _apply_overrides(config, overrides, out)
        if maybe is None:
            return 2
        config = maybe
    if args.trace_out:
        from repro.trace import trace_session

        with trace_session() as session:
            campaign = measure_component_times(
                config, quick=args.quick, jobs=args.jobs
            )
        _write_trace(session, args.trace_out, out)
    else:
        campaign = measure_component_times(config, quick=args.quick, jobs=args.jobs)
    measured = campaign.to_component_times()
    print(exp.experiment_table1(measured, reference=ComponentTimes.paper()), file=out)
    print("", file=out)
    print(exp.experiment_validation(measured, campaign.observed), file=out)
    return 0


def _parse_sweep_value(text: str):
    """One sweep literal: int/float/bool where they parse, else string."""
    import ast

    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _split_params(entries, out):
    """``--param`` entries → (workload kwargs, dotted config overrides).

    Returns None (after printing a message) on a malformed entry.
    """
    params: dict = {}
    overrides: dict = {}
    for entry in entries:
        key, separator, value = entry.partition("=")
        if not separator or not key:
            print(f"bad --param {entry!r}; expected K=V", file=out)
            return None
        target = overrides if "." in key else params
        target[key] = _parse_sweep_value(value)
    return params, overrides


def _apply_overrides(config: SystemConfig, overrides: dict, out) -> SystemConfig | None:
    """Dotted ``--param`` overrides onto the config; None + message on error."""
    from repro.campaign.spec import apply_config_overrides

    try:
        return apply_config_overrides(config, overrides)
    except (AttributeError, TypeError, ValueError) as exc:
        print(f"bad --param: {exc}", file=out)
        return None


def _check_jobs(args: argparse.Namespace, out) -> bool:
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=out)
        return False
    return True


def _write_trace(session, path: str, out) -> dict:
    """Write the Chrome trace and print the one-line summary."""
    session.write_chrome_trace(path)
    summary = session.summary()
    events = summary["events"]
    print(
        f"trace: {summary['spans']} spans, {summary['instants']} instants "
        f"({summary['tracers']} tracer(s), {summary['dropped_spans']} dropped; "
        f"kernel {events['executed']} executed "
        f"+ {events['fast_forwarded']} fast-forwarded events) "
        f"-> {path}",
        file=out,
    )
    return summary


def _cmd_bench_campaign(
    args: argparse.Namespace, out, config: SystemConfig, params: dict
) -> int:
    from repro.campaign import CampaignSpec, SweepAxis, run_campaign

    axes = []
    for entry in args.sweep:
        name, separator, values = entry.partition("=")
        if not separator or not values:
            print(f"bad --sweep {entry!r}; expected AXIS=V1,V2,...", file=out)
            return 2
        axes.append(
            SweepAxis(
                name, tuple(_parse_sweep_value(v) for v in values.split(","))
            )
        )
    try:
        seeds = (
            tuple(int(s) for s in args.seeds.split(","))
            if args.seeds
            else (args.seed,)
        )
    except ValueError:
        print(
            f"bad --seeds {args.seeds!r}; expected comma-separated integers",
            file=out,
        )
        return 2
    spec = CampaignSpec(
        name=f"bench-{args.workload}",
        workload=args.workload,
        base_config=config,
        axes=tuple(axes),
        params=params,
        seeds=seeds,
        trace=bool(args.trace_out),
    )
    try:
        result = run_campaign(spec, jobs=args.jobs, cache_dir=args.cache_dir)
    except (ValueError, AttributeError, TypeError) as exc:
        # Bad --jobs values, sweep axes naming nonexistent config
        # fields, or sweep values of the wrong type surface here; a
        # traceback helps nobody at the CLI.
        print(f"campaign error: {exc}", file=out)
        return 2
    print(result.render(), file=out)
    return 0 if not result.failures else 1


def _cmd_bench(args: argparse.Namespace, out) -> int:
    if _resolve_workload(args.workload, out) is None:
        return 2
    if not _check_jobs(args, out):
        return 2
    split = _split_params(args.param, out)
    if split is None:
        return 2
    params, overrides = split
    config = SystemConfig.paper_testbed(
        seed=args.seed, deterministic=args.deterministic
    )
    if args.faults is not None:
        plan = _load_fault_plan(args.faults, out)
        if plan is None:
            return 2
        config = config.evolve(faults=plan)
    if overrides:
        maybe = _apply_overrides(config, overrides, out)
        if maybe is None:
            return 2
        config = maybe
    legacy = {"put_bw", "am_lat", "osu_mr", "osu_latency"}
    campaign_mode = (
        args.sweep or args.seeds or args.jobs != 1 or args.cache_dir
        or args.workload not in legacy
    )
    if campaign_mode:
        return _cmd_bench_campaign(args, out, config, params)

    from repro.bench import (
        run_am_lat,
        run_osu_latency,
        run_osu_message_rate,
        run_put_bw,
    )

    runners = {
        "put_bw": run_put_bw,
        "am_lat": run_am_lat,
        "osu_mr": run_osu_message_rate,
        "osu_latency": run_osu_latency,
    }
    runner = runners[args.workload]
    try:
        if args.trace_out:
            from repro.trace import trace_session

            with trace_session() as session:
                result = runner(config=config, **params)
            _write_trace(session, args.trace_out, out)
        else:
            result = runner(config=config, **params)
    except TypeError as exc:
        print(f"bad --param for workload {args.workload!r}: {exc}", file=out)
        return 2

    if args.workload == "put_bw":
        print(
            f"put_bw: NIC-observed injection overhead "
            f"{result.mean_injection_overhead_ns:.2f} ns "
            f"({result.message_rate_per_s / 1e6:.3f} M msg/s)",
            file=out,
        )
    elif args.workload == "am_lat":
        print(f"am_lat: observed latency {result.observed_latency_ns:.2f} ns", file=out)
    elif args.workload == "osu_mr":
        print(
            f"osu_mr: {result.message_rate_per_s / 1e6:.3f} M msg/s "
            f"(1/rate = {result.cpu_side_injection_overhead_ns:.2f} ns)",
            file=out,
        )
    else:
        print(
            f"osu_latency: observed latency {result.observed_latency_ns:.2f} ns",
            file=out,
        )
    if config.faults is not None:
        print(_fault_stats_line(result.testbed), file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    """Batch what-ifs: fit surrogates, answer queries, report provenance."""
    import json

    from repro.serve.service import Query, ServeTier
    from repro.serve.verify import SampledVerifier

    if args.gc:
        from repro.serve.store import ResultStore, code_version

        report = ResultStore(args.store).prune()
        print(
            f"serve --gc: scanned {report['scanned']} entries, "
            f"kept {report['kept']}, evicted {report['removed']} "
            f"({report['bytes_reclaimed']} bytes reclaimed; "
            f"current code version {code_version()})",
            file=out,
        )
        return 0
    if args.queries is None:
        print("serve: QUERIES.json is required unless --gc is given", file=out)
        return 2
    if not _check_jobs(args, out):
        return 2
    split = _split_params(args.param, out)
    if split is None:
        return 2
    default_params, overrides = split
    config = SystemConfig.paper_testbed(
        seed=args.seed, deterministic=args.deterministic
    )
    if overrides:
        maybe = _apply_overrides(config, overrides, out)
        if maybe is None:
            return 2
        config = maybe

    try:
        with open(args.queries, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read queries file {args.queries!r}: {exc}", file=out)
        return 2
    if isinstance(payload, list):
        fits, entries = [], payload
    elif isinstance(payload, dict):
        fits = payload.get("fit", [])
        entries = payload.get("queries", [])
    else:
        print(f"queries file {args.queries!r}: expected a list or object", file=out)
        return 2

    try:
        verifier = SampledVerifier(fraction=args.verify_fraction, margin=args.margin)
    except ValueError as exc:
        print(f"bad verifier settings: {exc}", file=out)
        return 2
    tier = ServeTier(args.store, base_config=config, verifier=verifier, jobs=args.jobs)

    for spec in (*fits, *entries):
        name = spec.get("workload") if isinstance(spec, dict) else None
        if name is not None and _resolve_workload(name, out) is None:
            return 2

    try:
        for fit in fits:
            surrogate = tier.fit(
                workload=fit["workload"],
                axes={name: tuple(values) for name, values in fit["axes"].items()},
                params={**default_params, **fit.get("params", {})},
                seeds=tuple(fit.get("seeds", (args.seed,))),
                free_params=tuple(fit.get("free_params", ())),
                name=fit.get("name"),
            )
            print(
                f"fit: {surrogate.name} from {surrogate.fitted_points} "
                f"simulated points, envelope "
                f"{ {k: list(v) for k, v in surrogate.envelope.axes.items()} }",
                file=out,
            )
        queries = [
            Query.from_dict(
                {**entry, "params": {**default_params, **entry.get("params", {})}}
            )
            for entry in entries
        ]
    except (KeyError, TypeError, ValueError) as exc:
        print(f"bad queries file {args.queries!r}: {exc}", file=out)
        return 2

    answers = tier.query_batch(queries)
    failed = 0
    for answer in answers:
        inputs = {**answer.query.config_overrides, **answer.query.params}
        compact = ", ".join(f"{k}={v}" for k, v in sorted(inputs.items()))
        if not answer.ok:
            failed += 1
            print(
                f"[{answer.source}] {answer.query.workload}({compact}): "
                f"{answer.error}",
                file=out,
            )
            continue
        body = ", ".join(
            f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(answer.measurements.items())
        )
        suffix = f" via {answer.surrogate}" if answer.surrogate else ""
        if answer.verification is not None:
            suffix += (
                f" (verified, err "
                f"{answer.verification.max_relative_error * 100:.2f}%)"
                if answer.verification.passed
                else " (audit FAILED, served simulation)"
            )
        print(
            f"[{answer.source}] {answer.query.workload}({compact}): {body}{suffix}",
            file=out,
        )
    stats = tier.stats()
    rates = stats["rates"]
    print(
        f"serve: {stats['queries']} queries — "
        f"store {rates['store_hit']:.0%}, "
        f"surrogate {rates['surrogate_hit']:.0%}, "
        f"simulated {rates['simulation']:.0%}, "
        f"verified {stats['verifier']['verifications']}, "
        f"quarantined {stats['verifier']['quarantines']}",
        file=out,
    )
    if args.out:
        document = {
            "answers": [answer.to_dict(include_host=False) for answer in answers],
            "stats": stats,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"answers -> {args.out}", file=out)
    return 1 if failed else 0


def _cmd_trace(args: argparse.Namespace, out) -> int:
    workload = _resolve_workload(args.workload, out)
    if workload is None:
        return 2
    if not _check_jobs(args, out):
        return 2
    split = _split_params(args.param, out)
    if split is None:
        return 2
    params, overrides = split
    config = SystemConfig.paper_testbed(
        seed=args.seed, deterministic=args.deterministic
    )
    if args.faults is not None:
        plan = _load_fault_plan(args.faults, out)
        if plan is None:
            return 2
        config = config.evolve(faults=plan)
    if overrides:
        maybe = _apply_overrides(config, overrides, out)
        if maybe is None:
            return 2
        config = maybe
    out_path = args.trace_out or args.out

    from repro.trace import critical_path_report, pick_breakdown_message, trace_session

    with trace_session() as session:
        measurements = workload(config, **params)
    body = ", ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in sorted(measurements.items())
    )
    print(f"{args.workload}: {body}", file=out)
    summary = _write_trace(session, out_path, out)
    for layer, stats in sorted(summary["per_layer"].items()):
        print(
            f"  {layer:<8} {stats['spans']:>7} spans "
            f"{stats['total_ns']:>14.2f} ns total "
            f"{stats['instants']:>7} instants",
            file=out,
        )

    # Critical path of the last message with a complete forward path
    # (workloads that never cross the fabric simply skip this report).
    spans = session.spans()
    msg_id = pick_breakdown_message(spans)
    if msg_id is not None:
        print("", file=out)
        print(critical_path_report(spans, msg_id), file=out)

    if args.timeline > 0:
        from repro.reporting import render_timeline

        print("", file=out)
        print(render_timeline(spans, limit=args.timeline), file=out)
    return 0


def _cmd_analyze(args: argparse.Namespace, out) -> int:
    """Offline analyses over an exported trace file."""
    import json

    if args.what not in TRACE_ANALYSES:
        print(
            f"unknown analysis {args.what!r}; registered: "
            f"{', '.join(TRACE_ANALYSES)}",
            file=out,
        )
        return 2
    try:
        with open(args.trace, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read trace file {args.trace!r}: {exc}", file=out)
        return 2

    from repro.trace import instants_from_chrome, spans_from_chrome

    try:
        spans = spans_from_chrome(payload)
        marks = instants_from_chrome(payload)
    except (KeyError, TypeError) as exc:
        print(
            f"trace file {args.trace!r} is not a repro trace export: {exc}",
            file=out,
        )
        return 2

    if args.what == "latency-tolerance":
        from repro.analysis.latency_tolerance import (
            latency_tolerance,
            tolerance_report_text,
        )

        report = latency_tolerance(spans, msg_id=args.msg_id)
        if not report.graph.nodes:
            print("trace contains no attributable spans", file=out)
            return 2
        print(tolerance_report_text(report), file=out)
        return 0

    if args.what == "critical-path":
        from repro.trace import critical_path_report, pick_breakdown_message

        msg_id = args.msg_id
        if msg_id is None:
            msg_id = pick_breakdown_message(spans)
        if msg_id is None:
            print(
                "no message with a complete forward path in the trace; "
                "give --msg-id",
                file=out,
            )
            return 2
        print(critical_path_report(spans, msg_id), file=out)
        return 0

    from repro.trace import recovery_summary

    counts = recovery_summary(marks)
    total = sum(counts.values())
    print(f"recovery events: {total}", file=out)
    for name, count in sorted(counts.items()):
        print(f"  {name:<16} {count}", file=out)
    return 0


def _cmd_faults(args: argparse.Namespace, out) -> int:
    from repro.faults import ACTIONS, KINDS, SITES

    if args.plan is not None and args.faults is not None and args.plan != args.faults:
        print("give the plan either positionally or via --faults, not both", file=out)
        return 2
    plan_path = args.plan if args.plan is not None else args.faults
    if plan_path is None:
        if args.workload is not None:
            print("--workload needs a fault plan to run under", file=out)
            return 2
        print("fault-injection sites:", file=out)
        for site, description in sorted(SITES.items()):
            print(f"  {site:<16} {description}", file=out)
        print(f"rule kinds:   {', '.join(KINDS)}", file=out)
        print(f"rule actions: {', '.join(ACTIONS)}", file=out)
        return 0
    plan = _load_fault_plan(plan_path, out)
    if plan is None:
        return 2
    print(f"plan {plan.name!r}: {len(plan.rules)} rule(s), valid", file=out)
    for index, rule in enumerate(plan.rules):
        if rule.kind == "nth":
            trigger = f"occurrences={list(rule.occurrences)}"
        elif rule.kind == "window":
            trigger = f"p={rule.probability} window_ns={list(rule.window_ns or ())}"
        else:
            trigger = f"p={rule.probability}"
        print(f"  [{index}] {rule.site} {rule.action} ({rule.kind}, {trigger})",
              file=out)
    if args.workload is not None:
        # Same machinery as `bench NAME --faults PLAN` — the plan just
        # came in positionally.
        bench_args = argparse.Namespace(
            workload=args.workload,
            sweep=[],
            seeds=None,
            param=args.param,
            faults=plan_path,
            trace_out=args.trace_out,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            seed=args.seed,
            deterministic=args.deterministic,
        )
        return _cmd_bench(bench_args, out)
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    times = ComponentTimes.paper()
    try:
        return _dispatch(args, out, times)
    except BrokenPipeError:
        # Piping into `head` etc. closed stdout early; exit quietly.
        return 0


def _dispatch(args: argparse.Namespace, out, times: ComponentTimes) -> int:

    if args.command == "table1":
        print(exp.experiment_table1(times), file=out)
        return 0
    if args.command == "breakdown":
        print(_BREAKDOWNS[args.figure](times), file=out)
        return 0
    if args.command == "whatif":
        return _cmd_whatif(args, out)
    if args.command == "validate":
        print(exp.experiment_validation(times, PAPER_OBSERVATIONS), file=out)
        return 0
    if args.command == "insights":
        print(exp.experiment_insights(times), file=out)
        return 0
    if args.command == "rank":
        return _cmd_rank(args, out, times)
    if args.command == "campaign":
        return _cmd_campaign(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "analyze":
        return _cmd_analyze(args, out)
    if args.command == "faults":
        return _cmd_faults(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
