"""Tests for the command-line interface (repro.cli)."""

import io
import json

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestStaticCommands:
    def test_table1(self):
        code, text = run_cli("table1")
        assert code == 0
        assert "PIO copy (64 bytes)" in text
        assert "175.42" in text

    @pytest.mark.parametrize(
        "figure,needle",
        [
            ("fig4", "pio_copy"),
            ("fig8", "llp_post"),
            ("fig10", "wire"),
            ("fig11", "MPI_Isend"),
            ("fig12", "post: 76.23%"),
            ("fig13", "1387.02"),
            ("fig14", "RX progress"),
            ("fig15", "Network: 27.60%"),
            ("fig16", "target: 66.20%"),
        ],
    )
    def test_breakdowns(self, figure, needle):
        code, text = run_cli("breakdown", figure)
        assert code == 0
        assert needle in text

    def test_validate(self):
        code, text = run_cli("validate")
        assert code == 0
        assert text.count("[OK]") == 4

    def test_insights(self):
        code, text = run_cli("insights")
        assert code == 0
        assert text.count("[HOLDS]") == 4


class TestWhatIf:
    def test_single_point(self):
        code, text = run_cli(
            "whatif", "--metric", "injection", "--component", "PIO",
            "--reduction", "0.84",
        )
        assert code == 0
        assert "29.88%" in text

    def test_panels(self):
        code, text = run_cli("whatif", "--panels")
        assert code == 0
        assert "Figure 17a" in text and "Figure 17d" in text

    def test_unknown_component_lists_options(self):
        code, text = run_cli("whatif", "--component", "FluxCapacitor")
        assert code == 2
        assert "Integrated NIC" in text

    def test_missing_component_lists_options(self):
        code, text = run_cli("whatif")
        assert code == 2
        assert "available components" in text


class TestBench:
    def test_am_lat_deterministic(self):
        code, text = run_cli("bench", "am_lat", "--deterministic")
        assert code == 0
        assert "observed latency" in text

    def test_put_bw(self):
        code, text = run_cli("bench", "put_bw", "--deterministic")
        assert code == 0
        assert "injection overhead" in text

    def test_unknown_workload_exits_2_and_lists_options(self):
        code, text = run_cli("bench", "nonsense")
        assert code == 2
        assert "unknown workload 'nonsense'" in text
        assert "am_lat" in text and "put_bw" in text


class TestTraceCommand:
    def test_writes_valid_chrome_trace(self, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code, text = run_cli(
            "trace", "am_lat", "--out", str(out_path), "--deterministic",
            "--param", "iterations=20", "--param", "warmup=5",
        )
        assert code == 0
        assert "critical path of message" in text
        assert "llp_post" in text and "rc_to_mem" in text

        payload = json.loads(out_path.read_text())
        assert payload["displayTimeUnit"] == "ns"
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"M", "X", "i"} <= phases

    def test_timeline_flag_renders_rows(self, tmp_path):
        code, text = run_cli(
            "trace", "am_lat", "--out", str(tmp_path / "t.json"),
            "--deterministic", "--param", "iterations=20",
            "--param", "warmup=5", "--timeline", "10",
        )
        assert code == 0
        assert "timeline:" in text
        assert "spans not shown" in text

    def test_unknown_workload_exits_2_and_lists_options(self, tmp_path):
        code, text = run_cli(
            "trace", "nonsense", "--out", str(tmp_path / "t.json")
        )
        assert code == 2
        assert "unknown workload 'nonsense'" in text
        assert "am_lat" in text

    def test_bad_param_exits_2(self, tmp_path):
        code, text = run_cli(
            "trace", "am_lat", "--out", str(tmp_path / "t.json"),
            "--param", "garbage",
        )
        assert code == 2


class TestParser:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")


class TestRank:
    def test_latency_ranking_puts_integrated_nic_first(self):
        code, text = run_cli("rank", "--reduction", "0.5")
        assert code == 0
        first = text.splitlines()[1]
        assert "Integrated NIC" in first

    def test_injection_ranking_puts_llp_first(self):
        code, text = run_cli("rank", "--metric", "injection")
        assert code == 0
        first = text.splitlines()[1]
        assert first.strip().startswith("LLP")


class TestFaultsCommand:
    def test_bare_invocation_lists_sites_kinds_actions(self):
        code, text = run_cli("faults")
        assert code == 0
        assert "network.wire" in text
        assert "pcie.dllp" in text
        assert "rule kinds:" in text and "nth" in text
        assert "rule actions:" in text and "corrupt" in text

    def test_valid_plan_validates_and_prints_rules(self):
        code, text = run_cli("faults", "examples/faults/lossy_wire.json")
        assert code == 0
        assert "valid" in text
        assert "network.wire drop" in text

    def test_invalid_plan_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rules": [{"site": "no.such.site"}]}')
        code, text = run_cli("faults", str(bad))
        assert code == 2
        assert "invalid fault plan" in text

    def test_missing_plan_file_exits_2(self, tmp_path):
        code, text = run_cli("faults", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read fault plan" in text


class TestBenchWithFaults:
    def test_put_bw_prints_recovery_stats(self):
        code, text = run_cli(
            "bench", "put_bw", "--deterministic",
            "--faults", "examples/faults/lossy_wire.json",
        )
        assert code == 0
        assert "faults: injected=" in text
        assert "retransmits=" in text
        assert "exhausted=0" in text

    def test_bad_plan_exits_2_before_running(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        code, text = run_cli(
            "bench", "am_lat", "--deterministic", "--faults", str(bad)
        )
        assert code == 2
        assert "invalid fault plan" in text


class TestCampaignWithFaults:
    def test_faults_with_replications_rejected(self):
        code, text = run_cli(
            "campaign", "--replications", "2",
            "--faults", "examples/faults/lossy_wire.json",
        )
        assert code == 2
        assert "--faults is not supported with --replications" in text


class TestUniformFlags:
    """The shared run conventions: --param/--faults/--trace/--jobs/
    --cache-dir spelled identically on bench, campaign, trace, faults."""

    def test_bench_param_workload_kwargs(self):
        code, text = run_cli(
            "bench", "am_lat", "--deterministic",
            "--param", "iterations=50", "--param", "warmup=5",
        )
        assert code == 0
        assert "observed latency" in text

    def test_bench_param_dotted_config_override(self):
        code, text = run_cli(
            "bench", "am_lat", "--deterministic",
            "--param", "iterations=50", "--param", "warmup=5",
            "--param", "network.switch_latency_ns=508.0",
        )
        assert code == 0
        # +400 ns of switch latency lands directly on the one-way path.
        latency = float(text.split("observed latency")[1].split("ns")[0])
        assert latency > 1400.0

    def test_bench_bad_param_exits_2(self):
        code, text = run_cli("bench", "am_lat", "--param", "garbage")
        assert code == 2
        assert "bad --param" in text

    def test_bench_unknown_workload_kwarg_exits_2(self):
        code, text = run_cli(
            "bench", "am_lat", "--deterministic", "--param", "bogus=1"
        )
        assert code == 2
        assert "bad --param for workload 'am_lat'" in text

    def test_bench_unknown_config_path_exits_2(self):
        code, text = run_cli(
            "bench", "am_lat", "--param", "nic.bogus=1"
        )
        assert code == 2
        assert "bad --param" in text

    def test_bench_trace_writes_chrome_trace(self, tmp_path):
        out_path = tmp_path / "bench.json"
        code, text = run_cli(
            "bench", "am_lat", "--deterministic",
            "--param", "iterations=30", "--param", "warmup=5",
            "--trace", str(out_path),
        )
        assert code == 0
        assert f"-> {out_path}" in text
        assert out_path.exists()

    def test_trace_accepts_jobs_and_cache_dir(self, tmp_path):
        code, _ = run_cli(
            "trace", "am_lat", "--out", str(tmp_path / "t.json"),
            "--deterministic", "--param", "iterations=20",
            "--param", "warmup=5", "--jobs", "2",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0

    def test_trace_faults_flag(self, tmp_path):
        code, text = run_cli(
            "trace", "put_bw", "--out", str(tmp_path / "t.json"),
            "--deterministic", "--param", "n_messages=50",
            "--param", "warmup=10",
            "--faults", "examples/faults/lossy_wire.json",
        )
        assert code == 0
        assert "trace:" in text

    def test_bench_sweep_value_of_wrong_type_exits_2(self):
        code, text = run_cli(
            "bench", "put_bw", "--sweep", "nic.txq_depth=oops"
        )
        assert code == 2
        assert "campaign error" in text

    def test_campaign_rejects_non_dotted_param(self):
        code, text = run_cli("campaign", "--param", "bogus=1")
        assert code == 2
        assert "dotted config paths" in text

    def test_campaign_trace_with_replications_rejected(self):
        code, text = run_cli("campaign", "--replications", "2", "--trace")
        assert code == 2
        assert "--trace is not supported with --replications" in text

    def test_campaign_passes_jobs_to_the_methodology(self, monkeypatch):
        import repro.analysis

        seen = {}

        class Stop(Exception):
            pass

        def fake(config, **kwargs):
            seen.update(kwargs)
            raise Stop

        monkeypatch.setattr(repro.analysis, "measure_component_times", fake)
        with pytest.raises(Stop):
            run_cli("campaign", "--quick", "--jobs", "3")
        assert seen == {"quick": True, "jobs": 3}

    def test_jobs_below_one_exits_2_everywhere(self):
        for argv in (
            ("bench", "am_lat", "--jobs", "0"),
            ("campaign", "--jobs", "0"),
            ("trace", "am_lat", "--jobs", "0"),
        ):
            code, text = run_cli(*argv)
            assert code == 2, argv
            assert "--jobs must be >= 1" in text


class TestFaultsRunsWorkload:
    def test_workload_under_plan_prints_recovery_stats(self):
        code, text = run_cli(
            "faults", "examples/faults/lossy_wire.json",
            "--workload", "put_bw", "--deterministic",
        )
        assert code == 0
        assert "valid" in text  # plan still validated and printed
        assert "faults: injected=" in text

    def test_plan_via_faults_flag(self):
        code, text = run_cli(
            "faults", "--faults", "examples/faults/lossy_wire.json"
        )
        assert code == 0
        assert "valid" in text

    def test_conflicting_plan_sources_exit_2(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text("{}")
        code, text = run_cli(
            "faults", "examples/faults/lossy_wire.json",
            "--faults", str(other),
        )
        assert code == 2
        assert "not both" in text

    def test_workload_without_plan_exits_2(self):
        code, text = run_cli("faults", "--workload", "put_bw")
        assert code == 2
        assert "needs a fault plan" in text

    def test_unknown_workload_exits_2_and_lists_options(self):
        code, text = run_cli(
            "faults", "examples/faults/lossy_wire.json",
            "--workload", "nonsense",
        )
        assert code == 2
        assert "unknown workload 'nonsense'" in text


class TestBenchCollectives:
    def test_allreduce_with_topology_via_params(self):
        code, text = run_cli(
            "bench", "allreduce", "--deterministic",
            "--param", "n_nodes=4", "--param", "topology=ring",
        )
        assert code == 0
        assert "ok=1" in text and "n_nodes=4" in text


class TestServeCommand:
    def _queries(self, tmp_path, payload):
        path = tmp_path / "queries.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_bare_array_simulates_and_reports(self, tmp_path):
        queries = self._queries(
            tmp_path,
            [{"workload": "put_oneway_latency", "params": {"payload_bytes": 64}}],
        )
        code, text = run_cli(
            "serve", queries, "--store", str(tmp_path / "store"), "--deterministic"
        )
        assert code == 0
        assert "[simulation] put_oneway_latency(payload_bytes=64)" in text
        assert "serve: 1 queries" in text

    def test_fit_then_surrogate_then_store(self, tmp_path):
        queries = self._queries(
            tmp_path,
            {
                "fit": [
                    {
                        "workload": "put_oneway_latency",
                        "axes": {"payload_bytes": [1024, 4096]},
                    }
                ],
                "queries": [
                    {"workload": "put_oneway_latency", "params": {"payload_bytes": 1024}},
                    {"workload": "put_oneway_latency", "params": {"payload_bytes": 2048}},
                ],
            },
        )
        store = str(tmp_path / "store")
        code, text = run_cli(
            "serve", queries, "--store", store, "--deterministic",
            "--verify-fraction", "0",
        )
        assert code == 0
        assert "fit: " in text
        assert "[store]" in text
        assert "[surrogate]" in text

    def test_out_file_carries_answers_and_stats(self, tmp_path):
        queries = self._queries(
            tmp_path,
            [{"workload": "put_oneway_latency", "params": {"payload_bytes": 64}}],
        )
        out_path = tmp_path / "answers.json"
        code, _ = run_cli(
            "serve", queries, "--store", str(tmp_path / "store"),
            "--deterministic", "--out", str(out_path),
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        (answer,) = document["answers"]
        assert answer["source"] == "simulation"
        assert "duration_s" not in answer
        assert document["stats"]["queries"] == 1

    def test_failing_workload_reports_and_exits_nonzero(self, tmp_path):
        queries = self._queries(
            tmp_path, [{"workload": "selftest", "params": {"fail": True}}]
        )
        code, text = run_cli(
            "serve", queries, "--store", str(tmp_path / "store")
        )
        assert code == 1
        assert "[error] selftest(fail=True)" in text

    def test_missing_queries_file_reports(self, tmp_path):
        code, text = run_cli(
            "serve", str(tmp_path / "absent.json"),
            "--store", str(tmp_path / "store"),
        )
        assert code == 2
        assert "cannot read queries file" in text

    def test_gc_evicts_stale_entries(self, tmp_path, monkeypatch):
        import repro.serve.store as store_module
        from repro.serve.store import ResultStore

        store_dir = tmp_path / "store"
        store = ResultStore(store_dir)
        monkeypatch.setattr(store_module, "code_version", lambda: "0" * 16)
        store.put("stale", {"v": 1})
        monkeypatch.undo()
        store.put("live", {"v": 2})

        code, text = run_cli("serve", "--gc", "--store", str(store_dir))
        assert code == 0
        assert "kept 1, evicted 1" in text
        assert "bytes reclaimed" in text
        assert ResultStore(store_dir).get("live") == {"v": 2}

    def test_queries_required_without_gc(self, tmp_path):
        code, text = run_cli("serve", "--store", str(tmp_path / "store"))
        assert code == 2
        assert "required unless --gc" in text

    def test_malformed_entry_reports(self, tmp_path):
        queries = self._queries(tmp_path, [{"params": {}}])
        code, text = run_cli(
            "serve", queries, "--store", str(tmp_path / "store")
        )
        assert code == 2
        assert "bad queries file" in text

    def test_unknown_workload_lists_registry(self, tmp_path):
        queries = self._queries(tmp_path, [{"workload": "no_such_workload"}])
        code, text = run_cli(
            "serve", queries, "--store", str(tmp_path / "store")
        )
        assert code == 2
        assert "unknown workload 'no_such_workload'" in text
        assert "put_oneway_latency" in text  # the registered list is shown

    def test_dotted_param_overrides_base_config(self, tmp_path):
        queries = self._queries(
            tmp_path,
            [{"workload": "put_oneway_latency", "params": {"payload_bytes": 64}}],
        )
        code, text = run_cli(
            "serve", queries, "--store", str(tmp_path / "store"),
            "--deterministic", "--param", "network.switch_count=3",
        )
        assert code == 0
        assert "[simulation]" in text


class TestAnalyzeCommand:
    def _record(self, tmp_path):
        path = tmp_path / "trace.json"
        code, _ = run_cli(
            "trace", "barrier", "--param", "n_nodes=4",
            "--deterministic", "--out", str(path),
        )
        assert code == 0
        return str(path)

    def test_latency_tolerance_is_the_default_analysis(self, tmp_path):
        trace = self._record(tmp_path)
        code, text = run_cli("analyze", trace)
        assert code == 0
        assert "critical path" in text
        assert "slack" in text
        for component in ("host", "wire", "switch", "pcie", "rc_to_mem"):
            assert component in text

    def test_critical_path_analysis(self, tmp_path):
        trace = self._record(tmp_path)
        code, text = run_cli("analyze", trace, "--what", "critical-path")
        assert code == 0
        assert "rc_to_mem" in text and "wire" in text

    def test_msg_id_selects_one_message(self, tmp_path):
        trace = self._record(tmp_path)
        code, text = run_cli(
            "analyze", trace, "--what", "critical-path", "--msg-id", "1"
        )
        assert code == 0
        assert "message 1" in text

    def test_recovery_analysis_counts_events(self, tmp_path):
        trace = self._record(tmp_path)
        code, text = run_cli("analyze", trace, "--what", "recovery")
        assert code == 0
        assert "recovery events: 0" in text

    def test_unknown_analysis_exits_2_with_registered_list(self, tmp_path):
        trace = self._record(tmp_path)
        code, text = run_cli("analyze", trace, "--what", "frobnicate")
        assert code == 2
        assert "registered: latency-tolerance, critical-path, recovery" in text

    def test_missing_trace_file_exits_2(self, tmp_path):
        code, text = run_cli("analyze", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read trace file" in text

    def test_non_trace_json_exits_2(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": 1}')
        code, text = run_cli("analyze", str(bogus))
        assert code == 2
        assert "not a repro trace export" in text
