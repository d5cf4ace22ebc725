"""Standing benchmark of the simulator's host (wall-clock) time.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

One run builds the workload from the seed, sets it up, then repeats its
questions in rounds, untraced, until ``--seconds`` have passed.  Every
round must reproduce the first round's output digest (and, at the
default seed, the digest pinned in ``perfbench/workloads.json``).  With
``--trace 1`` one more round runs under the outside-in tracer
(``perfbench/tracing.py``); its digest must equal the untraced one and
its calendar attribution must cover every executed entry.

All times are host seconds of the simulator, except model errors, which
compare simulated (virtual) nanoseconds.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
the metrics declared in ``BENCHMARK.json`` (end-to-end ones untraced,
per-layer ones with ``--trace 1``), each with its unit.  ``--size tiny``
shrinks every workload for ``perfbench/smoke.py``.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 2019
#: Fresh processes that time set-up on their own, besides this one.
SETUP_PROBES = 4


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Run:
    """One workload measured at one seed; see the module docstring."""

    def __init__(self, workloads, name: str, seed: int, size: str, work_dir: Path):
        self.workloads = workloads
        self.plan = workloads.plan(name, seed, size, work_dir)
        self.name, self.seed, self.size = name, seed, size
        spec = json.loads((HERE / "workloads.json").read_text())
        self.pinned = spec["digests"][name][size] if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.round_walls: list[float] = []
        self.latencies: list[float] = []
        self.model_error_pct = 0.0
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}

    # -- one round ---------------------------------------------------------
    def _round(self, state) -> tuple[float, list[float], str]:
        records, latencies = [], []
        for question in self.plan.questions(state):
            start = time.perf_counter()
            try:
                answer, error = question.ask(), None
            except Exception as exc:  # a failed answer, counted below
                answer, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            self.attempted += 1
            if error is None and answer.broken:
                error = "; ".join(answer.broken)
            if error is not None:
                self.failed += 1
                self.problems.append(f"{question.name}: {error}")
            records.append((question.name, answer, error))
        self.plan.teardown(state)
        digest = self.workloads.digest(
            [(name, answer.outputs if answer else error) for name, answer, error in records]
        )
        if self.digest is None:
            self.digest = digest
            errors = [
                abs(sim - model) / model * 100.0
                for _, answer, _ in records if answer
                for _, sim, model in answer.models
            ]
            self.model_error_pct = max(errors, default=0.0)
        return sum(latencies), latencies, digest

    def _check_digest(self, digest: str, answers: int, what: str) -> None:
        expected = [(self.digest, "the first round")]
        if self.pinned is not None:
            expected.append((self.pinned, f"the digest pinned for seed {self.seed}"))
        for wanted, label in expected:
            if digest != wanted:
                self.failed += answers
                self.problems.append(f"{what} digest {digest[:16]} differs from {label}")
                return

    # -- the untraced measurement -------------------------------------------
    def measure(self, seconds: float) -> None:
        plan = self.plan
        state = plan.setup()
        setup = [time.perf_counter() - _START]
        begin = time.perf_counter()
        while True:
            wall, latencies, digest = self._round(state)
            state = None
            if not self.round_walls:
                # Peak after set-up and one round, so the figure does not
                # depend on how many rounds the host fits in --seconds.
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.round_walls.append(wall)
            self.latencies.extend(latencies)
            self._check_digest(digest, len(latencies), f"round {len(self.round_walls)}")
            if time.perf_counter() - begin >= seconds:
                break
            gc.collect()
            plan.stats.clear()
            state = plan.setup()
        setup.extend(self._probe_setup())
        self.setup_samples = setup
        self.end_to_end = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(self.round_walls),
            "query_p50_ms": statistics.median(self.latencies) * 1e3,
            "query_p90_ms": statistics.quantiles(
                self.latencies, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mb": rss_mb,
        }

    def _probe_setup(self) -> list[float]:
        """Set-up times of fresh processes (imports included)."""
        samples = []
        for _ in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--workload", self.name, "--seed", str(self.seed), "--size", self.size],
                cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
            )
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
            samples.append(float(done.stdout.split()[-1]))
        return samples

    # -- the traced round --------------------------------------------------
    def trace(self) -> None:
        import tracing

        plan = self.plan
        gc.collect()
        plan.stats.clear()
        with tracing.traced() as (attribution, bounds):
            start = time.perf_counter()
            state = plan.setup()
            wall, latencies, digest = self._round(state)
            state = None
            total = time.perf_counter() - start
            executed, credited = attribution.executed(), attribution.credited()
            attribution.close()
        self._check_digest(digest, len(latencies), "traced")
        attributed = sum(attribution.entries.values())
        if attributed != executed:
            self.problems.append(
                f"attribution covered {attributed} of {executed} executed entries"
            )
        counts, seconds, stats = bounds.counts, bounds.seconds, plan.stats

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        layer = {}
        for name in tracing.LAYERS:
            layer[f"{name}.entries"] = attribution.entries[name]
            layer[f"{name}.self_s"] = attribution.self_s[name]
        queries = stats.get("queries", 0)
        layer.update({
            "sim.entries_executed": executed,
            "sim.entries_credited": credited,
            "sim.process_entries": attribution.process_entries,
            "sim.callback_entries": attribution.callback_entries,
            "sim.run_s": attribution.run_s,
            "sim.executed_per_s": ratio(executed, attribution.run_s),
            "sim.jitter_draws": counts["sim.jitter_draws"],
            "llp.progress_calls": counts["llp.progress_calls"],
            "llp.empty_progress_ratio": ratio(
                counts["llp.empty_progress_calls"], counts["llp.progress_calls"]),
            "hlp.progress_calls": counts["hlp.progress_calls"],
            "cpu.execute_calls": counts["cpu.execute_calls"],
            "network.frames": counts["network.frames"],
            "network.transmit_s": seconds["network.transmit_s"],
            "network.route_lookups": counts["network.route_lookups"],
            "network.route_s": seconds["network.route_s"],
            "pcie.tlps": counts["pcie.tlps"],
            "pcie.send_s": seconds["pcie.send_s"],
            "nic.offload_frames": counts["nic.offload_frames"],
            "bench.ff_engaged": ratio(stats.get("ff_engaged", 0), stats.get("ff_runs", 0)),
            "node.cluster_build_s": seconds["node.cluster_build_s"],
            "collectives.model_s": seconds["collectives.model_s"],
            "serve.store_gets": counts["serve.store_gets"],
            "serve.store_puts": counts["serve.store_puts"],
            "serve.store_get_s": seconds["serve.store_get_s"],
            "serve.store_put_s": seconds["serve.store_put_s"],
            "serve.store_hit_ratio": ratio(
                counts["serve.store_hits"], counts["serve.store_gets"]),
            "serve.surrogate_ratio": ratio(stats.get("surrogate_hits", 0), queries),
            "serve.simulated_ratio": ratio(stats.get("simulations", 0), queries),
            "serve.fit_s": stats.get("fit_s", 0.0),
            "campaign.points": stats.get("fit_points", 0) + stats.get("simulations", 0),
            "trace.overhead_ratio": ratio(wall, statistics.median(self.round_walls)),
            "trace.calendar_share": ratio(sum(attribution.self_s.values()), total),
            "trace.attributed_ratio": ratio(attributed, executed),
            "model.error_max_pct": self.model_error_pct,
        })
        self.per_layer = layer

    # -- reporting ---------------------------------------------------------
    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def report(self, declared: list[dict], values: dict[str, float]) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                for metric in declared
            },
        }

    def describe(self) -> None:
        pinned = "" if self.pinned is None else (
            ", pinned digest matches" if self.digest == self.pinned else ", PINNED DIGEST DIFFERS")
        print(f"{self.name} seed={self.seed} size={self.size}: "
              f"{len(self.round_walls)} untraced rounds, {self.attempted} answers, "
              f"{self.failed} failed (failed_ratio {self.failed / max(self.attempted, 1):g}), "
              f"digest {self.digest}{pinned}")
        print(f"  set-up samples (s): {', '.join(f'{s:.4f}' for s in self.setup_samples)}")
        print(f"  round walls (s): {', '.join(f'{w:.4f}' for w in self.round_walls)}")
        print(f"  per-answer latency: {len(self.latencies)} samples")
        print(f"  model_error_max_pct (simulated time, deterministic per seed): "
              f"{self.model_error_pct:.4f} %")
        for problem in self.problems:
            print(f"  problem: {problem}")


def _load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_workloads():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro resolved to {repro.__file__}, not {SRC}")
    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        return _fail(f"cannot import the simulator: {exc}")
    if args.workload not in workloads.NAMES:
        return _fail(f"--workload must be one of {', '.join(workloads.NAMES)}")

    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.setup_probe:
            plan = workloads.plan(args.workload, args.seed, args.size, work_dir)
            state = plan.setup()
            print(f"{time.perf_counter() - _START:.9f}")
            plan.teardown(state)
            return 0
        declared = _load_declared()
        run = Run(workloads, args.workload, args.seed, args.size, work_dir)
        run.measure(args.seconds)
        if args.trace:
            run.trace()
        run.describe()
        kind, values = ("per_layer", run.per_layer) if args.trace else ("end_to_end", run.end_to_end)
        for metric in declared[kind]:
            print(f"  {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}")
        print(json.dumps(run.report(declared[kind], values)))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
