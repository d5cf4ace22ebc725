"""Smoke test of the benchmark at tiny size.

Runs every workload through ``run.py --size tiny`` once untraced and once
traced (a traced run also measures untraced first) and checks the
result line: every metric ``BENCHMARK.json`` declares for that mode is
printed, with its unit, as a finite number; the run is correct (no
failed answer, every digest equal to the untraced one and to the pinned
one); and the traced run attributed every executed calendar entry.

    python3 perfbench/smoke.py

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("p2p_breakdown", "allreduce_spin", "nic_offload", "serve_mix")


def check(workload: str, trace: int, declared: list[dict]) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "2019", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-800:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}\n{done.stdout[-1500:]}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"printed metrics differ from declared: {sorted(metrics)}")
    for metric in declared:
        entry = metrics.get(metric["name"], {})
        value = entry.get("value")
        if entry.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']} printed without its unit {metric['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric['name']} = {value!r} is not a finite number")
    if trace and metrics.get("trace.attributed_ratio", {}).get("value") != 1.0:
        problems.append("attribution does not cover every executed calendar entry")
    return problems


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(workload, trace, declared[kind])
            print(f"smoke {workload} --trace {trace}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
