"""Check the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; takes about two minutes. It checks that

1. a deliberately wrong reference answer makes a pass report failures,
   on every workload, so failed_share can rise above 0;
2. a short run of each workload, untraced and traced, exits 0, answers
   correctly and prints every metric BENCHMARK.json names with its unit;
3. in a directory holding only BENCHMARK.json and perfbench, with no
   flathg to import, the benchmark exits non-zero and prints no result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import reference as ref
import workloads
from harness import Harness

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / "bench_out" / "selftest-bare"

# One wrong answer per workload: (reference attribute, wrong value).
WRONG = {
    "suite": ("SUITE_DIGEST", "0" * 64),
    "arity": ("strongcolor_quotient", lambda n: 4 * n + 3),
    "tables": ("family_size", lambda i: 6 * i + 9),
    "search": ("cycle_colorings", lambda n: 2**n),
}


def wrong_reference_fails(workload: str) -> list[str]:
    fl = importlib.import_module("flathg")
    attribute, wrong = WRONG[workload]
    with mock.patch.object(ref, attribute, wrong):
        harness = Harness(workloads.WORKLOADS[workload](fl, 1))
        harness.run_passes(0)
    if not harness.failures:
        return [f"{workload}: wrong {attribute} went unnoticed"]
    return []


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def short_run_reports(workload: str, trace: int, spec: dict) -> list[str]:
    label = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append(f"{label}: a metric value is not a number")
    return problems


def bare_directory_refuses() -> list[str]:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(ROOT / "perfbench", SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SCRATCH, "arity", 0)
    finally:
        shutil.rmtree(SCRATCH)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without flathg: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    problems = []
    for workload in workloads.WORKLOADS:
        problems += wrong_reference_fails(workload)
        for trace in (0, 1):
            problems += short_run_reports(workload, trace, spec)
    problems += bare_directory_refuses()
    for problem in problems:
        print(f"selftest: FAILED {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
