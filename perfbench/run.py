"""Run one flathg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload runs in this one process, one
thread, as a closed loop: passes over the workload's fixed case list, each
case waiting on its verdict, for the given number of seconds. Every answer
is checked against the benchmark's own references. Times are wall times
scaled to a reference machine speed (see harness.py). With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 it carries
the per-layer metrics from a traced run. The line before it is the full
record: environment, sample counts, raw wall times and failures. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads
from harness import Clock, Harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Workload processes run with a fixed hash seed so that set and dict
# iteration orders, and with them every count, repeat between runs.
HASH_SEED = "0"
# Set-up is measured this many times in a run; the median is reported.
SETUP_REPEATS = 7
SPAN_DIR = ROOT / "bench_out"


def set_up(workload: str, seed: int):
    """Import flathg afresh and make the workload's inputs; returns the
    set-up's (start, end) and the cases."""
    for name in [m for m in sys.modules if m == "flathg" or m.startswith("flathg.")]:
        del sys.modules[name]
    start = time.perf_counter()
    fl = importlib.import_module("flathg")
    cases = workloads.WORKLOADS[workload](fl, seed)
    end = time.perf_counter()
    if Path(fl.__file__).resolve().parent != SRC / "flathg":
        raise ImportError(f"flathg was imported from {fl.__file__}, not from {SRC}")
    return (start, end), cases


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/flathg's Python files, names and contents: identifies
    the program where there is no git commit."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "flathg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _median_metric(samples, unit, scale=1.0):
    return {"value": statistics.median(samples) * scale, "unit": unit, "samples": len(samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    calibration = workloads.CALIBRATIONS[args.workload]
    with Clock(calibration) as clock:
        setup_spans = []
        try:
            for _ in range(SETUP_REPEATS):
                stretch, cases = set_up(args.workload, args.seed)
                setup_spans.append(stretch)
        except ImportError as exc:
            print(f"perfbench: cannot import flathg from {SRC}: {exc}", file=sys.stderr)
            return 2
        harness = Harness(cases)
        tracer = spans.Tracer(clock.wall) if args.trace else None
        passes = harness.run_passes(args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    def pass_wall(p):
        return sum(clock.wall(*c) for c in p.cases)

    def pass_scaled(p):
        return sum(clock.scaled(*c) for c in p.cases)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "calibration": {"loop": calibration.loop.__name__, "reference_s": calibration.reference_s},
        "cases_per_pass": len(harness.cases),
        "wall": {
            "setup_s": _median_metric([clock.wall(*s) for s in setup_spans], "s"),
            "pass_s": _median_metric([pass_wall(p) for p in passes], "s"),
            "scale": _median_metric([pass_scaled(p) / pass_wall(p) for p in passes], "ratio"),
        },
    }
    if args.trace:
        untraced, traced = passes[::2], passes[1::2]
        metrics = {}
        for name, unit, _ in spans.metric_specs():
            if name == spans.OVERHEAD:
                ratios = [pass_scaled(t) / pass_scaled(u) for u, t in zip(untraced, traced)]
                metrics[name] = _median_metric(ratios, unit)
            elif unit == "s":
                metrics[name] = _median_metric(
                    [p.layers[name] * pass_scaled(p) / pass_wall(p) for p in traced], unit
                )
            else:
                metrics[name] = _median_metric([p.layers[name] for p in traced], unit)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        record["spans_file"] = str(span_file.relative_to(ROOT))
        record["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    else:
        # times[p][c] is case c's time in pass p. case_ms.p50 is the median
        # over cases of each case's median over passes: a median pooled over
        # every sample falls between two cases when their number is even,
        # and jumps between their times with single samples.
        times = [[clock.scaled(*c) for c in p.cases] for p in passes]
        metrics = {
            "setup_s": _median_metric([clock.scaled(*s) for s in setup_spans], "s"),
            "pass_s": _median_metric([sum(t) for t in times], "s"),
            "case_ms.p50": _median_metric(
                [statistics.median(case) for case in zip(*times)], "ms", 1000.0
            ),
            "peak_rss_mb": {"value": rss_mb, "unit": "MB", "samples": 1},
        }
        record["passes"] = len(passes)
    failed = len(harness.failures)
    record.update(
        attempted=harness.attempted,
        failed=failed,
        failed_share={"value": failed / harness.attempted, "unit": "share", "samples": harness.attempted},
        failures=harness.failures[:20],
        metrics=metrics,
    )
    for failure in harness.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": harness.attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    sys.exit(main())
