"""photonsim benchmark: one workload, one seed, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh
worker process (worker.py), so set-up time and peak memory belong to one
workload.  `setup_s` is the median over SETUP_SAMPLES fresh processes: the
measured worker plus SETUP_SAMPLES - 1 that stop after set-up.

With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run.  The line before it is a
record of the environment and of details that are not metrics (the tail's
percentile and sample count, failed_frac, binding sites patched).  Exit code
0 means the result was printed; `correct` says whether every task's output
passed its check.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5
#: The whole run, all worker processes included, ends within this.
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker did not finish within {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without running git; the
    benchmark may run in a copy that is not a repository."""
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
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    # BENCHMARK.json names the workloads and the metrics each mode prints.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="photonsim closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "photonsim" / "__init__.py").is_file():
        print(f"error: no photonsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = [] if args.trace else [
            run_worker(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)
        ]
        report = run_worker(args, deadline, setup_only=False)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    detail = {
        "attempted": report["attempted"],
        "failed": report["failed"],
        "failed_frac": report["failed"] / report["attempted"],
        "errors": report["errors"],
    }
    if args.trace:
        for key in ("binding_sites", "spans", "spans_file", "untraced_task_s_p50", "traced_tasks"):
            detail[key] = report[key]
        listed = spec["per_layer"]
    else:
        setups = [p["setup_s"] for p in probes] + [report["setup_s"]]
        metrics["setup_s"] = statistics.median(setups)
        detail.update(
            setup_s_samples=setups,
            task_s_p50=report["task_s_p50"],
            task_s_tail=report["task_s_tail"],
            reference_s_p50=report["reference_s_p50"],
            task_s_tail_percentile=report["tail_percentile"],
            task_s_tail_samples=report["tail_samples"],
            max_abs_err=report["max_abs_err"],
        )
        listed = spec["end_to_end"]
    print(json.dumps({"env": environment(args, report["numpy"]), "detail": detail}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
