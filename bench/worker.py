"""One workload in one fresh process: set up, run the closed loop, check.

Started by run.py; prints one JSON object as its last stdout line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawned-at T [--setup-only]

`--spawned-at` is the launcher's `time.monotonic()` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux), so `setup_s` covers
interpreter start, `import photonsim`, building the inputs and one untimed
warm-up task.  With `--trace 1` the loop runs twice on the same tasks: first
untraced, then with every layer wrapped; the second pass must reproduce the
first bit for bit.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYERS, Tracer, per_task_totals, write_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: The tail percentile is the highest one with this many samples beyond it.
TAIL_BEYOND = 10
#: A run stops starting tasks after this long even if it has too few samples.
LOOP_CAP_S = 120.0
#: A task's relative time divides by the median of the reference runs timed
#: within this many tasks of it: smoother than the single run next to it, and
#: still local enough to follow the host's load.
REF_WINDOW = 2


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile of `samples` that has
    at least TAIL_BEYOND samples beyond it, read as an order statistic."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


@dataclass
class LoopResult:
    durations: list[float] = field(default_factory=list)
    #: Seconds of the reference kernel timed just before each task.
    references: list[float] = field(default_factory=list)
    failed: int = 0
    max_err: float = 0.0
    fingerprints: dict[int, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def ratios(self) -> list[float]:
        """Each task's relative time: its seconds over the median seconds of
        the reference runs within REF_WINDOW tasks of it."""
        refs = self.references
        return [d / statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1])
                for i, d in enumerate(self.durations)]

    def fail(self, k: int, message: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"task {k}: {message}")


def run_loop(workload, *, seconds: float, min_tasks: int, tasks=None, tracer=None,
             fingerprint: bool = False) -> LoopResult:
    """Closed loop, one client: the next task starts when the last has been
    timed and checked.  Runs `tasks` (task ids) if given, else tasks 1, 2, ...
    for `seconds` and at least `min_tasks` of them.  The workload's reference
    kernel is timed just before each task."""
    result = LoopResult()
    start = time.perf_counter()
    k = 0
    while True:
        k += 1
        elapsed = time.perf_counter() - start
        if tasks is not None:
            if k > len(tasks) or elapsed > LOOP_CAP_S:
                break
            task = tasks[k - 1]
        else:
            if (elapsed >= seconds and k > min_tasks) or elapsed > LOOP_CAP_S:
                break
            task = k
        inputs = workload.prepare(task)
        t0 = time.perf_counter()
        workload.reference()
        result.references.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.task = task
        t0 = time.perf_counter()
        try:
            output = workload.run(inputs)
        except Exception:  # a raising task is a failed task; keep measuring
            result.durations.append(time.perf_counter() - t0)
            result.fail(task, traceback.format_exc(limit=3))
            continue
        finally:
            if tracer is not None:
                tracer.task = None
        result.durations.append(time.perf_counter() - t0)
        try:
            result.max_err = max(result.max_err, workload.check(inputs, output))
        except Exception as exc:  # CheckFailed, or output that does not parse
            result.fail(task, f"{type(exc).__name__}: {exc}")
        if fingerprint:
            result.fingerprints[task] = workload.fingerprint(output)
    return result


def layer_metrics(spans, tasks: list[int]) -> dict[str, float]:
    """Per-task medians of each layer's calls, self time and counts, and the
    share of enumerated outcomes that the evaluation kept."""
    totals = per_task_totals(spans)
    rows = [totals.get(task, {}) for task in tasks]
    out = {}
    for layer in LAYERS:
        keys = ["self_s", *layer.counted] + ([] if layer.generator else ["calls"])
        for key in keys:
            name = f"{layer.name}.{key}"
            out[name] = statistics.median(row.get(name, 0) for row in rows)
    kept = sum(row.get(f"simulate.{f}.kept", 0) for row in rows for f in ("batch_amplitudes", "evolve"))
    enumerated = [
        row.get("simulate.sector_basis.outcomes", 0) + row.get("postselect.admissible_outcomes.outcomes", 0)
        for row in rows
    ]
    out["postselect.kept_ratio"] = kept / sum(enumerated) if sum(enumerated) else 0.0
    out["postselect.kept_ratio.base"] = statistics.median(enumerated)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import photonsim
    import photonsim.cli  # the console entry point; patched like every layer
    import_s = time.perf_counter() - t0
    if not Path(photonsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported photonsim from {photonsim.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](photonsim, args.seed, ROOT)
    workload.run(workload.prepare(0))
    setup_s = time.monotonic() - args.spawned_at
    workload.reference()  # its warm-up; not part of the program's set-up
    report = {"setup_s": setup_s, "import_s": import_s, "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    # Without this, a full collection rescans every object left by the imports
    # and the set-up (~10 ms on cli_roundtrip), and the few tasks it happens to
    # fall in decide the tail.  After it, a collection scans only what the
    # loop allocated.
    gc.freeze()
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_loop(workload, seconds=seconds, min_tasks=TAIL_BEYOND + 1, fingerprint=bool(args.trace))
    errors, failed, attempted = list(plain.errors), plain.failed, plain.attempted
    p50 = statistics.median(plain.durations)
    if not args.trace:
        ratios = plain.ratios
        rel_tail, pct, n = tail(ratios)
        report.update(
            metrics={
                "task_rel_p50": statistics.median(ratios),
                "task_rel_tail": rel_tail,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            },
            task_s_p50=p50,
            task_s_tail=tail(plain.durations)[0],
            reference_s_p50=statistics.median(plain.references),
            tail_percentile=pct,
            tail_samples=n,
            max_abs_err=plain.max_err,
        )
    else:
        tasks = sorted(plain.fingerprints)
        with Tracer() as tracer:
            traced = run_loop(workload, seconds=seconds, min_tasks=0, tasks=tasks,
                              tracer=tracer, fingerprint=True)
        for task, text in traced.fingerprints.items():
            if text != plain.fingerprints[task]:
                traced.fail(task, "traced output differs from the untraced output")
        errors += traced.errors
        failed += traced.failed
        attempted += traced.attempted
        traced_tasks = sorted(traced.fingerprints)
        traced_p50 = statistics.median(traced.durations)
        metrics = layer_metrics(tracer.spans, traced_tasks)
        metrics.update({
            "import.photonsim_s": import_s,
            "check.max_abs_err": max(plain.max_err, traced.max_err),
            "trace.task_s_p50": traced_p50,
            "trace.overhead": statistics.median(traced.ratios) / statistics.median(plain.ratios),
        })
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}.csv"
        write_spans(tracer.spans, spans_path)
        report.update(
            metrics=metrics,
            binding_sites=tracer.sites,
            spans=len(tracer.spans),
            spans_file=str(spans_path.relative_to(ROOT)),
            untraced_task_s_p50=p50,
            traced_tasks=len(traced_tasks),
        )
    report.update(attempted=attempted, failed=failed, errors=errors)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
