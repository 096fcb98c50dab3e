"""Self-tests of the benchmark: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import photonsim  # noqa: E402
import photonsim.cli  # noqa: E402
from tracing import Span, Tracer, per_task_totals, self_times  # noqa: E402
from worker import TAIL_BEYOND, LoopResult, run_loop, tail  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, CliRoundtrip, inverse_cdf_counts, ref_cumulative, ref_inverse_cdf_python,
    ref_ryser_python, ref_unitary, splitmix64_doubles,
)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(0, "root", 0, 100, None, 1),
        Span(1, "a", 10, 30, 0, 1),
        Span(2, "b", 25, 50, 0, 1),  # overlaps a on [25, 30]
        Span(3, "c", 90, 120, 0, 1),  # runs past the parent's end
        Span(4, "d", 15, 20, 1, 1),
        Span(5, "a", 0, 7, None, 2),
    ]
    assert self_times(spans) == {0: 100 - 40 - 10, 1: 15, 2: 25, 3: 30, 4: 5, 5: 7}
    totals = per_task_totals(spans)
    assert totals[1]["a.calls"] == 1 and totals[2]["a.calls"] == 1
    assert totals[1]["root.self_s"] == pytest.approx(50e-9)
    assert set(totals[2]) == {"a.calls", "a.self_s"}


@pytest.mark.parametrize("n", [11, 12, 37, 100, 1000])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it(n):
    samples = [float((7 * i) % n) for i in range(n)]  # a permutation of 0..n-1
    value, percentile, count = tail(samples)
    assert count == n
    assert sum(s > value for s in samples) == TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)
    if n == 100:
        assert (value, percentile) == (89.0, 90.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * TAIL_BEYOND)


def test_a_failing_check_raises_failed_frac_above_zero():
    workload = CliRoundtrip(photonsim, 3, ROOT)
    workload.bell_success *= 1.5  # a wrong reference: every check must fail
    result = run_loop(workload, seconds=0.0, min_tasks=3)
    assert result.attempted == 3
    assert result.failed / result.attempted == 1.0
    assert "CheckFailed" in result.errors[0]


def test_a_raising_task_counts_as_failed():
    class Raising(CliRoundtrip):
        def run(self, inputs):
            raise RuntimeError("boom")

    result = run_loop(Raising(photonsim, 3, ROOT), seconds=0.0, min_tasks=2)
    assert (result.attempted, result.failed) == (2, 2)
    assert len(result.ratios) == 2 and min(result.ratios) > 0


def test_relative_time_divides_by_the_median_of_nearby_references():
    result = LoopResult(durations=[10.0] * 6, references=[1.0, 2.0, 100.0, 4.0, 5.0, 0.5])
    assert result.ratios == [10 / 2.0, 10 / 3.0, 10 / 4.0, 10 / 4.0, 10 / 4.5, 10 / 4.0]


def test_reference_splitmix64_matches_the_program_stream():
    rng = photonsim.SplitMix64(2**64 - 5)
    assert list(splitmix64_doubles(2**64 - 5, 50)) == [rng.next_double() for _ in range(50)]


def test_reference_kernels_compute_what_they_name():
    u = ref_unitary(6)
    assert ref_ryser_python(u[:5, :5]) == pytest.approx(photonsim.permanent(u[:5, :5]), abs=1e-12)
    cumulative = ref_cumulative(40)
    probabilities = [cumulative[0]] + [b - a for a, b in zip(cumulative, cumulative[1:])]
    counts = ref_inverse_cdf_python(cumulative, 500, 9)
    assert {i: c for i, c in enumerate(counts) if c} == inverse_cdf_counts(
        list(range(40)), probabilities, 500, 9)


def _bindings(original):
    return sorted(
        f"{name}.{attr}"
        for name, mod in sys.modules.items()
        if mod is not None and name.split(".")[0] == "photonsim"
        for attr, value in vars(mod).items()
        if value is original
    )


def test_tracer_patches_every_binding_and_restores_them():
    original = photonsim.simulate.batch_amplitudes
    sites = _bindings(original)
    assert {"photonsim.postselect.batch_amplitudes", "photonsim.grover.batch_amplitudes",
            "photonsim.qubits.batch_amplitudes", "photonsim.cli.batch_amplitudes"} <= set(sites)
    run_method = photonsim.Processor.run
    with Tracer() as tracer:
        assert tracer.sites["simulate.batch_amplitudes"] == sites
        assert _bindings(original) == []
        assert photonsim.Processor.run is not run_method
    assert _bindings(original) == sites
    assert photonsim.Processor.run is run_method


def test_generators_are_timed_per_next_and_recursion_records_the_outer_span():
    tracer = Tracer()
    with tracer:
        tracer.task = 1
        gen = photonsim.sector_basis(3, 4)
        assert tracer.spans == []  # creating the generator does no work
        outcomes = list(gen)
        tracer.task = None
    assert len(outcomes) == 20
    assert {s.name for s in tracer.spans} == {"simulate.sector_basis"}
    assert all(s.parent is None for s in tracer.spans)
    assert len(tracer.spans) == len(outcomes) + 1  # one resume per item, one to exhaust
    assert per_task_totals(tracer.spans)[1]["simulate.sector_basis.outcomes"] == 20


@pytest.mark.parametrize("name", ["cli_roundtrip", "haar_distribution"])
def test_traced_outputs_are_bit_identical_to_untraced(name):
    workload = WORKLOADS[name](photonsim, 5, ROOT)
    inputs = workload.prepare(1)
    plain = workload.fingerprint(workload.run(inputs))
    with Tracer() as tracer:
        tracer.task = 1
        traced = workload.fingerprint(workload.run(inputs))
        tracer.task = None
    assert tracer.spans
    assert traced == plain


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_command_prints_every_listed_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_bench(ROOT, "--workload", "cli_roundtrip", "--seed", "4",
                      "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    env = json.loads(env_line)["env"]
    assert {"python", "numpy", "nproc", "cpu", "git_sha", "blas_threads", "seed"} <= set(env)


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "grover3q", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
