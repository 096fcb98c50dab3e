"""Spans recorded from outside the program, around calls into its layers.

A `Tracer` replaces each public function named in `LAYERS` at every module
attribute that binds it.  photonsim modules import names directly
(`from .simulate import batch_amplitudes`), so patching the defining module
alone would miss the calls made through `postselect`, `grover`, `qubits` and
`cli`.  Methods are patched once on their class.

Each wrapped call records a span: name, start, end, parent span, task id and
a few counts taken at the same boundary.  Generator functions are timed
across each `next()`, because their work happens while the caller iterates,
not when it creates them.  A call made while a span of the same name is open
(the recursive `sector_basis`) records nothing, so only the outermost span
counts.  Spans are kept in memory; `write_spans` writes them out.
"""

from __future__ import annotations

import csv
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

# Probability below which the program itself drops an outcome
# (`Processor.run`); `kept_ratio` counts outcomes above it.
KEPT_THRESHOLD = 1e-24

_EXHAUSTED = object()


def _targets_counts(args, kwargs, result):
    u, source, targets = args[0], args[1], args[2]
    channels = len(u)
    kept = sum(1 for amp in result if abs(amp) ** 2 > KEPT_THRESHOLD)
    # Ryser sweep held by batch_amplitudes: 2^n subsets x channels complex128.
    return {
        "targets": len(targets),
        "sweep_bytes": (1 << source.n) * channels * 16,
        "kept": kept,
    }


def _evolve_counts(args, kwargs, result):
    return {"kept": len(result)}


def _sample_counts(args, kwargs, result):
    return {"shots": result.shots}


@dataclass(frozen=True)
class Layer:
    """One public function: the module that defines it and its attribute path."""

    module: str
    attr: str
    generator: bool = False
    counts: Callable[..., dict] | None = None  # (args, kwargs, result) -> {key: number}
    counted: tuple[str, ...] = ()  # the keys `counts` returns

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


LAYERS = (
    Layer("photonsim.simulate", "batch_amplitudes", counts=_targets_counts,
          counted=("targets", "sweep_bytes", "kept")),
    Layer("photonsim.simulate", "evolve", counts=_evolve_counts, counted=("kept",)),
    Layer("photonsim.simulate", "amplitude"),
    Layer("photonsim.simulate", "permanent"),
    Layer("photonsim.simulate", "sector_basis", generator=True, counted=("outcomes",)),
    Layer("photonsim.simulate", "sample", counts=_sample_counts, counted=("shots",)),
    Layer("photonsim.postselect", "admissible_outcomes", generator=True, counted=("outcomes",)),
    Layer("photonsim.postselect", "Processor.run"),
    Layer("photonsim.postselect", "parse_postselect"),
    Layer("photonsim.qubits", "GateSequence.build"),
    Layer("photonsim.circuit", "Circuit.compile"),
    Layer("photonsim.grover", "run_grover"),
    Layer("photonsim.grover", "dual_rail_grover_3q"),
    Layer("photonsim.notation", "parse_state"),
    Layer("photonsim.notation", "format_state"),
    Layer("photonsim.cli", "load_circuit_file"),
    Layer("photonsim.cli", "main"),
)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    task: int
    counts: dict | None = None


class Tracer:
    """Records spans while a task is active; calls outside tasks pass through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task: int | None = None
        self._stack: list[Span] = []
        self._open: set[str] = set()  # names with a span in progress
        self._patches: list[tuple[object, str, object]] = []
        #: layer name -> the module attributes (or class) that were patched.
        self.sites: dict[str, list[str]] = {}

    # -- spans -------------------------------------------------------------

    def _begin(self, name: str) -> Span | None:
        if self.task is None or name in self._open:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self.task)
        self.spans.append(span)
        self._stack.append(span)
        self._open.add(name)
        return span

    def _end(self, span: Span):
        span.end = time.perf_counter_ns()
        self._stack.pop()
        self._open.discard(span.name)

    def _wrap_function(self, layer: Layer, fn):
        name, counts = layer.name, layer.counts

        def traced(*args, **kwargs):
            span = self._begin(name)
            if span is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, layer: Layer, fn):
        name = layer.name

        def resumed(gen):
            while True:
                span = self._begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    item = _EXHAUSTED
                finally:
                    if span is not None:
                        self._end(span)
                if span is not None:
                    span.counts = {"outcomes": int(item is not _EXHAUSTED)}
                if item is _EXHAUSTED:
                    return
                yield item

        def traced(*args, **kwargs):
            if self.task is None or name in self._open:
                return fn(*args, **kwargs)
            return resumed(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every binding of every layer in the loaded photonsim modules."""
        modules = [
            (mod_name, mod)
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "photonsim" or mod_name.startswith("photonsim."))
        ]
        for layer in LAYERS:
            owner = sys.modules[layer.module]
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap_function(layer, original))
                self.sites[layer.name] = [f"{layer.module}.{layer.attr}"]
                continue
            original = getattr(owner, layer.attr)
            wrap = self._wrap_generator if layer.generator else self._wrap_function
            traced = wrap(layer, original)
            sites = []
            for mod_name, mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced)
                        sites.append(f"{mod_name}.{attr}")
            self.sites[layer.name] = sites

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover.

    Children are clipped to their parent and overlapping children are merged,
    so the result never goes negative.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.end - span.start - covered
    return out


def per_task_totals(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Task id -> {"<layer>.calls", "<layer>.self_s", "<layer>.<count>"}."""
    own = self_times(spans)
    totals: dict[int, dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(span.task, {})
        row[f"{span.name}.self_s"] = row.get(f"{span.name}.self_s", 0.0) + own[span.id] * 1e-9
        counts = span.counts or {}
        if "outcomes" not in counts:  # generator resumes are not calls
            row[f"{span.name}.calls"] = row.get(f"{span.name}.calls", 0) + 1
        for key, value in counts.items():
            row[f"{span.name}.{key}"] = row.get(f"{span.name}.{key}", 0) + value
    return totals


def write_spans(spans: list[Span], path):
    """One CSV row per span: id, parent, task, name, start and end in ns."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "parent", "task", "name", "start_ns", "end_ns"])
        for s in spans:
            writer.writerow([s.id, "" if s.parent is None else s.parent, s.task, s.name, s.start, s.end])
