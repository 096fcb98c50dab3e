"""Prebuilt search pipelines.

Two-qubit search on a polarized register: two spatial modes carry the four
basis states (|0,1:H>, |0,1:V>, |1:H,0>, |1:V,0>), one photon total; the
oracle marks a state by flipping its sign with polarization optics, and a
single amplification round makes the search exact.  A four-mode detection
stage then routes each basis state to its own spatial mode.

Three-qubit dual-rail search: three data qubits (six modes) plus fourteen
auxiliary modes feeding seven heralded CNOTs.  Conditioned on every herald
firing, the two searched qubits land on |01> with certainty.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._sampling import inverse_cdf_counts, require_seed, require_shots
from .circuit import Circuit
from .components import (
    BeamSplitter,
    Permutation,
    PhaseShifter,
    PolarizationRotator,
    PolarizingBeamSplitter,
    half_wave_plate,
)
from .errors import InvalidSpec
from .fock import FockState, StateVector
from .postselect import Processor
from .qubits import GateSequence, NonCodeword, data_bits
from .simulate import _kept, _probabilities, distribution
from .simulate import batch_amplitudes  # noqa: F401  (bench/test_bench.py checks this binding)

TARGETS = ("00", "01", "10", "11")
VARIANTS = ("per_mode_PR", "uniform_PR0")

#: Detection routes the encoded state for label L to this spatial mode.
DETECTION_MODE = {"11": 0, "10": 1, "01": 2, "00": 3}


def init_circuit() -> Circuit:
    """Uniform superposition from |0,1:H>: half-wave plate splits the
    polarization, the Ry splitter the spatial mode."""
    circuit = Circuit(2, polarized=True)
    circuit = circuit.add(1, half_wave_plate(math.pi / 8))
    circuit = circuit.add(1, PhaseShifter(-math.pi / 2))
    circuit = circuit.add(0, BeamSplitter.ry())
    circuit = circuit.add(0, PhaseShifter(-math.pi))
    return circuit


def _mark(mode: int):
    # O_m = PS_m(-pi/2) . HWP_m(0): +1 on |1:H>_m, -1 on |1:V>_m.
    return [(mode, half_wave_plate(0.0)), (mode, PhaseShifter(-math.pi / 2))]


def _require_search(target: str, variant: str):
    """Raise InvalidSpec unless the target and the variant are known."""
    if target not in TARGETS:
        raise InvalidSpec(f"target must be one of {TARGETS}, got {target!r}")
    if variant not in VARIANTS:
        raise InvalidSpec(f"variant must be one of {VARIANTS}, got {variant!r}")


def oracle_circuit(target: str, variant: str = "per_mode_PR") -> Circuit:
    """Sign flip on the target's basis state.

    per_mode_PR uses one polarization rotator on the target's own mode;
    uniform_PR0 always rotates mode 0 and steers the sign with O_m stages.
    """
    _require_search(target, variant)
    circuit = Circuit(2, polarized=True)
    if variant == "per_mode_PR":
        mode, angle = {
            "00": (1, -math.pi / 2),
            "01": (1, math.pi / 2),
            "10": (0, -math.pi / 2),
            "11": (0, math.pi / 2),
        }[target]
        return circuit.add(mode, PolarizationRotator(angle))
    rotator = [(0, PolarizationRotator(math.pi / 2))]
    placements = {
        "00": _mark(0) + rotator + _mark(1),
        "01": _mark(1) + rotator + _mark(0),
        "10": _mark(0) + rotator + _mark(0),
        "11": rotator,
    }[target]
    for mode, component in placements:
        circuit = circuit.add(mode, component)
    return circuit


def inversion_circuit() -> Circuit:
    """Amplification: reflect the state about the uniform superposition."""
    circuit = Circuit(2, polarized=True)
    circuit = circuit.add(0, BeamSplitter.ry())
    circuit = circuit.add(1, half_wave_plate(math.pi / 4))
    circuit = circuit.add(1, PhaseShifter(-math.pi / 2))
    circuit = circuit.add(0, BeamSplitter.ry())
    return circuit


def detection_circuit() -> Circuit:
    """Route each encoded state to its own spatial mode (two extra modes).

    A swap of modes 1 and 2 followed by polarizing splitters on (0,1) and
    (2,3); afterwards one detector per mode identifies the search result.
    """
    circuit = Circuit(4, polarized=True)
    circuit = circuit.add(1, Permutation((1, 0)))
    circuit = circuit.add(0, PolarizingBeamSplitter())
    circuit = circuit.add(2, PolarizingBeamSplitter())
    return circuit


def grover_pipeline(target: str, variant: str = "per_mode_PR") -> Circuit:
    """Init, oracle, inversion (on modes 0-1) and detection, on 4 modes."""
    full = Circuit(4, polarized=True)
    for sub in (init_circuit(), oracle_circuit(target, variant), inversion_circuit()):
        for placed in sub.placements:
            full = full.add(placed.modes, placed.component)
    return full.compose(detection_circuit())


@functools.cache
def _pipeline(target: str, variant: str) -> np.ndarray:
    """The compiled unitary of `grover_pipeline`, built and compiled once per
    process for each known (target, variant); it is read-only, so every
    call can share it."""
    unitary = grover_pipeline(target, variant).compile()
    unitary.setflags(write=False)
    return unitary


#: Pipeline input: the single photon enters mode 1 horizontally polarized.
PIPELINE_INPUT = FockState((0, 0, 1, 0, 0, 0, 0, 0), polarized=True)


def _sample_labels(probabilities: dict[str, float], shots: int, seed: int) -> dict[str, int]:
    """Inverse-CDF label draws in sorted label order, so reruns are
    bit-identical for a fixed seed; every label gets a count, zeros too."""
    labels = sorted(probabilities)
    counts = inverse_cdf_counts([probabilities[label] for label in labels], shots, seed)
    return dict(zip(labels, counts))


@dataclass(frozen=True)
class GroverResult:
    """Labeled outcome of the polarization pipeline."""

    target: str
    variant: str
    probabilities: dict[str, float]
    counts: dict[str, int]
    shots: int
    seed: int


def run_grover(target: str, variant: str = "per_mode_PR", shots: int = 0, seed: int = 0) -> GroverResult:
    """Exact label distribution of the full pipeline, plus seeded counts.

    Polarization is summed out per spatial mode; the photon's exit mode
    names the found element via DETECTION_MODE.  Bad shots or seeds fail
    first, then an unknown target or variant, on every call.
    """
    shots, seed = require_shots(shots), require_seed(seed)
    _require_search(target, variant)
    dist = distribution(_pipeline(target, variant), StateVector.basis(PIPELINE_INPUT))
    by_mode = [0.0, 0.0, 0.0, 0.0]
    for state, p in dist.entries.items():
        for mode in range(4):
            if state.mode_occupation(mode):
                by_mode[mode] += p
                break
    probabilities = {label: by_mode[mode] for label, mode in DETECTION_MODE.items()}
    counts = _sample_labels(probabilities, shots, seed)
    return GroverResult(target, variant, probabilities, counts, shots, seed)


def _three_qubit_sequence() -> GateSequence:
    seq = GateSequence(3)
    seq.gate("X", 2)
    for qubit in (0, 1, 2):
        seq.gate("H", qubit)
    # Oracle for |01>: conjugate the ancilla Toffoli by X on qubit 0.
    seq.gate("X", 0)
    seq.toffoli(0, 1, 2)
    seq.gate("X", 0)
    # Amplification.
    seq.gate("H", 0)
    seq.gate("H", 1)
    seq.gate("X", 0)
    seq.gate("X", 1)
    seq.gate("H", 1)
    seq.cnot(0, 1)
    seq.gate("H", 1)
    seq.gate("X", 0)
    seq.gate("X", 1)
    seq.gate("H", 0)
    seq.gate("H", 1)
    return seq


@functools.cache
def _search_build():
    """The search's gates lowered to optics, once per process; GateBuild
    and Circuit are frozen, so every call can share it."""
    return _three_qubit_sequence().build()


@functools.cache
def _search_processor() -> Processor:
    """The search's processor on its |000> input under the fourteen heralds,
    once per process; no method changes a Processor or its StateVector, so
    every call can share it."""
    build = _search_build()
    return Processor(build.circuit, StateVector.basis(build.input_state((0, 0, 0))),
                     build.condition)


@dataclass(frozen=True)
class DualRailGroverResult:
    """Herald-conditioned outcome of the three-qubit dual-rail pipeline."""

    probabilities: dict[str, float]  # three-bit labels, conditioned
    amplitudes: dict[str, complex]  # conditioned amplitudes per label
    data_probabilities: dict[str, float]  # searched pair (qubits 0, 1)
    success_probability: float
    leak_probability: float  # conditioned mass outside the codeword basis
    counts: dict[str, int]
    shots: int
    seed: int


def dual_rail_grover_3q(shots: int = 0, seed: int = 0) -> DualRailGroverResult:
    """Run the three-qubit search conditioned on all fourteen heralds.

    Works directly with amplitudes so the sign of the surviving branch is
    observable: the herald amplitude of each CNOT is real positive, which
    makes the overall sign meaningful.  Bad shots or seeds fail first.
    """
    shots, seed = require_shots(shots), require_seed(seed)
    outcomes = _search_processor()._arrays()
    # The success sums every outcome's |amp|^2, the rest reads those kept.
    success = sum(_probabilities(outcomes).values())
    root = math.sqrt(success)
    kept = _kept(outcomes)
    probabilities: dict[str, float] = {}
    amplitudes: dict[str, complex] = {}
    data_probabilities: dict[str, float] = {}
    leak = 0.0
    for (state, amp), square in zip(kept.items(), _probabilities(kept).values()):
        p = square / success
        bits = data_bits(state, 3)
        if bits is NonCodeword:
            leak += p
            continue
        label = "".join(str(b) for b in bits)
        probabilities[label] = probabilities.get(label, 0.0) + p
        amplitudes[label] = amp / root
        pair = label[:2]
        data_probabilities[pair] = data_probabilities.get(pair, 0.0) + p
    counts = _sample_labels(probabilities, shots, seed)
    return DualRailGroverResult(
        probabilities,
        amplitudes,
        data_probabilities,
        success,
        leak,
        counts,
        shots,
        seed,
    )
