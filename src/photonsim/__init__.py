"""Exact strong simulation of discrete-variable photonic circuits.

Fock states over spatial (optionally polarized) modes, an optical component
catalog compiled to channel unitaries, permanent-based evolution,
post-selection, dual-rail qubit gates built from linear optics, and prebuilt
Grover search pipelines.
"""

from ._sampling import SplitMix64
from .circuit import Circuit, PlacedComponent
from .components import (
    BeamSplitter,
    GenericUnitary,
    Permutation,
    PhaseShifter,
    PolarizationRotator,
    PolarizingBeamSplitter,
    WavePlate,
    half_wave_plate,
    theta_from_reflectivity,
)
from .errors import (
    EvalError,
    InvalidGate,
    InvalidOccupation,
    InvalidSpec,
    MixedRegister,
    MixedSector,
    NotUnitary,
    OutOfRange,
    ParseError,
    PolarizationMismatch,
    RegisterMismatch,
    SimulatorError,
    TooLarge,
)
from .fock import FockState, Polarization, StateVector, make_state
from .grover import (
    DualRailGroverResult,
    GroverResult,
    dual_rail_grover_3q,
    grover_pipeline,
    run_grover,
)
from .notation import format_state, parse_state
from .postselect import PostSelect, Processor, admissible_outcomes, parse_postselect
from .qubits import (
    DualRailEncoding,
    GateBuild,
    GateSequence,
    HERALDED_CNOT_MATRIX,
    NonCodeword,
    PolarizationEncoding,
    codeword_action,
    data_bits,
    heralded_cnot,
    postselected_cnot,
    single_qubit_gate,
    toffoli_decomposed,
)
from .reference import amplitude, oracle_evolve, permanent
from .simulate import (
    Distribution,
    SampleCount,
    batch_amplitudes,
    distribution,
    evolve,
    sample,
    sector_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSplitter",
    "Circuit",
    "Distribution",
    "DualRailEncoding",
    "DualRailGroverResult",
    "EvalError",
    "FockState",
    "GateBuild",
    "GateSequence",
    "GenericUnitary",
    "GroverResult",
    "HERALDED_CNOT_MATRIX",
    "InvalidGate",
    "InvalidOccupation",
    "InvalidSpec",
    "MixedRegister",
    "MixedSector",
    "NonCodeword",
    "NotUnitary",
    "OutOfRange",
    "ParseError",
    "Permutation",
    "PhaseShifter",
    "PlacedComponent",
    "Polarization",
    "PolarizationEncoding",
    "PolarizationMismatch",
    "PolarizationRotator",
    "PolarizingBeamSplitter",
    "PostSelect",
    "Processor",
    "RegisterMismatch",
    "SampleCount",
    "SimulatorError",
    "SplitMix64",
    "StateVector",
    "TooLarge",
    "WavePlate",
    "admissible_outcomes",
    "amplitude",
    "batch_amplitudes",
    "codeword_action",
    "data_bits",
    "distribution",
    "dual_rail_grover_3q",
    "evolve",
    "format_state",
    "grover_pipeline",
    "half_wave_plate",
    "heralded_cnot",
    "make_state",
    "oracle_evolve",
    "parse_postselect",
    "parse_state",
    "permanent",
    "postselected_cnot",
    "run_grover",
    "sample",
    "sector_basis",
    "single_qubit_gate",
    "theta_from_reflectivity",
    "toffoli_decomposed",
]
