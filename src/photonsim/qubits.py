"""Qubit encodings over photonic modes and the optical gate catalog.

Dual-rail: qubit i lives on spatial modes (2i, 2i+1); |0> is one photon in
the first mode, |1> one photon in the second.  The polarization encoding
packs two qubits into two polarized modes.

Every gate lowers to a `GateBuild`: a circuit plus the auxiliary-mode input
occupations, the post-selection condition, and the success probability.
Builds are values; compose them and apply one terminal post-selection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .components import (
    BeamSplitter,
    GenericUnitary,
    Permutation,
    PhaseShifter,
    require_integer,
    theta_from_reflectivity,
)
from .errors import InvalidGate, InvalidSpec, OutOfRange, RegisterMismatch
from .fock import FockState, StateVector
from .postselect import Clause, PostSelect, Processor
from .simulate import batch_amplitudes  # noqa: F401  (bench/test_bench.py checks this binding)

#: Splitter half-angle with reflectivity 1/3, used by the post-selected CNOT.
THETA_13 = theta_from_reflectivity(1.0 / 3.0)


class _NonCodewordType:
    """Sentinel for states outside the code subspace (e.g. |1,1> on a pair)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NonCodeword"


NonCodeword = _NonCodewordType()


@dataclass(frozen=True)
class DualRailEncoding:
    qubits: int

    @property
    def modes(self) -> int:
        return 2 * self.qubits

    def encode(self, bits) -> FockState:
        bits = tuple(bits)
        if len(bits) != self.qubits:
            raise RegisterMismatch(
                f"expected {self.qubits} bits, got {len(bits)}"
            )
        occupations = []
        for b in bits:
            if b not in (0, 1):
                raise InvalidSpec(f"bit must be 0 or 1, got {b!r}")
            occupations.extend((0, 1) if b else (1, 0))
        return FockState(tuple(occupations))

    def decode(self, state: FockState):
        if state.polarized or state.modes != self.modes:
            raise RegisterMismatch(
                f"dual-rail decode needs {self.modes} unpolarized modes, got "
                f"{state.modes}{' polarized' if state.polarized else ''}"
            )
        bits = []
        for i in range(self.qubits):
            pair = state.occupations[2 * i : 2 * i + 2]
            if pair == (1, 0):
                bits.append(0)
            elif pair == (0, 1):
                bits.append(1)
            else:
                return NonCodeword
        return tuple(bits)


_POLARIZATION_CODE = {
    (0, 0): (0, 0, 1, 0),  # |0, 1:H>
    (0, 1): (0, 0, 0, 1),  # |0, 1:V>
    (1, 0): (1, 0, 0, 0),  # |1:H, 0>
    (1, 1): (0, 1, 0, 0),  # |1:V, 0>
}
_POLARIZATION_DECODE = {occ: bits for bits, occ in _POLARIZATION_CODE.items()}


@dataclass(frozen=True)
class PolarizationEncoding:
    """Fixed two-qubit map over two polarized spatial modes."""

    qubits: int = 2

    def __post_init__(self):
        if self.qubits != 2:
            raise InvalidSpec("the polarization encoding covers exactly 2 qubits")

    def encode(self, bits) -> FockState:
        bits = tuple(bits)
        if bits not in _POLARIZATION_CODE:
            raise RegisterMismatch(f"expected 2 bits of 0/1, got {bits!r}")
        return FockState(_POLARIZATION_CODE[bits], polarized=True)

    def decode(self, state: FockState):
        if not state.polarized or state.modes != 2:
            raise RegisterMismatch(
                "polarization decode needs 2 polarized modes, got "
                f"{state.modes}{'' if state.polarized else ' unpolarized'}"
            )
        return _POLARIZATION_DECODE.get(state.occupations, NonCodeword)


@dataclass(frozen=True)
class GateBuild:
    """A gate lowered to optics.

    `herald_input` holds the input occupations of the auxiliary modes
    appended after the data register; `condition` is the terminal
    post-selection under which the build acts as the named gate, succeeding
    with `success_probability` on codeword inputs.
    """

    circuit: Circuit
    herald_input: tuple[int, ...] = ()
    condition: PostSelect | None = None
    success_probability: float = 1.0

    @property
    def data_modes(self) -> int:
        return self.circuit.modes - len(self.herald_input)

    @property
    def qubits(self) -> int:
        return self.data_modes // 2

    def input_state(self, bits) -> FockState:
        """Full-register Fock input: encoded bits plus herald occupations."""
        data = DualRailEncoding(self.qubits).encode(bits)
        return FockState(data.occupations + tuple(self.herald_input))

    def run(self, bits):
        """Conditioned distribution and success probability for a bit input."""
        state = StateVector.basis(self.input_state(bits))
        return Processor(self.circuit, state, self.condition).run()


def data_bits(state: FockState, q: int):
    """Decode the first 2q modes of an unpolarized state as dual-rail bits."""
    return DualRailEncoding(q).decode(FockState(state.occupations[: 2 * q]))


def _bit_tuples(q: int):
    return itertools.product((0, 1), repeat=q)


def codeword_action(build: GateBuild) -> np.ndarray:
    """The build's exact matrix on the codeword basis, heralds included.

    Entry (row, col) is the amplitude from encoded input `col` (with the
    herald input occupations) to encoded output `row` with the heralds
    measured back in their input occupations.  For unit-success gates this
    is the gate matrix itself; for post-selected gates it is the gate times
    the success amplitude.  The amplitudes come from `Processor.amplitudes`
    under the build's condition; a target it does not keep has amplitude 0.
    """
    q = build.qubits
    enc = DualRailEncoding(q)
    herald = tuple(build.herald_input)
    targets = [
        FockState(enc.encode(bits).occupations + herald) for bits in _bit_tuples(q)
    ]
    dim = 2**q
    m = np.zeros((dim, dim), dtype=complex)
    for col, bits in enumerate(_bit_tuples(q)):
        state = StateVector.basis(build.input_state(bits))
        amps = dict(Processor(build.circuit, state, build.condition).amplitudes())
        m[:, col] = [amps.get(t, 0j) for t in targets]
    return m


# --- single-qubit catalog ---------------------------------------------------

_ROTATIONS = ("RX", "RY", "RZ")


def _single_placements(name: str, qubit: int, theta):
    a = 2 * qubit
    if name in _ROTATIONS and theta is None:
        raise InvalidGate(f"{name} needs a rotation angle")
    if name == "X":
        return [(a, Permutation((1, 0)))]
    if name == "SWAP":
        return [(a, Permutation((2, 3, 0, 1)))]
    if name == "H":
        return [(a, BeamSplitter.h())]
    if name == "Z":
        return [(a + 1, PhaseShifter(math.pi))]
    if name == "Y":
        # Mode swap, then -pi/2 on the |0> rail and +pi/2 on the |1> rail.
        return [
            (a, Permutation((1, 0))),
            (a, PhaseShifter(-math.pi / 2)),
            (a + 1, PhaseShifter(math.pi / 2)),
        ]
    if name == "RX":
        return [
            (a, PhaseShifter(math.pi)),
            (a, BeamSplitter.rx(theta)),
            (a, PhaseShifter(math.pi)),
        ]
    if name == "RY":
        return [(a, BeamSplitter.ry(theta))]
    if name == "RZ":
        return [
            (a, BeamSplitter.h()),
            (a, PhaseShifter(math.pi)),
            (a, BeamSplitter.rx(theta)),
            (a, PhaseShifter(math.pi)),
            (a, BeamSplitter.h()),
        ]
    if name == "T":
        return [(a + 1, PhaseShifter(math.pi / 4))]
    if name == "TDAG":
        return [(a + 1, PhaseShifter(-math.pi / 4))]
    if name == "S":
        return [(a + 1, PhaseShifter(math.pi / 2))]
    if name == "SDAG":
        return [(a + 1, PhaseShifter(-math.pi / 2))]
    raise InvalidGate(f"unknown gate {name!r}")


def _check_qubit(qubit: int, q: int, span: int = 1):
    if not 0 <= require_integer(qubit, "qubit") <= q - span:
        raise OutOfRange(f"qubit {qubit} outside register of {q}")


def single_qubit_gate(name: str, qubit: int, q: int, theta=None) -> GateBuild:
    """Catalog lookup: X, SWAP, H, Z, Y, RX, RY, RZ, T, Tdag, S, Sdag.

    SWAP exchanges `qubit` with `qubit + 1`; the rotations require `theta`.
    """
    return GateSequence(q).gate(name, qubit, theta).build()


# --- two-qubit gates --------------------------------------------------------


def _postselected_core_placements():
    """Post-selected CNOT core on slots (aux_c, c0, c1, t0, t1, aux_t).

    Three reflectivity-1/3 splitters and two symmetric ones.  The phases on
    the two asymmetric splitters put them in the form [[-c, s], [s, c]],
    which makes the compiled six-mode unitary the real relation matrix

        1/sqrt(3) * [[-1, s2, 0, 0, 0,  0],
                     [s2,  1, 0, 0, 0,  0],
                     [ 0,  0,-1, 1, 1,  0],
                     [ 0,  0, 1, 1, 0,  1],
                     [ 0,  0, 1, 0, 1, -1],
                     [ 0,  0, 0, 1,-1, -1]]   (s2 = sqrt(2))

    whose post-selected action on the codeword subspace is exactly CNOT/3.
    """
    asym = BeamSplitter.h(THETA_13, phi_tl=math.pi, phi_br=math.pi)
    sym = BeamSplitter.h()
    return [
        (0, asym),
        (3, sym),
        (2, asym),
        (4, BeamSplitter.h(THETA_13)),
        (3, sym),
    ]


def _check_pair(control: int, target: int, q: int):
    _check_qubit(control, q)
    _check_qubit(target, q)
    if control == target:
        raise InvalidSpec("control and target must differ")


def postselected_cnot(control: int, target: int, q: int) -> GateBuild:
    """Post-selected CNOT: two vacuum auxiliaries, success 1/9.

    The condition keeps coincidence outcomes — one photon per data pair and
    empty auxiliaries — under which the action is exactly CNOT.  Because the
    condition reads the data modes and selection is terminal, the gate is
    only valid when no later component disturbs those modes; use the
    heralded variant inside longer sequences.
    """
    return GateSequence(q).cnot(control, target, "postselected").build()


_SQRT2 = math.sqrt(2.0)
_HERALD_A = math.sqrt((3.0 + math.sqrt(6.0)) / 18.0)
_HERALD_B = math.sqrt((3.0 - math.sqrt(6.0)) / 18.0)


def _heralded_cnot_matrix() -> np.ndarray:
    """Six-mode heralded CNOT on slots (c0, c1, t0, t1, a0, a1).

    Core: a real orthogonal block V on (c1, t1, a0, a1) that, with one
    photon entering and leaving each auxiliary mode, multiplies the c1&t1
    branch by -1 and every codeword by the herald amplitude
    lambda = a^2 - b^2 = sqrt(2/27), where a = sqrt((3+sqrt(6))/18) and
    b = sqrt((3-sqrt(6))/18) (so a^2 + b^2 = 1/3 and 2ab = 1/(3*sqrt(3))).
    Conjugating by a symmetric splitter on the target pair turns the
    heralded CZ into a heralded CNOT with success probability 2/27.
    """
    a, b, r2 = _HERALD_A, _HERALD_B, _SQRT2
    v = np.array(
        [
            [-1 / 3, -r2 / 3, -r2 / 3, 2 / 3],
            [r2 / 3, -1 / 3, 2 / 3, r2 / 3],
            [-r2 * a, r2 * b, a, b],
            [r2 * b, r2 * a, -b, a],
        ]
    )
    cz = np.eye(6, dtype=complex)
    cz[np.ix_((1, 3, 4, 5), (1, 3, 4, 5))] = v
    h = np.eye(6, dtype=complex)
    h[np.ix_((2, 3), (2, 3))] = BeamSplitter.h().matrix()
    return h @ cz @ h


HERALDED_CNOT_MATRIX = _heralded_cnot_matrix()
# Components are immutable, so every heralded CNOT places this one core.
_HERALDED_CNOT_CORE = ((0, GenericUnitary(HERALDED_CNOT_MATRIX)),)


def heralded_cnot(control: int, target: int, q: int) -> GateBuild:
    """Heralded CNOT: one photon in each of two auxiliaries, success 2/27.

    Success is announced by the auxiliary detectors alone, so the data
    qubits survive the gate and further gates can follow.
    """
    return GateSequence(q).cnot(control, target, "heralded").build()


def controlled_pauli(kind: str, control: int, target: int, q: int, cnot: str = "postselected") -> GateBuild:
    """CZ or CY as a single-gate `GateSequence.controlled_pauli`."""
    return GateSequence(q).controlled_pauli(kind, control, target, cnot).build()


_CNOT_KINDS = ("heralded", "postselected")

#: Target-side gates (before, after) that turn a CNOT into CZ or CY.
_PAULI_CONJUGATION = {"CZ": ("H", "H"), "CY": ("SDAG", "S")}


class GateSequence:
    """Records qubit gates, then lowers them onto one register in a second
    pass so every CNOT gets its own auxiliary pair at the tail."""

    def __init__(self, q: int):
        q = require_integer(q, "qubit count")
        if q < 1:
            raise InvalidSpec(f"need at least one qubit, got {q}")
        self.q = q
        self._ops: list[tuple] = []

    def gate(self, name: str, qubit: int, theta=None) -> "GateSequence":
        """Record a catalog gate; only RX, RY and RZ take (and need) `theta`."""
        canonical = name.strip().upper()
        _single_placements(canonical, 0, theta)  # validate name/theta early
        if theta is not None and canonical not in _ROTATIONS:
            raise InvalidGate(f"{canonical} takes no rotation angle, got {theta!r}")
        _check_qubit(qubit, self.q, span=2 if canonical == "SWAP" else 1)
        self._ops.append(("single", canonical, qubit, theta))
        return self

    def cnot(self, control: int, target: int, kind: str = "heralded") -> "GateSequence":
        if kind not in _CNOT_KINDS:
            raise InvalidGate(f"unknown CNOT flavour {kind!r}")
        _check_pair(control, target, self.q)
        self._ops.append(("cnot", kind, control, target))
        return self

    def controlled_pauli(self, kind: str, control: int, target: int, cnot: str = "postselected") -> "GateSequence":
        """CZ or CY by conjugating a CNOT with target-side single-qubit gates.

        CZ = H_t CX H_t and CY = S_t CX S_t^dag; the CNOT brings its herald
        input, condition and success probability.  Everything is validated
        before any gate is recorded.
        """
        canonical = kind.strip().upper()
        if canonical not in _PAULI_CONJUGATION:
            raise InvalidGate(f"unknown controlled-Pauli {kind!r}")
        if cnot not in _CNOT_KINDS:
            raise InvalidGate(f"unknown CNOT flavour {cnot!r}")
        _check_pair(control, target, self.q)
        before, after = _PAULI_CONJUGATION[canonical]
        return self.gate(before, target).cnot(control, target, cnot).gate(after, target)

    def toffoli(self, c0: int, c1: int, target: int, kind: str = "heralded") -> "GateSequence":
        """CCX as six CNOTs with H/T phases: kickbacks on the target through
        alternating CNOTs from both controls, then a T-ladder on the
        controls.  Everything is validated before any gate is recorded."""
        for qubit in (c0, c1, target):
            _check_qubit(qubit, self.q)
        if len({c0, c1, target}) != 3:
            raise InvalidSpec("Toffoli needs three distinct qubits")
        if kind not in _CNOT_KINDS:
            raise InvalidGate(f"unknown CNOT flavour {kind!r}")
        self.gate("H", target)
        self.cnot(c1, target, kind)
        self.gate("TDAG", target)
        self.cnot(c0, target, kind)
        self.gate("T", target)
        self.cnot(c1, target, kind)
        self.gate("TDAG", target)
        self.cnot(c0, target, kind)
        self.gate("T", c1)
        self.gate("T", target)
        self.cnot(c0, c1, kind)
        self.gate("H", target)
        self.gate("T", c0)
        self.gate("TDAG", c1)
        self.cnot(c0, c1, kind)
        return self

    def build(self) -> GateBuild:
        q = self.q
        pairs = sum(1 for op in self._ops if op[0] == "cnot")
        total = 2 * q + 2 * pairs
        circuit = Circuit(total)
        herald: list[int] = []
        clauses: list[Clause] = []
        success = 1.0
        next_aux = 2 * q
        for op in self._ops:
            if op[0] == "single":
                _, name, qubit, theta = op
                for anchor, component in _single_placements(name, qubit, theta):
                    circuit = circuit.add(anchor, component)
                continue
            _, kind, control, target = op
            aux0, aux1 = next_aux, next_aux + 1
            next_aux += 2
            c_pair = (2 * control, 2 * control + 1)
            t_pair = (2 * target, 2 * target + 1)
            if kind == "heralded":
                slots = c_pair + t_pair + (aux0, aux1)
                core = _HERALDED_CNOT_CORE
                herald += [1, 1]
                clauses += [Clause((aux0,), "==", 1), Clause((aux1,), "==", 1)]
                success *= 2.0 / 27.0
            else:
                slots = (aux0,) + c_pair + t_pair + (aux1,)
                core = _postselected_core_placements()
                herald += [0, 0]
                clauses += [
                    Clause(c_pair, "==", 1),
                    Clause(t_pair, "==", 1),
                    Clause((aux0,), "==", 0),
                    Clause((aux1,), "==", 0),
                ]
                success *= 1.0 / 9.0
            # A core component at slot a acts on slots[a : a + width].
            for a, component in core:
                circuit = circuit.add(slots[a : a + component.width], component)
        condition = PostSelect(tuple(clauses)) if clauses else None
        return GateBuild(circuit, tuple(herald), condition, success)


def toffoli_decomposed(c0: int, c1: int, target: int, q: int) -> GateBuild:
    """CCX from six heralded CNOTs plus H/T phases; success (2/27)^6."""
    return GateSequence(q).toffoli(c0, c1, target).build()
