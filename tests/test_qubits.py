"""Dual-rail gate catalog: every build must act as its named gate exactly."""

import math

import numpy as np
import pytest

from photonsim.components import GenericUnitary, Permutation
from photonsim.errors import (
    InvalidGate,
    InvalidSpec,
    OutOfRange,
    RegisterMismatch,
    TooLarge,
)
from photonsim import _stepper
from photonsim.fock import FockState, StateVector, make_state
from photonsim.postselect import Processor
from photonsim.qubits import (
    HERALDED_CNOT_MATRIX,
    DualRailEncoding,
    GateBuild,
    GateSequence,
    NonCodeword,
    PolarizationEncoding,
    codeword_action,
    controlled_pauli,
    data_bits,
    heralded_cnot,
    postselected_cnot,
    single_qubit_gate,
    toffoli_decomposed,
)
from photonsim.simulate import sample, state_amplitudes

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
LAMBDA = math.sqrt(2.0 / 27.0)  # herald amplitude of the heralded CNOT


def gate_matrix(name, theta=None):
    return codeword_action(single_qubit_gate(name, 0, 1, theta))


def close(a, b, tol=1e-12):
    return np.allclose(a, b, atol=tol, rtol=0)


# --- encodings --------------------------------------------------------------


def test_dual_rail_encode_decode_round_trip():
    enc = DualRailEncoding(3)
    for bits in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        state = enc.encode(bits)
        assert state.n == 3
        assert enc.decode(state) == bits
    assert enc.encode((0, 1, 0)).occupations == (1, 0, 0, 1, 1, 0)


def test_dual_rail_decode_non_codeword():
    enc = DualRailEncoding(2)
    assert enc.decode(make_state((1, 1, 1, 0))) is NonCodeword
    assert enc.decode(make_state((2, 0, 0, 0))) is NonCodeword


def test_dual_rail_validation():
    enc = DualRailEncoding(2)
    with pytest.raises(RegisterMismatch):
        enc.encode((0,))
    with pytest.raises(InvalidSpec):
        enc.encode((0, 2))
    with pytest.raises(RegisterMismatch):
        enc.decode(make_state((1, 0)))


def test_polarization_encoding_codes():
    enc = PolarizationEncoding()
    assert enc.encode((0, 0)).occupations == (0, 0, 1, 0)
    assert enc.encode((1, 1)).occupations == (0, 1, 0, 0)
    for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert enc.decode(enc.encode(bits)) == bits
    assert enc.decode(make_state((1, 1, 0, 0), polarized=True)) is NonCodeword


def test_data_bits_reads_leading_modes():
    state = make_state((0, 1, 1, 0, 0, 0, 7))
    assert data_bits(state, 2) == (1, 0)


# --- single-qubit catalog ---------------------------------------------------


def test_pauli_and_clifford_matrices():
    r = 1 / math.sqrt(2)
    assert close(gate_matrix("X"), [[0, 1], [1, 0]])
    assert close(gate_matrix("H"), [[r, r], [r, -r]])
    assert close(gate_matrix("Z"), [[1, 0], [0, -1]])
    assert close(gate_matrix("Y"), [[0, -1j], [1j, 0]])
    assert close(gate_matrix("S"), [[1, 0], [0, 1j]])
    assert close(gate_matrix("SDAG"), [[1, 0], [0, -1j]])
    t = np.exp(1j * math.pi / 4)
    assert close(gate_matrix("T"), [[1, 0], [0, t]])
    assert close(gate_matrix("TDAG"), [[1, 0], [0, t.conjugate()]])


def test_rotation_matrices():
    rng = np.random.default_rng(21)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=10):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        assert close(gate_matrix("RX", theta), [[c, -1j * s], [-1j * s, c]])
        assert close(gate_matrix("RY", theta), [[c, -s], [s, c]])
        assert close(
            gate_matrix("RZ", theta),
            [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]],
        )


def test_rotation_composition():
    rng = np.random.default_rng(22)
    for name in ("RX", "RZ"):
        a, b = rng.uniform(-math.pi, math.pi, size=2)
        first = single_qubit_gate(name, 0, 1, a)
        second = single_qubit_gate(name, 0, 1, b)
        combined = first.circuit.compose(second.circuit)
        got = codeword_action(GateBuild(combined))
        want = codeword_action(single_qubit_gate(name, 0, 1, a + b))
        assert close(got, want)


def test_gate_names_case_insensitive():
    assert close(codeword_action(single_qubit_gate("h", 0, 1)), gate_matrix("H"))
    assert close(codeword_action(single_qubit_gate("Sdag", 0, 1)), gate_matrix("SDAG"))


def test_swap_exchanges_adjacent_qubits():
    m = codeword_action(single_qubit_gate("SWAP", 0, 2))
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 1.0  # basis order 00, 01, 10, 11
    want[2, 1] = want[1, 2] = 1.0
    assert close(m, want)


def test_gate_acts_on_named_qubit_only():
    m = codeword_action(single_qubit_gate("X", 1, 2))
    want = np.zeros((4, 4))
    want[1, 0] = want[0, 1] = 1.0
    want[3, 2] = want[2, 3] = 1.0
    assert close(m, want)


def test_catalog_validation():
    with pytest.raises(InvalidGate):
        single_qubit_gate("Q", 0, 1)
    with pytest.raises(InvalidGate):
        single_qubit_gate("RX", 0, 1)  # missing angle
    with pytest.raises(OutOfRange):
        single_qubit_gate("X", 2, 2)
    with pytest.raises(OutOfRange):
        single_qubit_gate("SWAP", 1, 2)  # needs qubit+1 in range


# --- post-selected CNOT -----------------------------------------------------

RELATION = np.array(
    [
        [-1, math.sqrt(2), 0, 0, 0, 0],
        [math.sqrt(2), 1, 0, 0, 0, 0],
        [0, 0, -1, 1, 1, 0],
        [0, 0, 1, 1, 0, 1],
        [0, 0, 1, 0, 1, -1],
        [0, 0, 0, 1, -1, -1],
    ]
) / math.sqrt(3)


def test_postselected_compiled_unitary_is_the_relation_matrix():
    build = postselected_cnot(0, 1, 2)
    u = build.circuit.compile()
    slots = (4, 0, 1, 2, 3, 5)  # (aux_c, c0, c1, t0, t1, aux_t)
    core = u[np.ix_(slots, slots)]
    assert np.allclose(core, RELATION, atol=1e-9, rtol=0)


def test_postselected_codeword_action_is_cnot_third():
    m = codeword_action(postselected_cnot(0, 1, 2))
    assert np.allclose(m, CNOT / 3.0, atol=1e-9, rtol=0)


def test_postselected_truth_table():
    build = postselected_cnot(0, 1, 2)
    assert abs(build.success_probability - 1.0 / 9.0) < 1e-12
    for bits, want in [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0))]:
        dist, success = build.run(bits)
        assert abs(success - 1.0 / 9.0) < 1e-9
        expect = FockState(DualRailEncoding(2).encode(want).occupations + (0, 0))
        assert abs(dist.entries[expect] - 1.0) < 1e-9


def test_postselected_direction():
    # control 1, target 0 flips the first qubit instead
    build = postselected_cnot(1, 0, 2)
    dist, _ = build.run((0, 1))
    expect = FockState(DualRailEncoding(2).encode((1, 1)).occupations + (0, 0))
    assert abs(dist.entries[expect] - 1.0) < 1e-9


@pytest.mark.parametrize("kind", ["postselected", "heralded"])
def test_success_constants_match_codeword_action(kind):
    # GateSequence.build hard-codes 1/9 and 2/27: every codeword must go to
    # its CNOT image with exactly that probability, and nowhere else.
    build = GateSequence(2).cnot(0, 1, kind).build()
    probabilities = np.abs(codeword_action(build)) ** 2
    assert np.max(np.abs(probabilities - build.success_probability * CNOT.real)) < 1e-14


# --- heralded CNOT ----------------------------------------------------------


def test_heralded_matrix_is_real_orthogonal():
    m = HERALDED_CNOT_MATRIX
    assert np.max(np.abs(m.imag)) < 1e-12
    assert np.allclose(m @ m.conj().T, np.eye(6), atol=1e-12)


def test_heralded_codeword_action():
    m = codeword_action(heralded_cnot(0, 1, 2))
    assert np.allclose(m, LAMBDA * CNOT, atol=1e-9, rtol=0)
    # herald amplitude is real positive, so signs downstream are meaningful
    assert m[0, 0].real > 0 and abs(m[0, 0].imag) < 1e-12


def test_heralded_truth_table():
    build = heralded_cnot(0, 1, 2)
    assert abs(build.success_probability - 2.0 / 27.0) < 1e-12
    for bits, want in [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0))]:
        dist, success = build.run(bits)
        assert abs(success - 2.0 / 27.0) < 1e-9
        expect = FockState(DualRailEncoding(2).encode(want).occupations + (1, 1))
        assert abs(dist.entries[expect] - 1.0) < 1e-9


def test_bell_pair_from_heralded_cnot():
    build = GateSequence(2).gate("H", 0).cnot(0, 1).build()
    dist, success = build.run((0, 0))
    assert abs(success - 2.0 / 27.0) < 1e-9
    zz = FockState((1, 0, 1, 0, 1, 1))
    oo = FockState((0, 1, 0, 1, 1, 1))
    assert abs(dist.entries[zz] - 0.5) < 1e-9
    assert abs(dist.entries[oo] - 0.5) < 1e-9
    assert len(dist.entries) == 2


def test_cnot_pair_validation():
    with pytest.raises(InvalidSpec):
        postselected_cnot(0, 0, 2)
    with pytest.raises(OutOfRange):
        heralded_cnot(0, 2, 2)


# --- controlled Paulis and Toffoli ------------------------------------------


def test_cz_from_either_cnot():
    want = np.diag([1, 1, 1, -1]).astype(complex)
    m_h = codeword_action(controlled_pauli("CZ", 0, 1, 2, cnot="heralded"))
    assert np.allclose(m_h, LAMBDA * want, atol=1e-9, rtol=0)
    m_r = codeword_action(controlled_pauli("CZ", 0, 1, 2, cnot="postselected"))
    assert np.allclose(m_r, want / 3.0, atol=1e-9, rtol=0)


def test_cy_matrix():
    want = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]]
    )
    m = codeword_action(controlled_pauli("CY", 0, 1, 2, cnot="heralded"))
    assert np.allclose(m, LAMBDA * want, atol=1e-9, rtol=0)


def test_controlled_pauli_validation():
    with pytest.raises(InvalidGate):
        controlled_pauli("CW", 0, 1, 2)
    with pytest.raises(InvalidGate):
        controlled_pauli("CZ", 0, 1, 2, cnot="teleported")


def test_sequence_allocates_one_aux_pair_per_cnot():
    build = GateSequence(2).cnot(0, 1).cnot(1, 0).build()
    assert build.circuit.modes == 8
    assert build.herald_input == (1, 1, 1, 1)
    assert abs(build.success_probability - (2.0 / 27.0) ** 2) < 1e-15
    # two CNOTs in opposite directions on |10>: first gives |11>, second |11> -> control 1 on qubit 1 flips qubit 0 -> |01>
    dist, _ = build.run((1, 0))
    expect = FockState(DualRailEncoding(2).encode((0, 1)).occupations + (1, 1, 1, 1))
    assert abs(dist.entries[expect] - 1.0) < 1e-9


def test_sequence_mixed_flavours():
    # the post-selected gate must come last: its condition reads the data
    # modes at terminal time, so later gates on those modes would break it
    build = GateSequence(2).cnot(0, 1, "heralded").cnot(0, 1, "postselected").build()
    assert build.herald_input == (1, 1, 0, 0)
    assert abs(build.success_probability - (1.0 / 9.0) * (2.0 / 27.0)) < 1e-15
    dist, _ = build.run((1, 0))  # two flips cancel
    expect = FockState(DualRailEncoding(2).encode((1, 0)).occupations + (1, 1, 0, 0))
    assert abs(dist.entries[expect] - 1.0) < 1e-9


def test_toffoli_flips_only_when_both_controls_set():
    build = toffoli_decomposed(0, 1, 2, 3)
    assert build.circuit.modes == 18
    assert abs(build.success_probability - (2.0 / 27.0) ** 6) < 1e-15
    dist, success = build.run((1, 1, 0))
    expect = FockState(DualRailEncoding(3).encode((1, 1, 1)).occupations + (1,) * 12)
    assert abs(dist.entries[expect] - 1.0) < 1e-9
    assert abs(success - (2.0 / 27.0) ** 6) < 1e-12


def test_sequence_validation():
    seq = GateSequence(2)
    with pytest.raises(InvalidGate):
        seq.gate("XX", 0)
    with pytest.raises(OutOfRange):
        seq.gate("X", 5)
    with pytest.raises(InvalidGate):
        seq.cnot(0, 1, kind="magic")
    with pytest.raises(InvalidSpec):
        GateSequence(3).toffoli(0, 1, 1)
    with pytest.raises(InvalidSpec):
        GateSequence(0)


@pytest.mark.parametrize(
    "args, kind, error",
    [((5, 1, 2), "heralded", OutOfRange), ((0, 1, 2), "bogus", InvalidGate)],
)
def test_failed_toffoli_records_nothing(args, kind, error):
    seq = GateSequence(3).gate("X", 0)
    with pytest.raises(error):
        seq.toffoli(*args, kind=kind)
    assert seq.build() == GateSequence(3).gate("X", 0).build()


@pytest.mark.parametrize(
    "record",
    [
        lambda seq: seq.gate("X", 0.5),  # unchecked, anchor 2 * 0.5 put X on modes (1, 2)
        lambda seq: seq.gate("SWAP", True),
        lambda seq: seq.cnot(True, 0.0),
        lambda seq: seq.cnot(0, "1"),
        lambda seq: seq.controlled_pauli("CZ", 0, 1.0),
        lambda seq: seq.toffoli(0, 1, 1.5),
        lambda seq: seq.toffoli([0], 1, 2),
    ],
)
def test_qubits_must_be_integers(record):
    seq = GateSequence(3)
    with pytest.raises(InvalidSpec, match="qubit must be an integer"):
        record(seq)
    assert seq.build() == GateSequence(3).build()


@pytest.mark.parametrize("q", [2.5, 2.0, True, "2"])
def test_qubit_count_must_be_an_integer(q):
    with pytest.raises(InvalidSpec, match="qubit count must be an integer"):
        GateSequence(q)


def test_numpy_integer_qubits_are_accepted():
    i = np.int64
    got = GateSequence(i(3)).gate("X", i(1)).cnot(i(0), i(1)).toffoli(i(0), i(1), i(2)).build()
    want = GateSequence(3).gate("X", 1).cnot(0, 1).toffoli(0, 1, 2).build()
    assert got.herald_input == want.herald_input
    assert np.array_equal(got.circuit.compile(), want.circuit.compile())


@pytest.mark.parametrize("name, theta", [("X", "junk"), ("H", math.nan), ("T", 0.5), ("swap", 0.0)])
def test_fixed_gates_take_no_angle(name, theta):
    seq = GateSequence(2)
    with pytest.raises(InvalidGate, match="takes no rotation angle"):
        seq.gate(name, 0, theta)
    with pytest.raises(InvalidGate, match="takes no rotation angle"):
        single_qubit_gate(name, 0, 2, theta)
    assert seq.build() == GateSequence(2).build()


@pytest.mark.parametrize("theta", [math.nan, math.inf, "0.5"])
def test_rotation_angle_must_be_a_finite_real(theta):
    seq = GateSequence(1)
    with pytest.raises(InvalidSpec):
        seq.gate("RX", 0, theta)
    assert seq.build() == GateSequence(1).build()


def test_cnot_cores_sit_on_their_slot_modes():
    # No relabelling permutations: the Toffoli's 15 placements are its nine
    # single-qubit gate components and six heralded cores on
    # (c0, c1, t0, t1, a0, a1).
    build = toffoli_decomposed(0, 2, 1, 3)
    placements = build.circuit.placements
    assert len(placements) == 15
    assert not any(isinstance(p.component, Permutation) for p in placements)
    cores = [p.modes for p in placements if p.component == GenericUnitary(HERALDED_CNOT_MATRIX)]
    assert cores[:2] == [(4, 5, 2, 3, 6, 7), (0, 1, 2, 3, 8, 9)]
    assert len(cores) == 6


def _ccx(bits, c0, c1, target):
    out = list(bits)
    out[target] ^= bits[c0] & bits[c1]
    return tuple(out)


@pytest.mark.parametrize("bits", [(1, 1, 0, 1), (0, 1, 1, 1)])
def test_forty_photon_circuit_runs_stepwise(bits):
    # Three Toffolis on four qubits: 18 heralded CNOTs, 40 photons on 44
    # modes.  Each herald is projected after its CNOT core, so the state
    # stays on the data photons; the global sweep would need 2^39 subsets.
    toffolis = [(0, 1, 2), (1, 2, 3), (3, 0, 1)]
    seq = GateSequence(4)
    for gate in toffolis:
        seq.toffoli(*gate)
    build = seq.build()
    source = build.input_state(bits)
    assert (source.n, build.circuit.modes) == (40, 44)
    want = bits
    for gate in toffolis:
        want = _ccx(want, *gate)
    dist, success = build.run(bits)
    assert abs(success - (2 / 27) ** 18) <= 1e-12 * (2 / 27) ** 18
    assert [(data_bits(s, 4), round(p, 12)) for s, p in dist.items()] == [(want, 1.0)]
    processor = Processor(build.circuit, StateVector.basis(source), build.condition)
    scale = math.sqrt(success)
    for state, amp in processor.amplitudes():
        ideal = 1.0 if data_bits(state, 4) == want else 0.0
        assert abs(amp / scale - ideal) < 1e-12
    with pytest.raises(TooLarge, match=r"2\^39 x 883 = "):
        state_amplitudes(build.circuit.compile(), StateVector.basis(source), build.condition)


def test_pruning_keeps_the_forty_photon_circuit_exact(monkeypatch):
    # Pruned against unpruned (a zero budget drops only rows of amplitude
    # exactly 0): the amplitudes agree to 1e-12 of the norm and the seeded
    # counts are identical.
    seq = GateSequence(4)
    for gate in [(0, 1, 2), (1, 2, 3), (3, 0, 1)]:
        seq.toffoli(*gate)
    build = seq.build()
    processor = Processor(build.circuit, StateVector.basis(build.input_state((1, 1, 0, 1))),
                          build.condition)

    def run():
        dist, _ = build.run((1, 1, 0, 1))
        return processor.amplitudes(), [sample(dist, 1000, seed).counts for seed in range(10)]

    pruned, counts = run()
    monkeypatch.setattr(_stepper, "_PRUNE_NORM", 0.0)
    exact, exact_counts = run()
    norm = math.sqrt(sum(abs(a) ** 2 for _, a in exact))
    assert [s for s, _ in pruned] == [s for s, _ in exact]
    assert max(abs(a - b) for (_, a), (_, b) in zip(pruned, exact)) <= 1e-12 * norm
    assert counts == exact_counts


@pytest.mark.parametrize("k", [18, 22, 30])
def test_long_heralded_chain_keeps_its_norm(k):
    # The pruning budget is relative to the state's norm, which shrinks as
    # (2/27)^k along the chain: an absolute budget would empty it.
    seq = GateSequence(2)
    for _ in range(k):
        seq.cnot(0, 1)
    build = seq.build()
    state = StateVector.basis(build.input_state((1, 0)))
    amplitudes = Processor(build.circuit, state, build.condition).amplitudes()
    total = sum(abs(a) ** 2 for _, a in amplitudes)
    assert abs(total - (2 / 27) ** k) <= 1e-12 * (2 / 27) ** k
