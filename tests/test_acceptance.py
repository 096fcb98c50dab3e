"""Acceptance gate: one test per acceptance criterion, with the tolerance
pinned in the assertion.  Run with -v for one pass/fail line per criterion.
"""

import itertools
import math

import numpy as np

from photonsim.circuit import Circuit
from photonsim.components import (
    BeamSplitter,
    PhaseShifter,
    Permutation,
    PolarizationRotator,
    WavePlate,
    half_wave_plate,
)
from photonsim.errors import ParseError
from photonsim.fock import FockState, StateVector, make_state
from photonsim.grover import (
    TARGETS,
    VARIANTS,
    dual_rail_grover_3q,
    init_circuit,
    inversion_circuit,
    oracle_circuit,
    run_grover,
)
from photonsim.notation import parse_state
from photonsim.postselect import parse_postselect
from photonsim.qubits import (
    DualRailEncoding,
    GateBuild,
    PolarizationEncoding,
    codeword_action,
    heralded_cnot,
    postselected_cnot,
    single_qubit_gate,
    toffoli_decomposed,
)
from photonsim.reference import oracle_evolve, permanent
from photonsim.simulate import distribution, evolve, sample, sector_basis

ROOT2 = math.sqrt(2.0)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def encoded(bits, herald=()):
    return FockState(DualRailEncoding(len(bits)).encode(bits).occupations + tuple(herald))


def test_criterion_1_single_qubit_catalog():
    """Each published single-gate bench result on a two-qubit register."""

    def out_amp(name, in_bits, out_bits, theta=None):
        build = single_qubit_gate(name, 0, 2, theta)
        out = evolve(build.circuit.compile(), StateVector.basis(encoded(in_bits)))
        return out.amplitude(encoded(out_bits))

    assert abs(out_amp("X", (1, 0), (0, 0)) - 1.0) < 1e-9
    assert abs(out_amp("X", (1, 1), (0, 1)) - 1.0) < 1e-9
    assert abs(out_amp("SWAP", (1, 0), (0, 1)) - 1.0) < 1e-9
    assert abs(out_amp("H", (0, 0), (0, 0)) - 0.7071067811865476) < 1e-9
    assert abs(out_amp("H", (0, 0), (1, 0)) - 0.7071067811865476) < 1e-9
    assert abs(out_amp("Z", (1, 1), (1, 1)) + 1.0) < 1e-9
    assert abs(out_amp("Y", (1, 0), (0, 0)) - (-1j)) < 1e-9
    assert abs(out_amp("RX", (1, 0), (0, 0), math.pi / 2) - (-1j / ROOT2)) < 1e-9
    assert abs(out_amp("RX", (1, 0), (1, 0), math.pi / 2) - 1 / ROOT2) < 1e-9
    assert abs(out_amp("RY", (1, 0), (0, 0), math.pi / 2) - (-1 / ROOT2)) < 1e-9
    assert abs(out_amp("RY", (1, 0), (1, 0), math.pi / 2) - 1 / ROOT2) < 1e-9
    assert abs(out_amp("RZ", (1, 0), (1, 0), math.pi / 2) - complex(1 / ROOT2, 1 / ROOT2)) < 1e-9

    # the phase-only members of the catalog, as matrices on the codeword basis
    def m(name):
        return codeword_action(single_qubit_gate(name, 0, 1))

    assert np.allclose(m("S"), np.diag([1, 1j]), atol=1e-9)
    assert np.allclose(m("T"), np.diag([1, np.exp(1j * math.pi / 4)]), atol=1e-9)
    assert np.allclose(m("SDAG") @ m("S"), np.eye(2), atol=1e-9)
    assert np.allclose(m("TDAG") @ m("T"), np.eye(2), atol=1e-9)
    print("criterion 1 PASS: single-qubit bench results at 1e-9")


def test_criterion_2_postselected_cnot():
    """Post-selected CNOT: mode relations, truth table, success 1/9."""
    build = postselected_cnot(0, 1, 2)
    u = build.circuit.compile()
    slots = (4, 0, 1, 2, 3, 5)  # (aux_c, c0, c1, t0, t1, aux_t)
    s3, s23 = 1 / math.sqrt(3), math.sqrt(2.0 / 3.0)
    relations = [
        (0, [-s3, s23, 0, 0, 0, 0]),
        (1, [s23, s3, 0, 0, 0, 0]),
        (2, [0, 0, -s3, s3, s3, 0]),
        (3, [0, 0, s3, s3, 0, s3]),
        (4, [0, 0, s3, 0, s3, -s3]),
        (5, [0, 0, 0, s3, -s3, -s3]),
    ]
    for row, coeffs in relations:
        got = [u[slots[row], slots[col]] for col in range(6)]
        assert np.allclose(got, coeffs, atol=1e-9), f"relation row {row}"

    for bits, want in [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0))]:
        dist, success = build.run(bits)
        assert abs(success - 1.0 / 9.0) < 1e-9
        assert abs(dist.entries[encoded(want, (0, 0))] - 1.0) < 1e-9
    assert np.allclose(codeword_action(build), CNOT / 3.0, atol=1e-9)
    print("criterion 2 PASS: post-selected CNOT relations + truth table at 1/9")


def test_criterion_3_heralded_cnot():
    """Heralded CNOT: truth table at 2/27 and a Bell pair from |00>."""
    build = heralded_cnot(0, 1, 2)
    for bits, want in [((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0))]:
        dist, success = build.run(bits)
        assert abs(success - 2.0 / 27.0) < 1e-9
        assert abs(dist.entries[encoded(want, (1, 1))] - 1.0) < 1e-9
    assert np.allclose(
        codeword_action(build), math.sqrt(2.0 / 27.0) * CNOT, atol=1e-9
    )

    hadamard = single_qubit_gate("H", 0, 2)
    bell_circuit = Circuit(6)
    for placed in hadamard.circuit.placements:
        bell_circuit = bell_circuit.add(placed.modes, placed.component)
    bell_circuit = bell_circuit.compose(build.circuit)
    bell = GateBuild(bell_circuit, build.herald_input, build.condition, build.success_probability)
    dist, success = bell.run((0, 0))
    assert abs(success - 2.0 / 27.0) < 1e-9
    assert abs(dist.entries[encoded((0, 0), (1, 1))] - 0.5) < 1e-9
    assert abs(dist.entries[encoded((1, 1), (1, 1))] - 0.5) < 1e-9
    print("criterion 3 PASS: heralded CNOT truth table at 2/27 + Bell pair")


def test_criterion_4_toffoli():
    """Decomposed CCX: all eight rows, success (2/27)^6."""
    build = toffoli_decomposed(0, 1, 2, 3)
    expect_success = (2.0 / 27.0) ** 6
    for bits in itertools.product((0, 1), repeat=3):
        want = (bits[0], bits[1], bits[2] ^ (bits[0] & bits[1]))
        dist, success = build.run(bits)
        assert abs(success - expect_success) < 1e-12, bits
        assert abs(dist.entries[encoded(want, (1,) * 12)] - 1.0) < 1e-9, bits
    # the doubly-controlled flip itself
    dist, _ = build.run((1, 1, 0))
    assert abs(dist.entries[encoded((1, 1, 1), (1,) * 12)] - 1.0) < 1e-9
    print("criterion 4 PASS: CCX truth table, success (2/27)^6 per row")


def test_criterion_5_polarization_grover():
    """Two-qubit search: every target found with certainty, both oracle
    styles, with the documented intermediate states."""
    enc = PolarizationEncoding()
    start = StateVector.basis(FockState((0, 0, 1, 0), polarized=True))

    psi1 = evolve(init_circuit().compile(), start)
    for bits in itertools.product((0, 1), repeat=2):
        assert abs(psi1.amplitude(enc.encode(bits)) - 0.5) < 1e-9

    oracle = init_circuit().compose(oracle_circuit("11"))
    psi2 = evolve(oracle.compile(), start)
    assert abs(psi2.amplitude(enc.encode((1, 1))) + 0.5) < 1e-9
    assert abs(psi2.amplitude(enc.encode((0, 0))) - 0.5) < 1e-9

    final = oracle.compose(inversion_circuit())
    psi6 = evolve(final.compile(), start)
    assert abs(psi6.amplitude(enc.encode((1, 1))) + 1.0) < 1e-9  # -|1:V,0>

    for variant in VARIANTS:
        for target in TARGETS:
            result = run_grover(target, variant)
            assert abs(result.probabilities[target] - 1.0) < 1e-9, (target, variant)
    print("criterion 5 PASS: polarization search exact for 4 targets x 2 variants")


def test_criterion_6_dual_rail_grover():
    """Three-qubit search: the searched pair lands on |01> with certainty
    and the surviving branch carries the expected minus sign."""
    result = dual_rail_grover_3q()
    assert abs(result.data_probabilities["01"] - 1.0) < 1e-9
    assert result.leak_probability < 1e-9
    assert abs(result.amplitudes["010"] - (-1 / ROOT2)) < 1e-9
    assert abs(result.amplitudes["011"] - (1 / ROOT2)) < 1e-9
    print("criterion 6 PASS: dual-rail search lands on -|01>|-> conditioned")


def test_criterion_7_property_suites():
    """Randomized invariants: unitarity, conventions, compositions, the two
    evolution oracles, the permanent, and the parsers."""
    rng = np.random.default_rng(12345)

    # (a) 1000 random catalog components are unitary to 1e-12
    for _ in range(1000):
        kind = int(rng.integers(0, 6))
        th = rng.uniform(-2 * math.pi, 2 * math.pi, size=4)
        if kind == 0:
            conv = ("bs1", "bs2", "bs3")[int(rng.integers(0, 3))]
            m = BeamSplitter(conv, th[0], phi_r=th[1], phi_t=th[2], phi_0=th[3]).matrix()
        elif kind == 1:
            m = BeamSplitter.h(th[0], phi_tl=th[1], phi_bl=th[2], phi_br=th[3]).matrix()
        elif kind == 2:
            m = BeamSplitter.rx(th[0], phi_tr=th[1]).matrix()
        elif kind == 3:
            m = BeamSplitter.ry(th[0]).matrix()
        elif kind == 4:
            m = WavePlate(th[0], th[1]).jones()
        else:
            m = PolarizationRotator(th[0]).jones()
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12, rtol=0)

    # (b) convention identities
    hada = np.array([[1, 1], [1, -1]]) / ROOT2
    assert np.allclose(BeamSplitter.bs1(math.pi / 4).matrix(), hada, atol=1e-12)
    assert np.allclose(
        BeamSplitter.bs1(math.pi / 4, phi_r=-math.pi / 2, phi_0=math.pi / 2).matrix(),
        np.array([[1, 1j], [1j, 1]]) / ROOT2,
        atol=1e-12,
    )
    assert np.allclose(BeamSplitter.bs3(math.pi / 2).matrix(), hada, atol=1e-12)
    assert np.allclose(BeamSplitter.h().matrix(), hada, atol=1e-12)

    # (c) composition identities
    for name in ("RX", "RZ"):
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=(100, 2)):
            a = codeword_action(single_qubit_gate(name, 0, 1, theta[0]))
            b = codeword_action(single_qubit_gate(name, 0, 1, theta[1]))
            c = codeword_action(single_qubit_gate(name, 0, 1, theta[0] + theta[1]))
            assert np.allclose(b @ a, c, atol=1e-12, rtol=0)
    sdg = single_qubit_gate("SDAG", 0, 1).circuit
    x = single_qubit_gate("X", 0, 1).circuit
    s = single_qubit_gate("S", 0, 1).circuit
    conjugated = codeword_action(GateBuild(sdg.compose(x).compose(s)))
    assert np.allclose(
        conjugated, codeword_action(single_qubit_gate("Y", 0, 1)), atol=1e-12
    )
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_y = np.array([[0, -1j], [1j, 0]])
    pauli_z = np.diag([1.0 + 0j, -1.0])
    assert np.allclose(PolarizationRotator(math.pi / 2).jones(), 1j * pauli_y, atol=1e-12)
    assert np.allclose(half_wave_plate(0.0).jones(), 1j * pauli_z, atol=1e-12)
    assert np.allclose(half_wave_plate(math.pi / 4).jones(), 1j * pauli_x, atol=1e-12)
    for delta, xi in rng.uniform(-math.pi, math.pi, size=(20, 2)):
        want = (
            math.cos(delta) * np.eye(2)
            + 1j * math.sin(delta) * math.cos(2 * xi) * pauli_z
            + 1j * math.sin(delta) * math.sin(2 * xi) * pauli_x
        )
        assert np.allclose(WavePlate(delta, xi).jones(), want, atol=1e-12)

    # (d) permanent vs oracle evolution on 50 random circuits
    for _ in range(50):
        modes = int(rng.integers(2, 6))
        circuit = Circuit(modes)
        for _ in range(int(rng.integers(1, 5))):
            pick = int(rng.integers(0, 3))
            if pick == 0:
                circuit = circuit.add(
                    int(rng.integers(0, modes - 1)),
                    BeamSplitter.h(float(rng.uniform(0, math.pi))),
                )
            elif pick == 1:
                circuit = circuit.add(
                    int(rng.integers(0, modes)), PhaseShifter(float(rng.uniform(-math.pi, math.pi)))
                )
            else:
                circuit = circuit.add(0, Permutation(tuple(int(v) for v in rng.permutation(modes))))
        u = circuit.compile()
        occ = [0] * modes
        for _ in range(int(rng.integers(1, 4))):
            occ[int(rng.integers(0, modes))] += 1
        source = make_state(tuple(occ))
        fast = evolve(u, StateVector.basis(source))
        slow = oracle_evolve(u, source)
        for target_occ in sector_basis(source.n, modes):
            t = make_state(target_occ)
            assert abs(fast.amplitude(t) - slow.amplitude(t)) < 1e-9

    # (e) permanent against the permutation sum, and the photon bunching dip
    for n in range(1, 7):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        total = 0j
        for perm in itertools.permutations(range(n)):
            prod = 1.0 + 0j
            for i, j in enumerate(perm):
                prod *= a[i, j]
            total += prod
        assert abs(permanent(a) - total) < 1e-12 * math.factorial(n)
    u = BeamSplitter.h().matrix()
    assert abs(evolve(u, StateVector.basis(make_state((1, 1)))).amplitude(make_state((1, 1)))) < 1e-12

    # (f) parser round trips and character offsets
    corpus = (
        "|1,0,2>",
        "|0,1:H+1:V>",
        "|2:V,0>",
        "|0, {P:H}>",
        "|0, {P:V}>",
        "|0,{P:H}, 0, 0>",
        "|{P:H}, 0>",
        "|{P:V}, 0>",
        "|1, 0, 1, 0, 0, 0>",
        "|0,0,0,1>",
    )
    for text in corpus:
        once = parse_state(text)
        assert parse_state(str(once)) == once  # canonical form is a fixed point
        assert str(parse_state(str(once))) == str(once)
    for text in ("[0,1]==1", "[0]<=2 & [3,4]>0"):
        assert str(parse_postselect(text)) == text
    try:
        parse_postselect("[0,1==1")
        assert False, "expected a parse error"
    except ParseError as err:
        assert err.offset == 4
    try:
        parse_state("|1,x>")
        assert False, "expected a parse error"
    except ParseError as err:
        assert err.offset == 3
    print("criterion 7 PASS: property suites (unitarity, identities, oracles, parsers)")


def test_criterion_8_sampling():
    """Seeded sampling is bit-stable and statistically sound at 1e5 shots."""
    u = BeamSplitter.h().matrix()
    dist = distribution(u, StateVector.basis(make_state((1, 0))))
    first = sample(dist, 100_000, seed=20240817)
    again = sample(dist, 100_000, seed=20240817)
    assert first.counts == again.counts
    ones = first.counts[make_state((1, 0))]
    sigma = math.sqrt(100_000 * 0.25)
    assert abs(ones - 50_000) <= 5 * sigma
    other = sample(dist, 100_000, seed=1)
    assert other.counts != first.counts
    print("criterion 8 PASS: sampling deterministic and within 5 sigma")
