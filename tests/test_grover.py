import math
from functools import lru_cache

import numpy as np
import pytest

from photonsim.circuit import Circuit
from photonsim import simulate
from photonsim.errors import InvalidSpec, TooLarge
from photonsim.fock import FockState, StateVector
from photonsim.grover import (
    DETECTION_MODE,
    PIPELINE_INPUT,
    TARGETS,
    VARIANTS,
    detection_circuit,
    dual_rail_grover_3q,
    grover_pipeline,
    init_circuit,
    inversion_circuit,
    oracle_circuit,
    run_grover,
)
from photonsim.qubits import PolarizationEncoding
from photonsim.simulate import evolve

START = StateVector.basis(FockState((0, 0, 1, 0), polarized=True))
ENC = PolarizationEncoding()


def label_state(label):
    return ENC.encode((int(label[0]), int(label[1])))


def amplitudes_after(circuit):
    out = evolve(circuit.compile(), START)
    return {s: out.amplitude(s) for s in map(label_state, TARGETS)}


def test_init_prepares_uniform_superposition():
    amps = amplitudes_after(init_circuit())
    for label in TARGETS:
        assert abs(amps[label_state(label)] - 0.5) < 1e-9


def test_per_mode_oracle_flips_exactly_the_target():
    for target in TARGETS:
        circuit = init_circuit().compose(oracle_circuit(target))
        amps = amplitudes_after(circuit)
        for label in TARGETS:
            want = -0.5 if label == target else 0.5
            assert abs(amps[label_state(label)] - want) < 1e-9


def test_uniform_variant_marks_the_same_state():
    # the oracles only need to agree on the state the pipeline feeds them:
    # on the uniform superposition both flip the target's sign, the uniform
    # build sometimes with an extra overall minus
    for target in TARGETS:
        a = amplitudes_after(init_circuit().compose(oracle_circuit(target)))
        b = amplitudes_after(
            init_circuit().compose(oracle_circuit(target, "uniform_PR0"))
        )
        reference = label_state(target)
        phase = b[reference] / a[reference]
        assert abs(abs(phase) - 1.0) < 1e-9
        for label in TARGETS:
            assert abs(b[label_state(label)] - phase * a[label_state(label)]) < 1e-9


def test_final_state_checkpoints():
    # one amplification round makes the search exact; 10 and 11 come out
    # with an overall minus sign
    signs = {"00": 1.0, "01": 1.0, "10": -1.0, "11": -1.0}
    for target in TARGETS:
        circuit = (
            init_circuit()
            .compose(oracle_circuit(target))
            .compose(inversion_circuit())
        )
        amps = amplitudes_after(circuit)
        for label in TARGETS:
            want = signs[target] if label == target else 0.0
            assert abs(amps[label_state(label)] - want) < 1e-9


def test_detection_routes_each_codeword_to_its_own_mode():
    u = detection_circuit().compile()
    for label, mode in DETECTION_MODE.items():
        occ = label_state(label).occupations + (0, 0, 0, 0)
        out = evolve(u, StateVector.basis(FockState(occ, polarized=True)))
        [(state, amp)] = out.items()
        assert abs(abs(amp) - 1.0) < 1e-9
        assert state.mode_occupation(mode) == 1


def test_pipeline_input_is_single_h_photon_in_mode_1():
    assert PIPELINE_INPUT.occupations == (0, 0, 1, 0, 0, 0, 0, 0)
    assert PIPELINE_INPUT.polarized


def test_pipeline_compiles_to_unitary():
    u = grover_pipeline("11").compile()
    assert u.shape == (8, 8)
    assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-12)


def test_search_finds_every_target_with_both_variants():
    for variant in VARIANTS:
        for target in TARGETS:
            result = run_grover(target, variant)
            for label in TARGETS:
                want = 1.0 if label == target else 0.0
                assert abs(result.probabilities[label] - want) < 1e-9


def test_counts_are_deterministic_and_on_target():
    a = run_grover("10", shots=200, seed=5)
    b = run_grover("10", shots=200, seed=5)
    assert a.counts == b.counts
    assert a.counts["10"] == 200
    assert sum(a.counts.values()) == 200


def test_invalid_target_and_variant():
    with pytest.raises(InvalidSpec):
        oracle_circuit("12")
    with pytest.raises(InvalidSpec):
        oracle_circuit("11", "per_photon")
    with pytest.raises(InvalidSpec):
        run_grover("2")


@lru_cache(maxsize=1)
def three_qubit_result():
    return dual_rail_grover_3q(shots=100, seed=9)


def test_three_qubit_search_lands_on_01():
    result = three_qubit_result()
    assert abs(result.data_probabilities["01"] - 1.0) < 1e-9
    assert result.leak_probability < 1e-9
    assert result.success_probability > 0


def test_three_qubit_amplitude_signs():
    # conditioned state is -|01> x |->: minus on 010, plus on 011
    result = three_qubit_result()
    r = 1 / math.sqrt(2)
    assert abs(result.amplitudes["010"] - (-r)) < 1e-6
    assert abs(result.amplitudes["011"] - r) < 1e-6
    assert abs(result.probabilities["010"] - 0.5) < 1e-6
    assert abs(result.probabilities["011"] - 0.5) < 1e-6


def test_three_qubit_counts():
    result = three_qubit_result()
    assert sum(result.counts.values()) == 100
    assert set(result.counts) == {"010", "011"}


def test_dual_rail_search_work(monkeypatch):
    # 2^17 subsets x (20 channels + 90 prefix products + 56 targets).
    monkeypatch.setattr(simulate, "_MAX_WORK", (1 << 17) * 166 - 1)
    with pytest.raises(TooLarge, match=r"2\^17 x 166 = 21757952 vector elements"):
        dual_rail_grover_3q()


def test_sampler_streams_are_pinned():
    # Literal counts recorded before the samplers were merged.
    assert run_grover("10", "uniform_PR0", shots=500, seed=99).counts == {
        "00": 0, "01": 0, "10": 500, "11": 0,
    }
    assert dual_rail_grover_3q(shots=300, seed=7).counts == {"010": 148, "011": 152}
