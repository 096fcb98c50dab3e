import json
import math
from functools import lru_cache

import numpy as np
import pytest

from photonsim.circuit import Circuit
from photonsim import _kernels, _sampling, _sectors, _stepper, grover, simulate
from photonsim.components import Permutation
from photonsim.errors import InvalidSpec, TooLarge
from photonsim.fock import PRUNE_TOL, FockState, StateVector
from photonsim.postselect import Processor
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
    # The global route: Glynn's 2^16 subsets x (20 channels + 12 power steps
    # + 90 prefix products + 56 targets): six data channels take up to three
    # photons, so each needs its square and its cube.
    build = grover._three_qubit_sequence().build()
    source = StateVector.basis(build.input_state((0, 0, 0)))
    monkeypatch.setattr(_kernels, "_MAX_WORK", (1 << 16) * 178 - 1)
    with pytest.raises(TooLarge, match=r"2\^16 x 178 = 11665408 vector elements"):
        simulate.state_amplitudes(build.circuit.compile(), source, build.condition)


def test_dual_rail_search_stepwise_work(monkeypatch):
    # The search takes the stepwise route, which counts the local outputs of
    # its rows and the work of its 6 local sweeps against the same bound;
    # rows pruned as rounding noise cost nothing.  The global route's least
    # count, 20 channels x (56 outcomes - 2 + the 2^17 sub-multisets of a
    # collision-free outcome) SLOS table entries, passes it too, so the
    # search is refused.
    monkeypatch.setattr(_kernels, "_MAX_WORK", 5706)
    with pytest.raises(TooLarge, match="reaches 5707 vector elements at block 31 and the global "
                                       "route at least 2622520, more than the 5706 allowed"):
        dual_rail_grover_3q()
    monkeypatch.setattr(_kernels, "_MAX_WORK", 5707)
    assert abs(dual_rail_grover_3q().data_probabilities["01"] - 1.0) < 1e-12


def test_dual_rail_search_runs_six_local_sweeps(monkeypatch):
    # Before each expanding block the stepper drops the rows that hold only
    # rounding noise, so a cold call runs a kernel on 6 distinct local
    # inputs (44 without the pruning).  A warm call replays every step's
    # kept plan and runs none, with the same result.
    calls = []
    for kernel in (_kernels._Plan, _kernels._Tables):
        monkeypatch.setattr(kernel, "amplitudes",
                            lambda *args, original=kernel.amplitudes: calls.append(1) or original(*args))
    _sectors._STRUCTURES.clear()
    result = dual_rail_grover_3q()
    assert len(calls) == 6
    assert abs(result.success_probability - (2 / 27) ** 7) <= 1e-12 * (2 / 27) ** 7
    assert abs(result.data_probabilities["01"] - 1.0) < 1e-12
    assert dual_rail_grover_3q() == result
    assert len(calls) == 6


def test_dual_rail_search_reads_the_amplitude_arrays_bit_for_bit():
    # The result equals the per-outcome loop over `amplitudes()` with abs(),
    # bit for bit: success over every outcome, the rest over those kept at
    # PRUNE_TOL.
    build = grover._search_build()
    processor = Processor(build.circuit, StateVector.basis(build.input_state((0, 0, 0))),
                          build.condition)
    outcomes = processor.amplitudes()
    success = sum(abs(a) ** 2 for _, a in outcomes)
    probabilities, amplitudes, pairs, leak = {}, {}, {}, 0.0
    for state, amp in outcomes:
        if abs(amp) < PRUNE_TOL:
            continue
        p = abs(amp) ** 2 / success
        bits = grover.data_bits(state, 3)
        if bits is grover.NonCodeword:
            leak += p
            continue
        label = "".join(map(str, bits))
        probabilities[label] = probabilities.get(label, 0.0) + p
        amplitudes[label] = amp / math.sqrt(success)
        pairs[label[:2]] = pairs.get(label[:2], 0.0) + p
    result = dual_rail_grover_3q(1000, 9)
    bits = lambda d: {k: v.hex() for k, v in d.items()}
    assert result.success_probability.hex() == success.hex() and result.leak_probability == leak
    assert bits(result.probabilities) == bits(probabilities) and bits(result.data_probabilities) == bits(pairs)
    assert {k: (v.real.hex(), v.imag.hex()) for k, v in result.amplitudes.items()} == {
        k: (v.real.hex(), v.imag.hex()) for k, v in amplitudes.items()}
    assert all(type(v) is complex for v in result.amplitudes.values())


def test_dual_rail_search_is_built_once(monkeypatch):
    built = []
    original = grover._three_qubit_sequence
    monkeypatch.setattr(grover, "_three_qubit_sequence", lambda: built.append(1) or original())
    grover._search_build.cache_clear()
    grover._search_processor.cache_clear()
    first, second = dual_rail_grover_3q(50, seed=3), dual_rail_grover_3q(50, seed=3)
    assert len(built) == 1
    assert first == second


def test_polarization_pipeline_is_built_once(monkeypatch):
    # Once per (target, variant) and process; an unknown target or variant
    # still fails on every call, an unhashable one too.
    built = []
    original = grover.grover_pipeline
    monkeypatch.setattr(grover, "grover_pipeline", lambda *args: built.append(args) or original(*args))
    grover._pipeline.cache_clear()
    results = [run_grover("01", variant, 50, 3) for variant in VARIANTS for _ in range(2)]
    assert built == [("01", "per_mode_PR"), ("01", "uniform_PR0")]
    assert results[0] == results[1] and results[2] == results[3]
    for _ in range(2):
        for target, variant in (("12", "per_mode_PR"), ("01", "per_photon"), (["01"], "per_mode_PR"),
                                ("01", {})):
            with pytest.raises(InvalidSpec):
                run_grover(target, variant)
    assert len(built) == 2


def test_polarization_pipeline_is_compiled_once(monkeypatch):
    # Each key keeps its compiled unitary, read-only; a warm run_grover
    # compiles nothing.
    for target in TARGETS:
        for variant in VARIANTS:
            kept = grover._pipeline(target, variant)
            assert not kept.flags.writeable
            assert np.array_equal(kept, grover_pipeline(target, variant).compile())
            assert grover._pipeline(target, variant) is kept
    compiled = []
    original = Circuit.compile
    monkeypatch.setattr(Circuit, "compile", lambda self: compiled.append(self) or original(self))
    assert run_grover("10", "uniform_PR0", 1000, 5).counts["10"] == 1000
    assert compiled == []


def test_pruning_keeps_the_search_exact(monkeypatch):
    # Pruned against unpruned (a zero budget drops only rows of amplitude
    # exactly 0): the amplitudes agree to 1e-12 of the norm and the seeded
    # counts are identical.
    build = grover._search_build()
    processor = Processor(build.circuit, StateVector.basis(build.input_state((0, 0, 0))),
                          build.condition)
    pruned = processor.amplitudes()
    counts = [dual_rail_grover_3q(1000, seed).counts for seed in range(10)]
    monkeypatch.setattr(_stepper, "_PRUNE_NORM", 0.0)
    exact = processor.amplitudes()
    norm = math.sqrt(sum(abs(a) ** 2 for _, a in exact))
    assert [s for s, _ in pruned] == [s for s, _ in exact]
    assert max(abs(a - b) for (_, a), (_, b) in zip(pruned, exact)) <= 1e-12 * norm
    assert [dual_rail_grover_3q(1000, seed).counts for seed in range(10)] == counts


def test_negative_shots_fail_before_any_work(monkeypatch):
    # Both evaluation routes read the circuit's blocks first.
    def no_blocks(self):
        raise AssertionError("lowered the circuit before checking shots")

    monkeypatch.setattr(Circuit, "blocks", no_blocks)
    with pytest.raises(ValueError, match="shots must be >= 0, got -1"):
        run_grover("00", shots=-1)
    with pytest.raises(ValueError, match="shots must be >= 0, got -3"):
        dual_rail_grover_3q(shots=-3)


@pytest.mark.parametrize("shots", [10**6, 2**63 - 1])
def test_the_polarization_search_draws_nothing(shots, monkeypatch):
    # Every key ends in a point mass, so no edge lies within the draws.
    def no_draws(*args):
        raise AssertionError("drew for a point mass")

    monkeypatch.setattr(_sampling, "_splitmix64_doubles", no_draws)
    for target in TARGETS:
        for variant in VARIANTS:
            result = run_grover(target, variant, shots=shots, seed=5)
            assert result.counts == {label: shots if label == target else 0 for label in TARGETS}


def test_shots_past_int64_fail_before_any_work(monkeypatch):
    def no_blocks(self):
        raise AssertionError("lowered the circuit before checking shots")

    monkeypatch.setattr(Circuit, "blocks", no_blocks)
    message = "shots must be at most 2\\^63 - 1, got 9223372036854775808"
    with pytest.raises(ValueError, match=message):
        run_grover("01", shots=2**63)
    with pytest.raises(ValueError, match=message):
        dual_rail_grover_3q(shots=2**63)


def test_shots_and_seeds_are_stored_as_python_ints():
    for result in (run_grover("01", shots=np.int64(5), seed=np.int64(2)),
                   dual_rail_grover_3q(shots=np.int64(5), seed=np.uint8(2))):
        assert type(result.shots) is int and type(result.seed) is int
        json.dumps({"shots": result.shots, "seed": result.seed})
    assert run_grover("01", shots=np.int64(5), seed=np.int64(2)) == run_grover("01", shots=5, seed=2)


def test_non_integer_shots_and_seeds_fail_before_any_work(monkeypatch):
    def no_blocks(self):
        raise AssertionError("lowered the circuit before checking shots and seed")

    monkeypatch.setattr(Circuit, "blocks", no_blocks)
    with pytest.raises(ValueError, match="shots must be an integer, got True"):
        run_grover("00", shots=True)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        run_grover("00", shots=10, seed=1.5)
    with pytest.raises(ValueError, match="seed must be an integer, got None"):
        dual_rail_grover_3q(shots=10, seed=None)


def test_sampler_streams_are_pinned():
    # Literal counts recorded before the samplers were merged.
    assert run_grover("10", "uniform_PR0", shots=500, seed=99).counts == {
        "00": 0, "01": 0, "10": 500, "11": 0,
    }
    assert dual_rail_grover_3q(shots=300, seed=7).counts == {"010": 148, "011": 152}


def test_dual_rail_search_placements():
    # 25 single-qubit gate components (seven X permutations among them) and
    # seven heralded CNOT cores, each placed on its own slot modes.
    placements = grover._three_qubit_sequence().build().circuit.placements
    assert len(placements) == 32
    perms = [p for p in placements if isinstance(p.component, Permutation)]
    assert len(perms) == 7 and all(len(p.modes) == 2 for p in perms)
