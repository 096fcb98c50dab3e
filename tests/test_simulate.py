"""Permanent, amplitudes, distributions and sampling.

The permanent is checked against a naive permutation-sum oracle, and the
fast evolution path against the creation-operator expansion oracle.
"""

import bisect
import itertools
import math

import numpy as np
import pytest

from photonsim.circuit import Circuit
from photonsim.components import BeamSplitter, Permutation, PhaseShifter
from photonsim.errors import InvalidSpec, MixedSector, RegisterMismatch, TooLarge
from photonsim.expansion import oracle_evolve
from photonsim.fock import FockState, StateVector, make_state
from photonsim.postselect import admissible_outcomes, parse_postselect
from photonsim.simulate import (
    Distribution,
    SplitMix64,
    amplitude,
    batch_amplitudes,
    distribution,
    evolve,
    permanent,
    sample,
    sector_basis,
)
from photonsim import simulate


def naive_permanent(a):
    """Permutation-sum definition, O(n! n); the ground truth for small n."""
    n = a.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_permanent_against_naive_sum():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert abs(permanent(a) - naive_permanent(a)) < 1e-12 * math.factorial(n)


def test_permanent_of_empty_matrix_is_one():
    assert permanent(np.zeros((0, 0))) == 1.0 + 0j


def test_gray_and_batched_variants_agree():
    rng = np.random.default_rng(8)
    for n in (3, 5, 8):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ones = FockState((1,) * n)
        g = permanent(a)
        b = batch_amplitudes(a, ones, [ones])[0]
        assert abs(g - b) < 1e-9 * max(1.0, abs(g))


def test_permanent_rejects_non_square_matrix():
    with pytest.raises(RegisterMismatch):
        permanent(np.ones((2, 3)))


def test_permanent_cap():
    with pytest.raises(TooLarge):
        permanent(np.eye(17))


def test_amplitude_sector_mismatch_is_zero():
    u = BeamSplitter.h().matrix()
    assert amplitude(u, make_state((1, 0)), make_state((1, 1))) == 0j


def test_hong_ou_mandel_dip():
    u = BeamSplitter.h().matrix()
    src = make_state((1, 1))
    r = 1 / math.sqrt(2)
    assert abs(amplitude(u, src, make_state((1, 1)))) < 1e-12
    assert abs(amplitude(u, src, make_state((2, 0))) - r) < 1e-12
    assert abs(amplitude(u, src, make_state((0, 2))) + r) < 1e-12


def test_stimulated_emission_factor():
    # |2,0> -> |2,0> on a balanced splitter: Per([[r,r],[r,r]]) / 2 = 1/2
    u = BeamSplitter.h().matrix()
    assert abs(amplitude(u, make_state((2, 0)), make_state((2, 0))) - 0.5) < 1e-12


def test_sector_basis_canonical_order():
    assert list(sector_basis(2, 3)) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_sector_basis_count():
    for n, m in ((3, 4), (2, 6), (4, 3)):
        assert len(list(sector_basis(n, m))) == math.comb(n + m - 1, n)


def test_batch_amplitudes_match_single_calls():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 5)
    src = make_state((2, 1, 0, 0, 0))
    targets = [make_state(occ) for occ in sector_basis(3, 5)]
    batch = batch_amplitudes(u, src, targets)
    for target, got in zip(targets, batch):
        assert abs(got - amplitude(u, src, target)) < 1e-12


def test_batch_amplitudes_twenty_photon_identity():
    # 2^20 x (20 channels + 20 products + 1 target) is far below the limit.
    ones = make_state((1,) * 20)
    assert abs(batch_amplitudes(np.eye(20), ones, [ones])[0] - 1.0) < 1e-12


def test_batch_amplitudes_work_bound(monkeypatch):
    # |1,1> onto the 2-photon sector of 2 channels.  Channel order (0, 1);
    # steps (1,1) -> (1, 4), (2,0) -> (2,), (0,2) -> (5,) share no prefix, so
    # 4 products; work = 2^2 x (2 channels + 4 products + 3 targets) = 36.
    u = BeamSplitter.h().matrix()
    src = make_state((1, 1))
    targets = [make_state(occ) for occ in sector_basis(2, 2)]
    monkeypatch.setattr(simulate, "_MAX_WORK", 35)
    with pytest.raises(TooLarge, match=r"2\^2 x 9 = 36 vector elements, more than the 35"):
        batch_amplitudes(u, src, targets)
    monkeypatch.setattr(simulate, "_MAX_WORK", 36)
    assert abs(batch_amplitudes(u, src, targets)[1]) < 1e-12
    # Targets outside the sector cost nothing.
    monkeypatch.setattr(simulate, "_MAX_WORK", 0)
    assert batch_amplitudes(u, src, [make_state((1, 0))]) == [0j]


def test_distribution_reports_the_work_bound(monkeypatch):
    monkeypatch.setattr(simulate, "_MAX_WORK", 35)
    u = BeamSplitter.h().matrix()
    with pytest.raises(TooLarge, match="36 vector elements"):
        distribution(u, StateVector.basis(make_state((1, 1))))


def test_batch_amplitudes_rejects_non_square_unitary():
    with pytest.raises(RegisterMismatch):
        batch_amplitudes(np.ones((2, 3)), make_state((1, 0)), [make_state((1, 0))])
    with pytest.raises(RegisterMismatch):
        batch_amplitudes(np.ones(3), make_state((1, 0, 0)), [make_state((1, 0, 0))])


def test_batch_amplitudes_rejects_register_length_mismatch():
    with pytest.raises(RegisterMismatch):
        batch_amplitudes(np.eye(2), make_state((1, 0)), [make_state((1, 0, 0))])
    with pytest.raises(RegisterMismatch):
        batch_amplitudes(np.eye(2), make_state((1, 0, 0)), [make_state((1, 0))])


def _assert_matches_single_calls(u, src, targets):
    batch = batch_amplitudes(u, src, targets)
    assert len(batch) == len(targets)
    for target, got in zip(targets, batch):
        want = amplitude(u, src, target)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_batch_amplitudes_shuffled_duplicate_and_wrong_sector_targets():
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 5)
    src = make_state((1, 1, 0, 1, 0))
    targets = [make_state(occ) for occ in sector_basis(3, 5)]
    targets += targets[:4] + [make_state((1, 0, 0, 0, 0)), make_state((2, 2, 0, 0, 0))]
    order = rng.permutation(len(targets))
    shuffled = [targets[i] for i in order]
    batch = batch_amplitudes(u, src, shuffled)
    for target, got in zip(shuffled, batch):
        if target.n != src.n:
            assert got == 0j
    _assert_matches_single_calls(u, src, shuffled)
    assert batch_amplitudes(u, src, [make_state((0, 0, 0, 0, 4))]) == [0j]
    assert batch_amplitudes(u, src, []) == []


def test_batch_amplitudes_bunched_sources_and_targets_match_oracle():
    rng = np.random.default_rng(12)
    u = random_unitary(rng, 4)
    for occ in ((3, 0, 1, 0), (0, 2, 0, 2), (4, 0, 0, 0)):
        src = make_state(occ)
        targets = [make_state(t) for t in sector_basis(4, 4)]
        batch = batch_amplitudes(u, src, targets)
        oracle = oracle_evolve(u, src)
        for target, got in zip(targets, batch):
            assert abs(got - oracle.amplitude(target)) < 1e-12
        _assert_matches_single_calls(u, src, targets)


def test_batch_amplitudes_herald_pinned_targets():
    rng = np.random.default_rng(13)
    u = random_unitary(rng, 7)
    src = make_state((1, 0, 1, 0, 1, 1, 0))
    expr = parse_postselect("[4]==1 & [5]==1 & [6]==0")
    targets = [make_state(occ) for occ in admissible_outcomes(7, False, 4, expr)]
    assert len(targets) == 10
    _assert_matches_single_calls(u, src, targets)


def test_batch_amplitudes_source_wider_than_one_chunk():
    # 14 photons exceed the chunk width, so the sweep runs in several chunks.
    assert 14 > simulate._CHUNK_BITS
    rng = np.random.default_rng(14)
    u = random_unitary(rng, 15)
    src = make_state((1,) * 13 + (1, 0))
    targets = [
        make_state((0,) + (1,) * 14),
        make_state((2, 0) + (1,) * 12 + (0,)),
        make_state((1,) * 13 + (0, 1)),
    ]
    _assert_matches_single_calls(u, src, targets)


def test_batch_amplitudes_many_chunks_match_oracle(monkeypatch):
    # A two-bit chunk forces every multi-photon sweep through several chunks.
    monkeypatch.setattr(simulate, "_CHUNK_BITS", 2)
    rng = np.random.default_rng(15)
    for _ in range(10):
        modes = int(rng.integers(2, 5))
        occ = [0] * modes
        for _ in range(int(rng.integers(1, 5))):
            occ[int(rng.integers(0, modes))] += 1
        u = random_unitary(rng, modes)
        src = make_state(tuple(occ))
        targets = [make_state(t) for t in sector_basis(src.n, modes)]
        oracle = oracle_evolve(u, src)
        for target, got in zip(targets, batch_amplitudes(u, src, targets[::-1])[::-1]):
            assert abs(got - oracle.amplitude(target)) < 1e-12


def test_evolve_superposition_matches_oracle():
    rng = np.random.default_rng(16)
    u = random_unitary(rng, 4)
    a, b = make_state((2, 1, 0, 0)), make_state((0, 1, 1, 1))
    state = StateVector({a: 0.6, b: 0.8j})
    out = evolve(u, state)
    assert abs(out.norm() - 1.0) < 1e-12
    want_a, want_b = oracle_evolve(u, a), oracle_evolve(u, b)
    for occ in sector_basis(3, 4):
        s = make_state(occ)
        want = 0.6 * want_a.amplitude(s) + 0.8j * want_b.amplitude(s)
        assert abs(out.amplitude(s) - want) < 1e-12


def test_distribution_rejects_register_mismatch():
    with pytest.raises(RegisterMismatch):
        distribution(np.eye(4), StateVector.basis(make_state((1, 1))))


def test_evolve_preserves_norm_and_matches_oracle():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 4)
    state = StateVector.basis(make_state((1, 2, 0, 0)))
    out = evolve(u, state)
    assert abs(out.norm() - 1.0) < 1e-9
    oracle = oracle_evolve(u, make_state((1, 2, 0, 0)))
    for occ in sector_basis(3, 4):
        s = make_state(occ)
        assert abs(out.amplitude(s) - oracle.amplitude(s)) < 1e-9


def _random_circuit(rng, modes):
    c = Circuit(modes)
    for _ in range(int(rng.integers(1, 6))):
        kind = int(rng.integers(0, 3))
        if kind == 0 and modes >= 2:
            anchor = int(rng.integers(0, modes - 1))
            conv = ("h", "rx", "ry", "bs1", "bs2", "bs3")[int(rng.integers(0, 6))]
            theta = float(rng.uniform(-math.pi, math.pi))
            c = c.add(anchor, BeamSplitter(conv, theta))
        elif kind == 1:
            c = c.add(int(rng.integers(0, modes)), PhaseShifter(float(rng.uniform(-math.pi, math.pi))))
        else:
            perm = tuple(int(v) for v in rng.permutation(modes))
            c = c.add(0, Permutation(perm))
    return c


def test_oracle_equivalence_on_random_circuits():
    # permanent path vs creation-operator expansion, 50 seeded draws
    rng = np.random.default_rng(99)
    for _ in range(50):
        modes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        circuit = _random_circuit(rng, modes)
        u = circuit.compile()
        occ = [0] * modes
        for _ in range(n):
            occ[int(rng.integers(0, modes))] += 1
        src = make_state(tuple(occ))
        fast = evolve(u, StateVector.basis(src))
        slow = oracle_evolve(u, src)
        for out in sector_basis(n, modes):
            s = make_state(out)
            assert abs(fast.amplitude(s) - slow.amplitude(s)) < 1e-9


def test_distribution_sums_to_one():
    u = Circuit(3).add(0, BeamSplitter.h()).add(1, BeamSplitter.rx(0.9)).compile()
    dist = distribution(u, StateVector.basis(make_state((1, 1, 0))))
    assert abs(sum(dist.entries.values()) - 1.0) < 1e-9
    assert dist.sector == 2


def test_distribution_requires_fixed_sector():
    mixed = StateVector.basis(make_state((1, 0))) + StateVector.basis(make_state((1, 1)))
    with pytest.raises(MixedSector):
        distribution(np.eye(2), mixed)


def test_distribution_rejects_unnormalized_state():
    both = StateVector.basis(make_state((1, 0))) + StateVector.basis(make_state((0, 1)))
    with pytest.raises(InvalidSpec):
        distribution(np.eye(2), both)
    assert distribution(np.eye(2), both.normalized()).total() == pytest.approx(1.0)


def test_splitmix64_reference_values():
    r = SplitMix64(0)
    assert r.next_uint64() == 0xE220A8397B1DCDAF
    assert r.next_uint64() == 0x6E789E6AA1B965F4
    assert r.next_uint64() == 0x06C45D188009454F


def test_next_double_in_unit_interval():
    r = SplitMix64(123)
    for _ in range(1000):
        d = r.next_double()
        assert 0.0 <= d < 1.0


def test_sampling_is_deterministic():
    u = BeamSplitter.h().matrix()
    dist = distribution(u, StateVector.basis(make_state((1, 0))))
    a = sample(dist, 500, seed=17)
    b = sample(dist, 500, seed=17)
    assert a.counts == b.counts
    c = sample(dist, 500, seed=18)
    assert c.counts != a.counts  # different seed, different stream


def test_sample_counts_add_up():
    u = BeamSplitter.h().matrix()
    dist = distribution(u, StateVector.basis(make_state((1, 0))))
    got = sample(dist, 1000, seed=1)
    assert sum(got.counts.values()) == 1000
    assert got.shots == 1000 and got.seed == 1


def test_sample_rejects_negative_shots():
    dist = distribution(np.eye(2), StateVector.basis(make_state((1, 0))))
    with pytest.raises(ValueError):
        sample(dist, -1, seed=0)


def test_sample_stream_is_pinned():
    # Literal counts recorded before the samplers were merged; a change here
    # means the seeded stream or its mapping to outcomes moved.
    circuit = (
        Circuit(3)
        .add(0, BeamSplitter.bs1(math.pi / 4))
        .add(1, BeamSplitter.h(1.9106332362490186, phi_tl=math.pi, phi_br=math.pi))
        .add(2, PhaseShifter(0.3))
    )
    dist = distribution(circuit.compile(), StateVector.basis(make_state((1, 1, 0))))
    got = sample(dist, 1000, seed=2024)
    assert [(s.occupations, c) for s, c in got.items()] == [
        ((2, 0, 0), 486),
        ((0, 2, 0), 56),
        ((0, 1, 1), 207),
        ((0, 0, 2), 251),
    ]


def test_sample_empty_distribution():
    got = sample(Distribution({}, 2), 5, seed=1)
    assert got.counts == {} and got.shots == 5 and got.seed == 1


def scalar_inverse_cdf_counts(weights, shots, seed):
    """One `SplitMix64.next_double` and one bisection per shot."""
    counts = [0] * len(weights)
    cumulative = list(itertools.accumulate(weights))
    rng = SplitMix64(seed)
    for _ in range(shots):
        index = bisect.bisect_right(cumulative, rng.next_double() * cumulative[-1])
        counts[min(index, len(weights) - 1)] += 1
    return counts


@pytest.mark.parametrize("seed", [0, 1, -1, 2**63, 2**64 + 5, -(2**70)])
def test_inverse_cdf_counts_match_scalar_reference(seed):
    # The doubles themselves, since a low-bit error rarely moves a count.
    ref = SplitMix64(seed)
    want = [ref.next_double() for _ in range(200)]
    assert simulate._splitmix64_doubles(seed, 1, 201).tolist() == want
    assert simulate._splitmix64_doubles(seed, 151, 201).tolist() == want[150:]
    rng = np.random.default_rng(abs(seed) % 2**32)
    cases = [
        [float(w) for w in rng.random(40)],
        [float(w) if w > 0.5 else 0.0 for w in rng.random(25)],
        [0.0] * 6,
        [0.3],
    ]
    for weights in cases:
        for shots in (0, 1, 300):
            got = simulate.inverse_cdf_counts(weights, shots, seed)
            assert got == scalar_inverse_cdf_counts(weights, shots, seed)
            assert type(got) is list and all(type(c) is int for c in got)
    assert simulate.inverse_cdf_counts([0.0] * 6, 9, seed) == [0] * 5 + [9]


def test_inverse_cdf_counts_across_draw_chunks(monkeypatch):
    monkeypatch.setattr(simulate, "_DRAW_CHUNK", 7)
    weights = [0.1, 0.0, 0.25, 0.4, 0.05, 0.2]
    for seed in (3, -(2**70)):
        got = simulate.inverse_cdf_counts(weights, 50, seed)
        assert got == scalar_inverse_cdf_counts(weights, 50, seed)
        assert sum(got) == 50
