"""Permanent, amplitudes, distributions and sampling.

The permanent is checked against a naive permutation-sum oracle, and the
fast evolution path against the creation-operator expansion oracle.
"""

import bisect
import copy
import itertools
import json
import math
import pickle
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsim.circuit import Circuit
from photonsim.components import BeamSplitter, GenericUnitary, Permutation, PhaseShifter
from photonsim.errors import InvalidSpec, MixedSector, NotUnitary, RegisterMismatch, TooLarge
from photonsim.fock import PRUNE_TOL, FockState, Outcomes, StateVector, make_state
from photonsim.postselect import Processor, admissible_outcomes, parse_postselect
from photonsim._sampling import SplitMix64
from photonsim.reference import amplitude, oracle_evolve, permanent
from photonsim.simulate import (
    Distribution,
    SampleCount,
    batch_amplitudes,
    distribution,
    evolve,
    sample,
    sector_basis,
    state_amplitudes,
)
from photonsim import _kernels, _sampling, _sectors, _stepper, simulate


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


@pytest.mark.parametrize("n, channels, message", [
    (-2, 1, "photon number must be >= 0, got -2"),
    (2, -1, "channel count must be >= 0, got -1"),
    (True, 1, "photon number must be an integer, got True"),
    (2, 3.0, "channel count must be an integer, got 3.0"),
])
def test_sector_enumerators_check_their_counts(n, channels, message):
    # A negative count yielded a row of -2 photons or a numpy reshape error,
    # and a bool passed as 1.  Both stay generators: the check comes on the
    # first next(), and no record is built or kept.
    _sectors._STRUCTURES.clear()
    for outcomes in (sector_basis(n, channels), admissible_outcomes(channels, False, n, None)):
        with pytest.raises(InvalidSpec, match=message):
            next(outcomes)
    assert not _sectors._STRUCTURES._records
    assert list(sector_basis(np.int64(2), np.int64(2))) == [(2, 0), (1, 1), (0, 2)]


def test_sector_enumeration_byte_budget(monkeypatch):
    # Two photons on 3 channels grow 3, 6 and 6 rows of 8 x (3 + 4) bytes,
    # and each step keeps 16 bytes a row: the last step holds 6 x 56 bytes
    # and the 16 x (3 + 6) kept before it.
    _sectors._STRUCTURES.clear()
    monkeypatch.setattr(_sectors, "_ENUMERATION_BYTES", 6 * 56 + 16 * 9)
    assert len(list(sector_basis(2, 3))) == 6
    _sectors._STRUCTURES.clear()
    monkeypatch.setattr(_sectors, "_ENUMERATION_BYTES", 6 * 56 + 16 * 9 - 1)
    with pytest.raises(TooLarge, match="reaches 6 rows at channel 2 of 3, 480 bytes, more than the 479"):
        list(sector_basis(2, 3))
    # C(41, 12) = 7.1e9 rows; the budget is lowered so that the refusal
    # comes after a few thousand rows instead of millions.
    monkeypatch.setattr(_sectors, "_ENUMERATION_BYTES", 1 << 20)
    with pytest.raises(TooLarge, match="rows at channel 4 of 30"):
        next(sector_basis(12, 30))


@pytest.mark.parametrize("n", range(2, 14))
def test_window_plans_sweep_as_one_node_per_op(n, monkeypatch):
    # Modes enough that the targets fill more than one window while rows
    # are short; with _VIEW_BYTES at 0 every row counts as long.
    modes = {2: 91, 3: 23, 4: 12, 5: 8, 6: 6, 7: 5}.get(n, 4)
    rng = np.random.default_rng(n)
    rows = _sectors._outcomes(modes, n, None)
    u = random_unitary(rng, modes)
    source = rows[len(rows) // 3].tolist()
    plan = _kernels._plan(rows, n)
    assert plan.leaves > plan.width if n < 12 else plan.width == 1
    monkeypatch.setattr(_kernels, "_VIEW_BYTES", 0)
    single = _kernels._plan(rows, n)
    assert single.width == 1
    assert np.array_equal(_kernels._sweep(u, source, plan), _kernels._sweep(u, source, single))


@pytest.mark.parametrize("n", [11, 12, 13, 14, 20])
def test_plans_from_2_to_the_11_subsets_keep_one_node_per_op(n):
    plan = _kernels._plan(_sectors._outcomes(3, n, None), n)
    assert (plan.width == 1) == (n >= 12)


def exact(pairs):
    """(state, value) pairs with each float or complex value as its bits."""
    return [(s, complex(v).real.hex(), complex(v).imag.hex()) for s, v in pairs]


def test_distribution_and_evolve_match_their_list_construction():
    # 20 seeded Haar inputs: collision-free, bunched and both at once.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        modes, n = 4 + seed % 4, 2 + seed % 3
        u = random_unitary(rng, modes)
        free = make_state((1,) * n + (0,) * (modes - n))
        bunched = make_state((n - 1,) + (0,) * (modes - 2) + (1,))
        terms = ({free: 1.0}, {bunched: 1.0}, {free: 0.6, bunched: 0.8j})[seed % 3]
        assert_evolved_bits(u, StateVector(terms))


def assert_evolved_bits(u, psi):
    """distribution and evolve give the keys, order and float bits of
    their construction from the list of state_amplitudes."""
    amplitudes = state_amplitudes(u, psi, None)
    want = [(s, abs(a) ** 2) for s, a in amplitudes if abs(a) >= PRUNE_TOL]
    got = distribution(u, psi)
    assert exact(got.entries.items()) == exact(want)
    assert exact(got.items()) == exact(want)
    listed = StateVector(dict(amplitudes), channels=psi.channels, polarized=psi.polarized)
    evolved = evolve(u, psi)
    assert (evolved.channels, evolved.polarized) == (listed.channels, listed.polarized)
    assert len(evolved) == len(listed)
    assert evolved == listed
    assert exact(evolved._amp.items()) == exact(listed._amp.items())
    # Each read gives the same first on a fresh vector, then again on the
    # same vector, as on the checked construction.
    outside = FockState((0,) * psi.channels, psi.polarized)
    probes = [s for s, _ in amplitudes[:3]] + [outside]
    reads = {
        "items": lambda v: exact(v.items()),
        "amplitude": lambda v: exact((s, v.amplitude(s)) for s in probes),
        "sector": lambda v: v.sector,
        "norm": lambda v: v.norm().hex(),
        "eq": lambda v: (v == listed, listed == v, v == v, v != listed),
        "pickle": lambda v: round_trip(pickle.loads(pickle.dumps(v)), v),
        "copy": lambda v: round_trip(copy.copy(v), v),
    }
    for name, read in reads.items():
        fresh = evolve(u, psi)
        before = read(fresh)
        assert before == read(fresh) == read(listed), name


def round_trip(twin, vector):
    """What a copy of `vector` reads: its terms' bits and its register, and
    whether it equals the original."""
    return exact(twin.items()), twin.channels, twin.polarized, twin == vector


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_probability_squares_match_abs_squared_bit_for_bit():
    # 10^6 magnitudes log-uniform over 1e-300..1 at random phases, plus the
    # edge values on each axis; |amp| * |amp| and np.power each round apart
    # from abs(amp) ** 2 on hundreds of them.  The squares of every
    # magnitude are read: the cut at PRUNE_TOL is `_kept`'s.
    rng = np.random.default_rng(30)
    mags = 10.0 ** rng.uniform(-300.0, 0.0, 10**6)
    phases = rng.uniform(0.0, 2 * math.pi, mags.size)
    edges = np.array([0.0, 5e-324, sys.float_info.min, 1.0, math.nextafter(1.0, 0.0)])
    amps = np.concatenate([mags * np.exp(1j * phases), edges, 1j * edges])
    got = simulate._probabilities(Outcomes(None, None, amps))
    squares = list(got.values())
    assert got.rows is None and len(got) == amps.size and all(type(p) is float for p in squares)
    want = [abs(a) ** 2 for a in amps.tolist()]
    assert list(map(float.hex, squares)) == list(map(float.hex, want))


def test_distribution_builds_no_dict_for_the_evolved_vector(monkeypatch):
    u = random_unitary(np.random.default_rng(11), 6)
    psi = StateVector({make_state((1, 1, 1, 0, 0, 0)): 0.6, make_state((2, 0, 0, 0, 0, 1)): 0.8j})
    want = {s: abs(a) ** 2 for s, a in evolve(u, psi).items()}
    for first_read in (None, len, StateVector.items):
        vectors = []

        def capture(matrix, state):
            vectors.append(evolve(matrix, state))
            if first_read is not None:  # as a wrapper that reads the vector
                first_read(vectors[-1])
            return vectors[-1]

        monkeypatch.setattr(simulate, "evolve", capture)
        got = distribution(u, psi)
        [vector] = vectors
        assert exact(got.entries.items()) == exact(want.items())
        assert list(got.entries) == [s for s, _ in vector.items()]
        assert vector == StateVector(dict(state_amplitudes(u, psi, None)))


def test_threads_reading_one_evolved_vector_get_equal_terms():
    # The record is cleared before each evolve, so the readers race to
    # build its states and index.
    u = random_unitary(np.random.default_rng(12), 8)
    psi = StateVector.basis(make_state((1, 1, 1, 1, 0, 0, 0, 0)))
    listed = dict(state_amplitudes(u, psi, None))
    want = exact(listed.items())
    probes = list(listed)[::7]
    looked_up = [listed[s] for s in probes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            _sectors._STRUCTURES.clear()
            vector, barrier, terms = evolve(u, psi), threading.Barrier(4), []

            def reader():
                barrier.wait(timeout=60)
                terms.append((exact(vector._amp.items()), [vector.amplitude(s) for s in probes]))

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(terms) == 4 and all(items == want and amps == looked_up for items, amps in terms)
    finally:
        sys.setswitchinterval(interval)


def test_evolve_prunes_amplitudes_at_prune_tol_as_the_list_construction():
    # One photon in mode 0 or 2 of two 2-mode rotations whose diagonal
    # amplitude, times the input's 1/sqrt(2), lands a hair above and below.
    blocks = []
    for scale in (1 + 1e-6, 1 - 1e-6):
        a = PRUNE_TOL * math.sqrt(2) * scale * complex(math.cos(0.7), math.sin(0.7))
        s = math.sqrt(1 - abs(a) ** 2)
        blocks.append(np.array([[a, -s], [s, a.conjugate()]]))
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2], u[2:, 2:] = blocks
    psi = StateVector({make_state((1, 0, 0, 0)): 1.0, make_state((0, 0, 1, 0)): 1.0}).normalized()
    amps = dict(state_amplitudes(u, psi, None))
    above, below = abs(amps[make_state((1, 0, 0, 0))]), abs(amps[make_state((0, 0, 1, 0))])
    assert PRUNE_TOL <= above < PRUNE_TOL * (1 + 1e-5)
    assert PRUNE_TOL * (1 - 1e-5) < below < PRUNE_TOL
    assert_evolved_bits(u, psi)
    assert make_state((1, 0, 0, 0)) in distribution(u, psi).entries
    assert make_state((0, 0, 1, 0)) not in distribution(u, psi).entries


def test_sample_reads_program_built_distributions_without_sorting(monkeypatch):
    u = random_unitary(np.random.default_rng(8), 6)
    psi = StateVector({make_state((1, 1, 1, 0, 0, 0)): 0.6, make_state((2, 0, 0, 0, 0, 1)): 0.8})
    circuit = Circuit(4).add(0, BeamSplitter.h()).add(1, BeamSplitter.rx(0.9)).add(2, BeamSplitter.h())
    run, _ = Processor(circuit, StateVector.basis(make_state((1, 1, 1, 0))),
                       parse_postselect("[3]<=1")).run()
    calls = []
    sort = simulate.canonical_items
    monkeypatch.setattr(simulate, "canonical_items", lambda pairs: calls.append(1) or sort(pairs))
    for built in (distribution(u, psi), run):
        # The view shows as its dict, in repr and ==.
        assert repr(Distribution(dict(built.entries), built.sector)) == repr(built)
        # The same entries from an unordered dict: equal, and sorted on use.
        user = Distribution(dict(reversed(list(built.entries.items()))), built.sector)
        assert user == built
        for seed in range(10):
            calls.clear()
            got = sample(built, 5000, seed)
            assert not calls
            want = sample(user, 5000, seed)
            assert calls
            assert list(got.counts.items()) == list(want.counts.items())
            # The comprehension sample used to build its counts with.
            ordered = built.items()
            counts = _sampling.inverse_cdf_counts([p for _, p in ordered], 5000, seed)
            old = {s: c for (s, _), c in zip(ordered, counts) if c}
            assert got == SampleCount(old, 5000, seed)
            assert list(got.counts.items()) == list(old.items())


def test_batch_amplitudes_match_single_calls():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 5)
    src = make_state((2, 1, 0, 0, 0))
    targets = [make_state(occ) for occ in sector_basis(3, 5)]
    batch = batch_amplitudes(u, src, targets)
    for target, got in zip(targets, batch):
        assert abs(got - amplitude(u, src, target)) < 1e-12


def test_batch_amplitudes_twenty_photon_identity():
    # 2^19 x (20 channels + 20 products + 1 target) is far below the limit.
    ones = make_state((1,) * 20)
    assert abs(batch_amplitudes(np.eye(20), ones, [ones])[0] - 1.0) < 1e-12


def test_batch_amplitudes_work_bound(monkeypatch):
    # |1,1> onto the 2-photon sector of 2 channels.  The SLOS tables hold
    # the 3 targets and the 2 one-photon rows, 2 entries each: 10, under
    # the Glynn plan's 2^1 x 11 (see test_work_counts_each_power_step).
    u = BeamSplitter.h().matrix()
    src = make_state((1, 1))
    targets = [make_state(occ) for occ in sector_basis(2, 2)]
    monkeypatch.setattr(_kernels, "_MAX_WORK", 9)
    with pytest.raises(TooLarge, match=r"^the expansion needs 2 x 5 = 10 vector elements, "
                                       r"more than the 9 allowed$"):
        batch_amplitudes(u, src, targets)
    monkeypatch.setattr(_kernels, "_MAX_WORK", 10)
    assert abs(batch_amplitudes(u, src, targets)[1]) < 1e-12
    # Targets outside the sector cost nothing.
    monkeypatch.setattr(_kernels, "_MAX_WORK", 0)
    assert batch_amplitudes(u, src, [make_state((1, 0))]) == [0j]


def test_distribution_reports_the_work_bound(monkeypatch):
    monkeypatch.setattr(_kernels, "_MAX_WORK", 9)
    u = BeamSplitter.h().matrix()
    with pytest.raises(TooLarge, match="^the expansion needs 2 x 5 = 10 vector elements"):
        distribution(u, StateVector.basis(make_state((1, 1))))
    monkeypatch.setattr(_kernels, "_MAX_WORK", 10)
    # Hong-Ou-Mandel: |1,1> leaves as |2,0> or |0,2>.
    assert len(distribution(u, StateVector.basis(make_state((1, 1)))).entries) == 2


def test_distribution_counts_the_sector_before_enumerating(monkeypatch):
    # Without a predicate the chosen kernel's exact count comes from closed
    # forms.  16 photons on 10 modes would need 10 x 5,311,734 SLOS table
    # entries, past the structure budget, so the count is the Glynn plan's:
    # per subset 160 factor rows, 3,350,478 trie nodes and 2,042,975 leaves.
    # No sector is kept, so an enumeration would show.
    _sectors._STRUCTURES.clear()

    def no_enumeration(*args):
        raise AssertionError("the sector was enumerated")

    monkeypatch.setattr(_sectors, "_outcomes", no_enumeration)
    huge = StateVector.basis(make_state((16,) + (0,) * 9))
    with pytest.raises(TooLarge, match=r"^the sweep needs 2\^15 x 5393613 = 176737910784 vector "
                                       r"elements, more than the 17179869184 allowed$"):
        distribution(np.eye(10), huge)
    # |1,1>: 2 x 5 SLOS table entries, against the limit read now.
    monkeypatch.setattr(_kernels, "_MAX_WORK", 9)
    with pytest.raises(TooLarge, match=r"^the expansion needs 2 x 5 = 10 vector elements, more "
                                       r"than the 9"):
        distribution(BeamSplitter.h().matrix(), StateVector.basis(make_state((1, 1))))


def test_work_counts_each_power_step(monkeypatch):
    # The Glynn plan of (3,0,0) from 3 photons: 3 channel sums, the square
    # and the cube of channel 0 (one product each), one prefix product and
    # one target sum.  Its SLOS tables hold (3,0,0), (2,0,0) and (1,0,0),
    # 3 entries each, so they serve it.
    rows = np.array([[3, 0, 0]])
    plan = _kernels._plan(rows, 3)
    assert (plan.work, plan.count) == (28, "the sweep needs 2^2 x 7")
    monkeypatch.setattr(_kernels, "_MAX_WORK", 8)
    with pytest.raises(TooLarge, match=r"^the expansion needs 3 x 3 = 9 vector elements"):
        batch_amplitudes(np.eye(3), make_state((1, 1, 1)), [make_state((3, 0, 0))])


def test_171_photons_are_refused_with_the_sweep_count():
    # 171! leaves float range: the SLOS tables are ruled out and the Glynn
    # plan's t_j! saturate at inf, so the plan still states its count,
    # which the limit refuses before any sweep.
    big = make_state((171, 0))
    assert _kernels._plan(np.array([[171, 0]]), 171).t_norm.tolist() == [math.inf]
    with pytest.raises(TooLarge, match=r"^the sweep needs 2\^170 x 174 = \d+ vector elements, "
                                       r"more than the 17179869184 allowed$"):
        batch_amplitudes(np.eye(2), big, [big])


def test_state_amplitudes_are_linear_in_the_terms():
    # One trie plan serves both terms; the result is the coefficient-weighted
    # sum of the one-term results whatever order the terms were given in.
    u = random_unitary(np.random.default_rng(11), 4)
    a, b = make_state((1, 1, 1, 0)), make_state((0, 3, 0, 0))
    ca, cb = 0.6 + 0.3j, -0.2 + 0.71j
    both = state_amplitudes(u, StateVector({a: ca, b: cb}), None)
    assert both == state_amplitudes(u, StateVector({b: cb, a: ca}), None)
    one_a = state_amplitudes(u, StateVector.basis(a), None)
    one_b = state_amplitudes(u, StateVector.basis(b), None)
    assert len(both) == len(one_a) == len(one_b) == math.comb(6, 3)
    for (s, x), (sa, ya), (sb, yb) in zip(both, one_a, one_b):
        assert s == sa == sb
        assert abs(x - (ca * ya + cb * yb)) < 1e-15


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


def each_kernel(u, src, targets):
    """The amplitudes of the targets in the source's sector from the Glynn
    plan and from the SLOS tables, both, whichever `_kernel` would pick."""
    rows = np.array([t.occupations for t in targets if t.n == src.n])
    plan = _kernels._plan(rows, src.n)
    tables = _kernels._tables(rows, src.n, 1 << 62)
    return [kernel.amplitudes(u, src.occupations) for kernel in (plan, tables)]


def _assert_matches_single_calls(u, src, targets):
    batch = batch_amplitudes(u, src, targets)
    assert len(batch) == len(targets)
    for target, got in zip(targets, batch):
        want = amplitude(u, src, target)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
    live = [amplitude(u, src, t) for t in targets if t.n == src.n]
    for got in each_kernel(u, src, targets):
        assert np.allclose(got, live, rtol=1e-12, atol=1e-12)


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
    # Glynn sweeps the 14 columns after the first of 15 photons, more than
    # the chunk width, so the sweep runs in several chunks.
    assert 14 > _kernels._CHUNK_BITS
    rng = np.random.default_rng(14)
    u = random_unitary(rng, 16)
    src = make_state((1,) * 14 + (1, 0))
    targets = [
        make_state((0,) + (1,) * 15),
        make_state((2, 0) + (1,) * 13 + (0,)),
        make_state((1,) * 14 + (0, 1)),
    ]
    _assert_matches_single_calls(u, src, targets)


def test_batch_amplitudes_many_chunks_match_oracle(monkeypatch):
    # A two-bit chunk forces every multi-photon Glynn sweep through several
    # chunks; the batch call takes whichever kernel `_kernel` picks.
    monkeypatch.setattr(_kernels, "_CHUNK_BITS", 2)
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
        glynn, _ = each_kernel(u, src, targets[::-1])
        for target, got, batch in zip(targets, glynn[::-1],
                                      batch_amplitudes(u, src, targets[::-1])[::-1]):
            assert abs(got - oracle.amplitude(target)) < 1e-12
            assert abs(batch - oracle.amplitude(target)) < 1e-12


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


def counts_each_way(weights, shots, seed):
    """`inverse_cdf_counts` twice, forced through the private crossover:
    every chunk counted edge by edge, then every chunk sorted."""
    got = []
    for per_edge in (0, 1 << 62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_sampling, "_DRAWS_PER_EDGE", per_edge)
            got.append(_sampling.inverse_cdf_counts(weights, shots, seed))
    return got


def scalar_inverse_cdf_counts(weights, shots, seed):
    """One `SplitMix64.next_double` and one bisection per shot, clamped to
    the last positive weight (the last index when all weights are zero)."""
    counts = [0] * len(weights)
    cumulative = list(itertools.accumulate(weights))
    last = max((i for i, w in enumerate(weights) if w > 0), default=len(weights) - 1)
    rng = SplitMix64(seed)
    for _ in range(shots):
        index = bisect.bisect_right(cumulative, rng.next_double() * cumulative[-1])
        counts[min(index, last)] += 1
    return counts


@pytest.mark.parametrize("seed", [0, 1, -1, 2**63, 2**64 + 5, -(2**70)])
def test_inverse_cdf_counts_match_scalar_reference(seed):
    # The doubles themselves, since a low-bit error rarely moves a count.
    ref = SplitMix64(seed)
    want = [ref.next_double() for _ in range(200)]
    assert _sampling._splitmix64_doubles(seed, 1, 201).tolist() == want
    assert _sampling._splitmix64_doubles(seed, 151, 201).tolist() == want[150:]
    # Scaled draws, subnormal products included, are next_double() * scale.
    for scale in (0.0, 5e-324, 1e-310, 1e-300, 2**-969, 3.0, 1.7e308):
        got = _sampling._splitmix64_doubles(seed, 1, 201, scale).tolist()
        assert list(map(float.hex, got)) == [(d * scale).hex() for d in want]
    rng = np.random.default_rng(abs(seed) % 2**32)
    cases = [
        [float(w) for w in rng.random(40)],
        [float(w) if w > 0.5 else 0.0 for w in rng.random(25)],
        [0.0] * 6,
        [0.3],
        [1e-300, 3e-301, 0.0, 2e-300],  # a total whose draws go subnormal
        # Subnormal point masses: a draw can round up to the total, past
        # the zero weights after the mass.
        [0.0, 5e-324, 0.0],
        [0.0, 3e-320],
        [2e-323, 0.0, 0.0],
    ]
    for weights in cases:
        for shots in (0, 1, 300):
            want = scalar_inverse_cdf_counts(weights, shots, seed)
            for got in counts_each_way(weights, shots, seed):
                assert got == want
                assert type(got) is list and all(type(c) is int for c in got)
    assert counts_each_way([0.0] * 6, 9, seed) == [[0] * 5 + [9]] * 2


def test_subnormal_totals_put_no_draw_past_the_last_positive_weight():
    # fl(u * total) rounds up to a subnormal total for some u < 1 (for 5e-324
    # every u > 1/2), and bisect_right puts such a draw past every edge; the
    # clamp keeps it on the last positive weight, not the zeros after it.
    for weights, shots in (
        ([0.0, 5e-324, 0.0], 300),
        ([2e-323, 0.0, 0.0], 300),
        ([0.0, 3e-320, 0.0, 0.0], 70_000),
    ):
        total = sum(weights)
        rng = SplitMix64(11)
        assert any(rng.next_double() * total == total for _ in range(shots))
        want = [shots if w else 0 for w in weights]
        assert scalar_inverse_cdf_counts(weights, shots, 11) == want
        assert counts_each_way(weights, shots, 11) == [want, want]
    weights = [0.0, 5e-324, 0.0, 5e-324, 0.0, 0.0]
    want = scalar_inverse_cdf_counts(weights, 300, 11)
    assert want[1] > 0 and want[3] > 0 and want[1] + want[3] == 300
    assert counts_each_way(weights, 300, 11) == [want, want]


@pytest.mark.parametrize(
    "weights",
    [
        [0.0, 0.0, 0.0, 0.3, 0.7],
        [0.2, 0.8, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0, 0.25, 0.25, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
)
def test_leading_and_trailing_zeros_across_draw_chunks(weights, monkeypatch):
    # Edges <= 0 and past the largest draw are not counted, only set.
    want = scalar_inverse_cdf_counts(weights, 70_000, 29)
    assert 70_000 > _sampling._DRAW_CHUNK
    assert counts_each_way(weights, 70_000, 29) == [want, want]
    monkeypatch.setattr(_sampling, "_DRAW_CHUNK", 7)
    for shots in (6, 7, 8, 50):
        want = scalar_inverse_cdf_counts(weights, shots, -3)
        assert counts_each_way(weights, shots, -3) == [want, want]


def test_no_draw_is_computed_when_no_edge_is_live(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew for a point mass")

    monkeypatch.setattr(_sampling, "_splitmix64_doubles", no_draws)
    assert counts_each_way([0.0, 0.0, 0.9999999999999998, 0.0], 10**6, 5) == [[0, 0, 10**6, 0]] * 2
    assert _sampling.inverse_cdf_counts([0.0, 1e300], 2**63 - 1, 1) == [0, 2**63 - 1]
    assert _sampling.inverse_cdf_counts([0.0] * 3, 10**9, 1) == [0, 0, 10**9]
    assert _sampling.inverse_cdf_counts([0.0, 1.0], 0, 1) == [0, 0]


def test_inverse_cdf_counts_across_draw_chunks(monkeypatch):
    monkeypatch.setattr(_sampling, "_DRAW_CHUNK", 7)
    weights = [0.1, 0.0, 0.25, 0.4, 0.05, 0.2]
    for seed in (3, -(2**70)):
        want = scalar_inverse_cdf_counts(weights, 50, seed)
        assert counts_each_way(weights, 50, seed) == [want, want]
        assert sum(want) == 50


def test_draw_on_a_cdf_edge_goes_to_the_upper_outcome():
    # With weights [d, 1 - d] the first draw is d itself, exactly on the edge
    # between the two outcomes; bisect_right sends it up.
    for seed in range(5):
        d = SplitMix64(seed).next_double()
        assert d * (d + (1.0 - d)) == d
        assert counts_each_way([d, 1.0 - d], 1, seed) == [[0, 1], [0, 1]]
        assert scalar_inverse_cdf_counts([d, 1.0 - d], 1, seed) == [0, 1]


def test_inverse_cdf_counts_match_per_draw_search_over_a_haar_distribution():
    # 2002 outcomes and 1e5 shots, across the 65,536-draw chunk boundary.
    u = random_unitary(np.random.default_rng(5), 10)
    dist = distribution(u, StateVector.basis(make_state((1, 0, 1, 0, 1, 0, 1, 0, 1, 0))))
    weights = [p for _, p in dist.items()]
    assert len(weights) == 2002
    shots, seed = 100_000, 9301
    assert shots > _sampling._DRAW_CHUNK
    cumulative = np.array(list(itertools.accumulate(weights)))
    draws = _sampling._splitmix64_doubles(seed, 1, shots + 1) * cumulative[-1]
    index = np.minimum(np.searchsorted(cumulative, draws, side="right"), len(weights) - 1)
    want = np.bincount(index, minlength=len(weights)).tolist()
    assert _sampling.inverse_cdf_counts(weights, shots, seed) == want
    assert counts_each_way(weights, shots, seed) == [want, want]
    got = sample(dist, shots, seed)
    assert got.counts == {s: c for (s, _), c in zip(dist.items(), want) if c}


def test_few_edge_counts_match_per_draw_search_across_draw_chunks():
    # Four labels, as a search reads them, with a zero weight: 3 edges and
    # more than two full chunks of draws.
    weights = [0.25, 0.0, 0.6, 0.15]
    shots, seed = 2 * _sampling._DRAW_CHUNK + 12_345, 4177
    assert _sampling._DRAW_CHUNK > 3 * _sampling._DRAWS_PER_EDGE
    cumulative = np.array(list(itertools.accumulate(weights)))
    draws = _sampling._splitmix64_doubles(seed, 1, shots + 1) * cumulative[-1]
    index = np.minimum(np.searchsorted(cumulative, draws, side="right"), len(weights) - 1)
    want = np.bincount(index, minlength=len(weights)).tolist()
    assert want[1] == 0 and sum(want) == shots
    assert _sampling.inverse_cdf_counts(weights, shots, seed) == want
    assert counts_each_way(weights, shots, seed) == [want, want]


def test_the_crossover_sorts_only_chunks_with_few_draws_per_edge(monkeypatch):
    # searchsorted runs only on a sorted chunk: a 1e5-shot draw over 4
    # labels is counted in both chunks, one over 2,002 outcomes is sorted.
    calls = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(1) or search(*a, **k))
    _sampling.inverse_cdf_counts([0.1, 0.2, 0.3, 0.4], 100_000, 1)
    assert not calls
    _sampling.inverse_cdf_counts([1.0] * 2002, 100_000, 1)
    assert len(calls) == 2
    calls.clear()
    monkeypatch.setattr(_sampling, "_DRAWS_PER_EDGE", 1 << 62)
    _sampling.inverse_cdf_counts([0.1, 0.2, 0.3, 0.4], 100_000, 1)
    assert len(calls) == 2


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    weights=st.lists(
        st.sampled_from([0.0, 0.0, 0.5, 1e-300, 2.0]) | st.floats(0.0, 10.0),
        min_size=1,
        max_size=30,
    )
    | st.lists(st.just(0.0), min_size=1, max_size=4),
    shots=st.integers(0, 120),
    seed=st.integers(-(2**70), 2**70),
)
def test_inverse_cdf_counts_property_with_zeros_and_plateaus(weights, shots, seed):
    # Zeros make plateaus in the running sums, so several edges coincide;
    # all-zero weights put every draw exactly on the edges.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_sampling, "_DRAW_CHUNK", 7)
        got = counts_each_way(weights, shots, seed)
    want = scalar_inverse_cdf_counts(weights, shots, seed)
    assert got == [want, want]


@pytest.mark.parametrize(
    "weights",
    [[math.nan, 0.5], [-1.0, 0.5, 0.7], [0.5, math.inf], [-0.0, -1e-300], [1e308, 1e308]],
)
def test_inverse_cdf_counts_reject_bad_weights(weights):
    with pytest.raises(InvalidSpec, match="sampling weights must be finite and >= 0"):
        _sampling.inverse_cdf_counts(weights, 0, 1)


@pytest.mark.parametrize(
    "weights, shown",
    [
        (0.5, "0.5"),
        ([[0.5], [0.5]], "[[0.5], [0.5]]"),
        ([[0.5], [0.25, 0.25]], "[[0.5], [0.25, 0.25]]"),
        (["1", "2"], "['1', '2']"),
        ([0.5, "x"], "[0.5, 'x']"),
        ([1j, 0.5], "[1j, 0.5]"),
        ([True, False], "[True, False]"),
        ({0: 0.5}, "{0: 0.5}"),
    ],
)
def test_inverse_cdf_counts_reject_weights_that_are_not_a_sequence_of_reals(weights, shown):
    with pytest.raises(InvalidSpec, match=re.escape(
            f"sampling weights must be a 1-D sequence of real numbers, got {shown}")):
        _sampling.inverse_cdf_counts(weights, 3, 1)


def test_inverse_cdf_counts_accept_integer_and_float32_weights():
    want = scalar_inverse_cdf_counts([1.0, 0.0, 3.0], 40, 2)
    assert _sampling.inverse_cdf_counts([1, 0, 3], 40, 2) == want
    assert _sampling.inverse_cdf_counts(np.array([1, 0, 3], np.float32), 40, 2) == want


@pytest.mark.parametrize("dist", [{FockState((1, 0)): 1.0}, [0.5, 0.5], None])
def test_sample_rejects_what_is_not_a_distribution(dist):
    with pytest.raises(InvalidSpec, match="sample needs a Distribution, got "):
        sample(dist, 10, 1)


def test_shots_past_int64_fail_before_any_draw(monkeypatch):
    monkeypatch.setattr(_sampling, "_splitmix64_doubles", None)
    dist = Distribution({FockState((1, 0)): 0.5, FockState((0, 1)): 0.5}, 1)
    message = re.escape("shots must be at most 2^63 - 1, got 9223372036854775808")
    for call in (lambda: _sampling.inverse_cdf_counts([0.5, 0.5], 2**63, 1),
                 lambda: sample(dist, 2**63, 1)):
        with pytest.raises(ValueError, match=message):
            call()


def test_sample_stores_shots_and_seed_as_python_ints():
    dist = Distribution({FockState((1, 0)): 0.5, FockState((0, 1)): 0.5}, 1)
    got = sample(dist, np.int64(5), np.uint32(2))
    assert type(got.shots) is int and type(got.seed) is int
    assert got == sample(dist, 5, 2)
    json.dumps({"shots": got.shots, "seed": got.seed})


def test_splitmix64_seeds_are_checked_as_the_samplers_check_them():
    for seed in (True, 1.0, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SplitMix64(seed)


def test_sample_rejects_a_nan_probability():
    dist = Distribution({FockState((1, 0)): math.nan, FockState((0, 1)): 0.5}, 1)
    with pytest.raises(InvalidSpec, match="weight 0 is nan"):
        sample(dist, 10, seed=0)


@pytest.mark.parametrize(
    "shots, seed, message",
    [
        (True, 0, "shots must be an integer, got True"),
        (2.5, 0, "shots must be an integer, got 2.5"),
        (3, 1.5, "seed must be an integer, got 1.5"),
        (3, None, "seed must be an integer, got None"),
        (3, False, "seed must be an integer, got False"),
    ],
)
def test_inverse_cdf_counts_reject_non_integer_shots_and_seeds(shots, seed, message):
    with pytest.raises(ValueError, match=message):
        _sampling.inverse_cdf_counts([0.5, 0.5], shots, seed)


@pytest.mark.parametrize("seed", [np.int64(3), np.int64(-7), np.uint32(2**32 - 1)])
def test_scalar_and_array_streams_agree_on_numpy_seeds(seed):
    # The scalar reference takes numpy integers, as inverse_cdf_counts does,
    # and gives the stream of the equal Python int.
    plain = SplitMix64(int(seed))
    want = [plain.next_double() for _ in range(50)]
    ref = SplitMix64(seed)
    assert [ref.next_double() for _ in range(50)] == want
    assert _sampling._splitmix64_doubles(seed, 1, 51).tolist() == want


def test_inverse_cdf_counts_accept_numpy_integers():
    weights = [0.2, 0.0, 0.5, 0.3]
    want = scalar_inverse_cdf_counts(weights, 40, -1)
    assert _sampling.inverse_cdf_counts(weights, np.int64(40), np.int64(-1)) == want
    assert _sampling.inverse_cdf_counts(weights, np.uint32(40), -1) == want


def test_threads_draw_into_their_own_kept_arrays():
    # Each thread keeps its own draw arrays, so concurrent samplers with
    # chunks of different lengths give the counts a lone call gives.
    weights = [0.1, 0.4, 0.2, 0.3]
    cases = [(shots, seed) for shots in (1_000, 70_000, 200_001) for seed in (3, 4)]
    want = [_sampling.inverse_cdf_counts(weights, *case) for case in cases]
    results, errors = [], []

    def worker(offset):
        try:
            for i in range(12):
                k = (offset + i) % len(cases)
                results.append(_sampling.inverse_cdf_counts(weights, *cases[k]) == want[k])
        except Exception as error:  # reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(results) == 48 and all(results)


@pytest.mark.parametrize(
    "matrix",
    [2 * np.eye(2), np.full((2, 2), np.nan), np.full((2, 2), np.inf), np.eye(2) + 1e-6],
)
def test_evaluation_route_rejects_non_unitary_matrices(matrix):
    state = StateVector.basis(FockState((1, 0)))
    with pytest.raises(NotUnitary):
        distribution(matrix, state)
    with pytest.raises(NotUnitary):
        state_amplitudes(matrix, state, None)


def test_unitarity_check_allows_rounding_below_the_tolerance():
    u = np.eye(2) * (1 + 1e-12)
    amps = state_amplitudes(u, StateVector.basis(FockState((1, 0))), None)
    assert abs(dict(amps)[FockState((1, 0))] - 1.0) < 1e-11


def test_row_ids_past_int64_keys():
    # 21 columns of radix 10 would pack to 10^21 > 2^63 keys, so the rows
    # themselves are compared.
    rows = np.random.default_rng(5).integers(0, 10, size=(200, 21))
    rows = np.concatenate([rows, rows[::3]])
    first, inverse = _kernels._row_ids(rows)
    assert np.array_equal(rows[first][inverse], rows)
    assert len(first) == len(np.unique(rows, axis=0)) == 200
    # Packed anyway, column 20's place 10^20 would wrap mod 2^64 to a key
    # that the digits of a second row spell in columns 0-18.
    wrapped = [int(d) for d in reversed(str(10**20 % 2**64))]
    rows = np.zeros((4, 21), dtype=np.int64)
    rows[1] = 9
    rows[2, 20] = 1
    rows[3, : len(wrapped)] = wrapped
    first, _ = _kernels._row_ids(rows)
    assert len(first) == 4


@pytest.mark.parametrize("size, low, high", [(1, 0, 5), (7, 3, 4), (40, -1, 0), (200, -6, 6),
                                             (500, -1000, 1000)])
def test_ids_equal_np_unique(size, low, high):
    # One stable argsort, a neighbour compare and a cumsum give np.unique's
    # first copies and inverse, for one key, all-equal keys and repeats.
    keys = np.random.default_rng(size).integers(low, high, size=size)
    first, inverse = _kernels._ids(keys)
    _, want_first, want_inverse = np.unique(keys, return_index=True, return_inverse=True)
    assert first.tolist() == want_first.tolist()
    assert inverse.tolist() == want_inverse.tolist()


def test_expand_numbers_outer_rows_past_int64_keys(monkeypatch):
    # 20 outer channels of radix 8 pack below 2^60, but times the 10 outputs
    # of 9 photons on the block's 2 channels the combined key would pass
    # 2^63, so the outer keys are numbered first.  Rows that meet outside
    # the block sum their products, as a dict keyed by whole rows does (to
    # rounding: numpy's complex product may round differently).
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 8, size=(30, 22))
    rows[:2, :20] = [[0] * 20, [7] * 20]
    rows[:, 20] = rng.integers(0, 10, size=30)
    rows[:, 21] = 9 - rows[:, 20]
    rows = np.concatenate([rows, rows[:6]])
    outs = np.array([(9 - a, a) for a in range(10)])
    table = rng.normal(size=(len(rows), 10)) + 1j * rng.normal(size=(len(rows), 10))
    amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    calls = []
    original = _kernels._ids
    monkeypatch.setattr(_stepper, "_ids", lambda keys: calls.append(1) or original(keys))
    (new, _, _, pairs), products, _ = _stepper._expand(rows, amps, [20, 21],
                                                       [(np.arange(len(rows)), outs, table)])
    summed = _stepper._sum(pairs, products, len(new))
    assert len(calls) == 2
    want: dict = {}
    for r, row in enumerate(rows.tolist()):
        for o, out in enumerate(outs.tolist()):
            key = tuple(row[:20] + out)
            want[key] = want.get(key, 0) + amps[r] * table[r, o]
    assert sorted(map(tuple, new.tolist())) == sorted(want)
    assert max(abs(want[tuple(row)] - a) for row, a in zip(new.tolist(), summed.tolist())) < 1e-12


def test_one_bincount_sums_as_one_per_part():
    # The pair index adds each row's real and imaginary parts in product
    # order, as one bincount per part did: bit-identical sums over rows of
    # many products of mixed magnitudes, with a row no product reaches.
    rng = np.random.default_rng(5)
    for count, size in ((1, 1), (7, 40), (300, 2000)):
        inverse = rng.integers(0, count, size)
        products = ((rng.normal(size=size) + 1j * rng.normal(size=size))
                    * 10.0 ** rng.integers(-20, 20, size))
        pairs = (2 * inverse[:, None] + np.arange(2)).ravel()
        want = np.empty(count + 1, dtype=complex)
        want.real = np.bincount(inverse, products.real, count + 1)
        want.imag = np.bincount(inverse, products.imag, count + 1)
        assert _stepper._sum(pairs, products, count + 1).tobytes() == want.tobytes()


def stepwise(blocks, state, condition):
    """The stepper alone, under the work limit, with no hand-off to the
    global sweep: the route tests reach it directly."""
    sector = _sectors._sector(state.channels, state.polarized, state.require_sector(), condition)
    blocks = list(blocks)
    program, mats = _stepper._program(_stepper._route(blocks, sector), blocks)
    amps = _stepper._stepwise(program, mats, state, sector, _kernels._MAX_WORK)
    return list(zip(sector.states(), amps.tolist()))


def test_stepwise_route_moves_photons_along_a_cycle():
    # A 3-cycle is not its own inverse, so moving photons the wrong way
    # round changes the outcomes.
    circuit = Circuit(4).add(0, Permutation((1, 2, 0))).add(0, BeamSplitter.h())
    condition = parse_postselect("[3]==0")
    for occ in ((1, 0, 0, 0), (0, 2, 1, 0)):
        state = StateVector.basis(FockState(occ))
        amps = stepwise(circuit.blocks(), state, condition)
        expected = state_amplitudes(circuit.compile(), state, condition)
        assert [s for s, _ in amps] == [s for s, _ in expected]
        assert max(abs(a - b) for (_, a), (_, b) in zip(amps, expected)) < 1e-12


def test_stepwise_route_refuses_unitary_defects():
    # The stepper checks each distinct block as the global route checks U.
    circuit = Circuit(2).add(0, BeamSplitter.h())
    blocks = [(chans, 2 * block) for chans, block in circuit.blocks()]
    state = StateVector.basis(FockState((1, 0)))
    with pytest.raises(NotUnitary):
        stepwise(blocks, state, parse_postselect("[0]==1"))


def wide_blocks_case():
    """8 photons through two 8-mode unitaries, with a clause on the idle
    ninth mode that closes before the first block: the stepper's second
    block would run 6435 sweeps, the global route one."""
    rng = np.random.default_rng(11)
    circuit = (Circuit(9).add(0, GenericUnitary(random_unitary(rng, 8)))
               .add(0, GenericUnitary(random_unitary(rng, 8))))
    return circuit, StateVector.basis(FockState((1,) * 8 + (0,))), parse_postselect("[8]==0")


def test_stepwise_route_hands_a_costlier_circuit_to_the_global_sweep(monkeypatch):
    # Its first block's 6435 local outputs and the exact count of their
    # kernel, 8 x 12869 SLOS table entries, pass 9 x (6435 - 2 + 2^8), the
    # least the global kernel can cost, so that kernel runs instead, on the
    # outcomes the stepper already has.  No kernel is kept yet, and the
    # block's own is never built.
    _sectors._STRUCTURES.clear()
    circuit, state, condition = wide_blocks_case()
    calls = {"_kernel": 0, "_evaluate": 0}
    for module, name in ((_sectors, "_kernel"), (_kernels, "_kernel"), (simulate, "_evaluate")):
        def counted(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    amps = Processor(circuit, state, condition).amplitudes()
    assert calls == {"_kernel": 1, "_evaluate": 1}
    expected = state_amplitudes(circuit.compile(), state, condition)
    assert [s for s, _ in amps] == [s for s, _ in expected]
    assert max(abs(a - b) for (_, a), (_, b) in zip(amps, expected)) < 1e-12


def test_stepwise_route_refuses_when_both_routes_pass_the_limit(monkeypatch):
    # The first block's 6435 local outputs pass the limit, and so does the
    # global route's least count, 9 x 6689: refused before any kernel.
    _sectors._STRUCTURES.clear()
    circuit, state, condition = wide_blocks_case()
    monkeypatch.setattr(_kernels, "_MAX_WORK", 6434)
    monkeypatch.setattr(_sectors, "_kernel", None)
    monkeypatch.setattr(_kernels, "_kernel", None)
    with pytest.raises(TooLarge, match="reaches 6435 vector elements at block 0 and the global "
                                       "route at least 60201, more than the 6434 allowed"):
        Processor(circuit, state, condition).amplitudes()


@pytest.mark.parametrize("scale", [1.0, 1e-20])
def test_prune_drops_rows_within_the_norm_budget(scale):
    # |amp|^2 of 9e-30 and 1.6e-29 sum to 2.5e-29, within 1e-28 of the total;
    # adding the next smallest, 1e-26, would pass it.  The budget scales
    # with the state, and the kept rows keep their order.
    amps = scale * np.array([1e-13, 1.0, 4e-15j, 0.5, 3e-15])
    rows = np.arange(10).reshape(5, 2)
    keep = _stepper._prune(amps)
    kept, kept_amps = rows[keep], amps[keep]
    assert kept.tolist() == [[0, 1], [2, 3], [6, 7]]
    assert kept_amps.tolist() == amps[[0, 1, 3]].tolist()


@pytest.mark.parametrize("limit, spent, step", [(60202, 109387, 0), (109386, 109387, 0),
                                               (109387, 41518612, 1), (115820, 41518612, 1)])
def test_stepwise_route_resumes_past_its_first_cap(monkeypatch, limit, spent, step):
    # Between the global kernel's least count (60201) and its exact one
    # (115821), the stepper passes its first cap in block 0, at 6435 local
    # outputs and their kernel's 102952.  Within the limit it raises its
    # cap to the limit and goes on from where it stopped, so block 1's
    # 6435 x 6435 local outputs pass it, in the same stepwise run.
    _sectors._STRUCTURES.clear()
    circuit, state, condition = wide_blocks_case()
    monkeypatch.setattr(_kernels, "_MAX_WORK", limit)
    calls = {"_stepwise": 0, "_local_parts": 0}
    for module, name in ((simulate, "_stepwise"), (_stepper, "_local_parts")):
        def counted(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    with pytest.raises(TooLarge, match=f"reaches {spent} vector elements at block {step} and the "
                                       f"global route at least 115821, more than the {limit} allowed"):
        Processor(circuit, state, condition).amplitudes()
    assert calls == {"_stepwise": 1, "_local_parts": step + 1}


def test_empty_placement_does_not_change_the_route():
    # A trailing no-op placement yields no block, so [2]==0 still closes
    # before the last block and the stepper runs.
    circuit = Circuit(3).add(0, BeamSplitter.h()).add(0, Permutation(()))
    assert [chans for chans, _ in circuit.blocks()] == [(0, 1)]
    state = StateVector.basis(FockState((1, 1, 0)))
    condition = parse_postselect("[2]==0")
    amps = Processor(circuit, state, condition).amplitudes()
    expected = state_amplitudes(circuit.compile(), state, condition)
    assert [s for s, _ in amps] == [s for s, _ in expected]
    assert max(abs(a - b) for (_, a), (_, b) in zip(amps, expected)) < 1e-12
