"""Outcomes indexed by their sector record.

`Distribution.entries`, `SampleCount.counts` and the terms of an evolved
`StateVector` are read-only mappings over the record's states and one
array.  These tests pin what a caller sees of them (the semantics of a
plain dict, in canonical order), that no evaluation or sampling call hashes
a FockState, and that every number is bit-identical to the dict-built
results they replace (digests recorded from that implementation).
"""

import cmath
import copy
import hashlib
import math
import pickle
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from photonsim import _sampling, fock
from photonsim.circuit import Circuit
from photonsim.cli import load_circuit_file
from photonsim.components import BeamSplitter
from photonsim.errors import InvalidSpec
from photonsim.fock import FockState, StateVector, make_state
from photonsim.grover import TARGETS, VARIANTS, dual_rail_grover_3q, run_grover
from photonsim.postselect import Processor, parse_postselect
from photonsim.qubits import GateSequence
from photonsim.simulate import Distribution, SampleCount, distribution, evolve, sample, state_amplitudes

DATA = Path(__file__).parent / "data"


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_case(seed: int):
    """A seeded Haar unitary and a normalized two-term input, a collision-free
    and a bunched term: every fourth on 10 modes with 5 photons (2,002
    outcomes), the rest on 4-8 modes with 2-4 photons."""
    rng = np.random.default_rng([32, seed])
    modes, n = (10, 5) if seed % 4 == 0 else (4 + seed % 5, 2 + seed % 3)
    free = np.zeros(modes, dtype=int)
    free[rng.choice(modes, n, replace=False)] = 1
    bunched = np.zeros(modes, dtype=int)
    bunched[rng.integers(modes)] = n - 1
    bunched[rng.integers(modes)] += 1
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    c /= np.linalg.norm(c)
    terms = {make_state(free.tolist()): complex(c[0]), make_state(bunched.tolist()): complex(c[1])}
    if len(terms) < 2 or abs(sum(abs(a) ** 2 for a in terms.values()) - 1) > 1e-12:
        terms = {make_state(free.tolist()): 1.0}
    return random_unitary(rng, modes), StateVector(terms)


def digest(parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()


def hexes(pairs):
    """(occupations, value bits) of (state, float, int or complex) pairs."""
    out = []
    for s, v in pairs:
        key = s.occupations if isinstance(s, FockState) else s
        if isinstance(v, complex):
            out.append((key, v.real.hex(), v.imag.hex()))
        else:
            out.append((key, v.hex() if isinstance(v, float) else v))
    return out


def haar_digest() -> str:
    """200 seeded Haar distributions: entries in order, total, and a seeded
    1,000-shot sample of each, in hex."""
    parts = []
    for seed in range(200):
        u, psi = haar_case(seed)
        dist = distribution(u, psi)
        parts.append((hexes(dist.entries.items()), dist.total().hex(),
                      hexes(sample(dist, 1000, seed).counts.items())))
    return digest(parts)


def search_digest() -> str:
    """`run_grover` for the 8 (target, variant) keys at 1,000 shots and
    `dual_rail_grover_3q(1000, s)` for s in 0..9, in hex."""
    parts = []
    for target in TARGETS:
        for variant in VARIANTS:
            result = run_grover(target, variant, 1000, 7)
            parts.append((hexes(sorted(result.probabilities.items())), sorted(result.counts.items())))
    for seed in range(10):
        r = dual_rail_grover_3q(1000, seed)
        parts.append((hexes(r.probabilities.items()), hexes(r.amplitudes.items()),
                      hexes(r.data_probabilities.items()), r.success_probability.hex(),
                      r.leak_probability.hex(), sorted(r.counts.items())))
    return digest(parts)


def heralded_runs():
    """`Processor.run` cases: the two heralded CNOTs with and without their
    heralds, an 18-CNOT chain and a stepwise splitter network."""
    loaded = load_circuit_file(str(DATA / "two_heralded_cnots.json"))
    source = StateVector.basis(FockState((1, 0, 1, 0) + loaded.herald_input))
    heralds = parse_postselect("[4]==1 & [5]==1 & [6]==1 & [7]==1")
    yield Processor(loaded.circuit, source, heralds)
    yield Processor(loaded.circuit, source)
    seq = GateSequence(2)
    for _ in range(18):
        seq.cnot(0, 1)
    chain = seq.build()
    yield Processor(chain.circuit, StateVector.basis(chain.input_state((1, 0))), chain.condition)
    circuit = Circuit(4).add(0, BeamSplitter.h()).add(1, BeamSplitter.rx(0.9)).add(2, BeamSplitter.h())
    yield Processor(circuit, StateVector.basis(make_state((1, 1, 1, 0))), parse_postselect("[3]<=1"))


def run_digest() -> str:
    """`Processor.run` on `heralded_runs`: entries, success and a seeded
    sample, in hex."""
    parts = []
    for seed, processor in enumerate(heralded_runs()):
        dist, success = processor.run()
        parts.append((hexes(dist.entries.items()), success.hex(),
                      hexes(sample(dist, 10_000, seed).counts.items())))
    return digest(parts)


# Recorded from the dict-built implementation, by these same functions.
HAAR_DIGEST = "8a576edf94290bde3702b0fbfd0a1955ec1ef227"
SEARCH_DIGEST = "7b29a48c92c36c87507a4a76401c45df3711efb8"
RUN_DIGEST = "3ea56f5ab3a937a67ed7ebd159667c565886d255"


def test_probabilities_counts_and_success_are_bit_identical_to_the_dict_built_results():
    assert haar_digest() == HAAR_DIGEST
    assert search_digest() == SEARCH_DIGEST
    assert run_digest() == RUN_DIGEST


def pruned_case():
    """An input whose evolution cuts one outcome at PRUNE_TOL: one photon
    in mode 0 or 2 of two rotations, the second with a diagonal amplitude
    below the cut, so the view keeps some rows of its record."""
    blocks = []
    for a in (0.6 * cmath.exp(0.7j), 1e-14 * cmath.exp(0.7j)):
        s = math.sqrt(1 - abs(a) ** 2)
        blocks.append(np.array([[a, -s], [s, a.conjugate()]]))
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2], u[2:, 2:] = blocks
    psi = StateVector({make_state((1, 0, 0, 0)): 1.0, make_state((0, 0, 1, 0)): 1.0}).normalized()
    return u, psi


@pytest.fixture(scope="module")
def views():
    """name -> (view, the plain dict it stands for, its value type)."""
    return {name: rest for name, *rest in _views()}


def _views():
    u, psi = haar_case(8)
    dist = distribution(u, psi)
    listed = dict(state_amplitudes(u, psi, None))
    yield "entries", dist.entries, {s: abs(a) ** 2 for s, a in listed.items()}, float
    yield "terms", evolve(u, psi)._amp, listed, complex
    counts = sample(dist, 5000, 3)
    yield "counts", counts.counts, dict(counts.items()), int
    u, psi = pruned_case()
    listed = {s: a for s, a in state_amplitudes(u, psi, None) if abs(a) >= fock.PRUNE_TOL}
    assert len(listed) == 3
    yield "pruned terms", evolve(u, psi)._amp, listed, complex
    processor = next(heralded_runs())
    kept = {s: abs(a) ** 2 for s, a in processor.amplitudes() if abs(a) >= fock.PRUNE_TOL}
    success = sum(kept.values())
    yield "run entries", processor.run()[0].entries, {s: p / success for s, p in kept.items()}, float
    hand = Distribution({make_state((0, 1)): 1, make_state((1, 0)): 3}, 1)
    want = _sampling.inverse_cdf_counts([3, 1], 400, 2)
    yield "hand-built counts", sample(hand, 400, 2).counts, dict(
        zip((make_state((1, 0)), make_state((0, 1))), want)), int


@pytest.mark.parametrize("name", ["entries", "terms", "counts", "pruned terms", "run entries",
                                  "hand-built counts"])
def test_views_read_as_their_dict(views, name):
    view, want, kind = views[name]
    assert isinstance(view, Mapping) and not isinstance(view, dict)
    # Canonical order, as the dict built in that order.
    assert list(want) == [s for s, _ in fock.canonical_items(want.items())]
    assert list(view) == list(want) and list(view.keys()) == list(want)
    assert [(s, v.hex() if kind is float else v) for s, v in view.items()] == [
        (s, v.hex() if kind is float else v) for s, v in want.items()]
    assert all(type(v) is kind for v in view.values()) and len(view) == len(want)
    first = next(iter(want))
    outside = FockState((9,) + first.occupations[1:], first.polarized)
    assert first in view and outside not in view and "text" not in view
    assert view[first] == want[first] and view.get(first) == want[first]
    assert view.get(outside) is None and view.get(outside, 0) == 0
    with pytest.raises(KeyError):
        view[outside]
    # Equal to the dict either way round, and not to one that differs.
    assert view == want and want == view and not view != want
    assert view != {**want, first: 2} and {**want, first: 2} != view
    assert view != dict(list(want.items())[1:]) and dict(list(want.items())[1:]) != view
    assert repr(view) == repr(want)
    for twin in (pickle.loads(pickle.dumps(view)), copy.copy(view), copy.deepcopy(view)):
        assert type(twin) is dict and twin == want and list(twin.items()) == list(want.items())
    with pytest.raises(TypeError):
        view[first] = 0.0
    with pytest.raises(TypeError):
        del view[first]


def test_dataclass_reprs_and_pickles_show_the_dicts():
    u, psi = haar_case(4)
    dist = distribution(u, psi)
    counts = sample(dist, 1000, 5)
    assert repr(dist) == repr(Distribution(dict(dist.entries.items()), dist.sector))
    assert repr(counts) == repr(SampleCount(dict(counts.counts.items()), 1000, 5))
    for result, field in ((dist, "entries"), (counts, "counts")):
        twin = pickle.loads(pickle.dumps(result))
        assert twin == result and result == twin and type(getattr(twin, field)) is dict
        assert repr(twin) == repr(result)
    again = pickle.loads(pickle.dumps(dist))
    assert again.total() == dist.total() and again.items() == dist.items()
    assert sample(again, 1000, 5) == counts
    with pytest.raises(TypeError):
        dist.entries[next(iter(dist.entries))] = 1.0


def test_warm_evaluations_and_samples_hash_no_fock_state(monkeypatch):
    u, psi = haar_case(0)
    processor = next(heralded_runs())
    # Cold: the records build their states and row indexes, once.
    dict(distribution(u, psi).entries.items())
    dict(processor.run()[0].entries.items())
    calls = []
    original = FockState.__hash__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FockState, "__hash__", counted)
    dist = distribution(u, psi)
    counts = sample(dist, 100_000, 1)
    vector = evolve(u, psi)
    assert vector.sector == 5 and len(vector) == 2002
    run, success = processor.run()
    sample(run, 1000, 1)
    assert calls == []
    # A lookup hashes the state it looks up, once.
    first = next(iter(counts.counts))
    assert counts.counts[first] > 0 and len(calls) == 1
    assert dist.total() == sum(p for _, p in dist.items())


@pytest.mark.parametrize("entries, sector, message", [
    ({make_state((1, 0)): "0.5", make_state((0, 1)): "0.5"}, 1, "probabilities must be integers or floats"),
    ({make_state((1, 0)): 0.5j, make_state((0, 1)): 0.5}, 1, "probabilities must be integers or floats"),
    ({make_state((1, 0)): None}, 1, "probabilities must be integers or floats"),
    ({make_state((1, 0)): [0.5, 0.5]}, 1, "probabilities must be integers or floats"),
    ({(1, 0): 0.5, (0, 1): 0.5}, 1, "outcomes must be FockStates, got "),
    ([(make_state((1, 0)), 0.5)], 1, "entries must be a mapping, got list"),
    ({make_state((1, 0)): 1, make_state((2, 0)): 1}, 1, r"\|2,0> lies off the 1-photon sector"),
    ({make_state((1, 0)): 1}, None, r"\|1,0> lies off the None-photon sector"),
    ({make_state((1, 0)): 0.5, make_state((1, 0, 0)): 0.5}, 1,
     r"\|1,0,0> lies off the 1-photon sector of the register of \|1,0>"),
    ({make_state((1, 0)): 0.5, FockState((0, 1), True): 0.5}, 1, "lies off the 1-photon sector"),
], ids=["strings", "complex", "none", "nested", "tuple-keys", "list", "off-sector", "no-sector",
        "two-registers", "polarized-and-not"])
def test_sample_checks_hand_built_distributions(entries, sector, message):
    with pytest.raises(InvalidSpec, match=message):
        sample(Distribution(entries, sector), 10, 1)


def test_hand_built_distributions_sample_in_canonical_order():
    want = sample(Distribution({make_state((2, 0)): 0.25, make_state((1, 1)): 0.5,
                                make_state((0, 2)): 0.25}, 2), 1000, 4)
    for entries in ({make_state((0, 2)): 1, make_state((2, 0)): 1, make_state((1, 1)): 2},
                    {make_state((1, 1)): np.float64(0.5), make_state((0, 2)): 0.25,
                     make_state((2, 0)): np.float32(0.25)}):
        got = sample(Distribution(entries, 2), 1000, 4)
        assert got == want and list(got.counts) == list(want.counts)
    assert sample(Distribution({}, 2), 5, 1).counts == {}
