"""The sector structure that simulate keeps between calls: outcome rows,
their FockStates and trie plans, keyed by (channels, polarization, photon
number, predicate).  Its keys must not collide, its rows are read-only and
it holds at most simulate._STRUCTURE_BYTES.  That it changes no result is
a property in test_properties.py."""

import itertools
import sys
import threading

import numpy as np
import pytest

from photonsim import simulate
from photonsim.circuit import Circuit
from photonsim.components import BeamSplitter
from photonsim.fock import FockState, StateVector, make_state
from photonsim.postselect import Clause, PostSelect, Processor, admissible_outcomes, parse_postselect
from photonsim.qubits import GateSequence
from photonsim.simulate import distribution, sector_basis, state_amplitudes


def brute(channels, polarized, n, expr):
    sector = sorted(
        (occ for occ in itertools.product(range(n + 1), repeat=channels) if sum(occ) == n),
        reverse=True,
    )
    return [occ for occ in sector if expr is None or expr.evaluate(make_state(occ, polarized))]


def test_keys_do_not_collide():
    # An operator, the polarization and the photon number each change the key.
    simulate._STRUCTURES.clear()
    cases = [
        (3, False, 2, parse_postselect("[0]==1")),
        (3, False, 2, parse_postselect("[0]>=1")),
        (4, True, 2, parse_postselect("[0]==1")),
        (4, False, 2, parse_postselect("[0]==1")),
        (4, False, 3, parse_postselect("[0]==1")),
        (4, True, 2, None),
        (4, False, 2, None),
        (4, False, 3, None),
    ]
    for _ in range(2):  # cold, then on what the first pass kept
        for case in cases:
            assert list(admissible_outcomes(*case)) == brute(*case)
    assert list(sector_basis(3, 4)) == brute(4, False, 3, None)
    # Equal rows, but the states keep their register's polarization.
    for polarized in (True, False, True):
        amps = state_amplitudes(np.eye(4), StateVector.basis(FockState((1, 0, 1, 0), polarized)),
                                None)
        assert {s.polarized for s, _ in amps} == {polarized}


def test_kept_rows_are_read_only():
    simulate._STRUCTURES.clear()
    bell = GateSequence(2).gate("H", 0).cnot(0, 1, "heralded").build()
    state = StateVector.basis(FockState((1, 0, 1, 0) + bell.herald_input))
    Processor(bell.circuit, state, parse_postselect("[4]==1 & [5]==1")).amplitudes()
    records = list(simulate._STRUCTURES._records.values())
    assert records
    for record in records:
        assert not record.rows.flags.writeable
        if record.rows.size:
            with pytest.raises(ValueError):
                record.rows[0, 0] = 0


def test_a_sector_over_the_byte_bound_is_not_kept(monkeypatch):
    enumerations = []

    def counted(*args, original=simulate._outcomes):
        enumerations.append(args)
        return original(*args)

    monkeypatch.setattr(simulate, "_outcomes", counted)
    u = BeamSplitter.h().matrix()
    pair, single = (StateVector.basis(make_state(occ)) for occ in ((1, 1), (1, 0)))
    simulate._STRUCTURES.clear()
    first = distribution(u, pair)
    assert distribution(u, pair) == first and len(enumerations) == 1
    held = simulate._STRUCTURES.held
    assert held == sum(r.nbytes for r in simulate._STRUCTURES._records.values()) > 0
    # One byte short: computed and returned, but not kept.
    simulate._STRUCTURES.clear()
    monkeypatch.setattr(simulate, "_STRUCTURE_BYTES", held - 1)
    assert distribution(u, pair) == first and distribution(u, pair) == first
    assert len(enumerations) == 3 and simulate._STRUCTURES.held == 0
    # Room for that sector alone: the least recently used goes first.
    monkeypatch.setattr(simulate, "_STRUCTURE_BYTES", held)
    distribution(u, pair)
    distribution(u, single)
    assert list(simulate._STRUCTURES._records) == [(2, False, 1, None)]
    assert simulate._STRUCTURES.held <= held


def test_predicates_built_from_lists_are_keys():
    listed = PostSelect([Clause([0], "==", 1)])
    assert listed == parse_postselect("[0]==1") and hash(listed) == hash(parse_postselect("[0]==1"))
    circuit = Circuit(2).add(0, BeamSplitter.h())
    state = StateVector.basis(make_state((1, 1)))
    assert (Processor(circuit, state, listed).amplitudes()
            == Processor(circuit, state, parse_postselect("[0]==1")).amplitudes())


def test_threads_share_the_kept_structure(monkeypatch):
    # Four threads on three sectors, with room for about one record, so
    # records are built, evicted and grown concurrently.  Every result
    # matches the single-threaded one and the byte count stays exact.
    sectors = [(4, False, 3, None), (6, True, 2, None), (5, False, 2, parse_postselect("[0]>=1"))]
    u = {c: np.eye(c) for c in (4, 5, 6)}

    def call(channels, polarized, n, expr):
        occ = next(admissible_outcomes(channels, polarized, n, expr))
        state = StateVector.basis(FockState(occ, polarized))
        return state_amplitudes(u[channels], state, expr)

    simulate._STRUCTURES.clear()
    want = [call(*case) for case in sectors]
    monkeypatch.setattr(simulate, "_STRUCTURE_BYTES", 2 * simulate._STRUCTURES.held // 3)
    simulate._STRUCTURES.clear()
    results, errors = [], []

    def worker(seed):
        try:
            for i in range(40):
                k = (seed + i) % len(sectors)
                results.append(call(*sectors[k]) == want[k])
        except Exception as error:  # reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(results) == 160 and all(results)
    kept = simulate._STRUCTURES._records.values()
    assert simulate._STRUCTURES.held == sum(r.nbytes for r in kept) <= simulate._STRUCTURE_BYTES
    assert all(r.kept for r in kept)
