import math
import pickle

import numpy as np
import pytest

from photonsim.errors import (
    InvalidOccupation,
    InvalidSpec,
    MixedSector,
    RegisterMismatch,
)
from photonsim.fock import (
    FockState,
    Polarization,
    StateVector,
    canonical_items,
    channel,
    make_state,
)


def test_basic_state_properties():
    s = make_state((1, 0, 2, 0))
    assert s.n == 3
    assert s.channels == 4
    assert s.modes == 4
    assert s.mode_occupation(2) == 2


def test_polarized_channel_layout():
    # channel = 2*mode + (0 for H, 1 for V)
    assert channel(3) == 3
    assert channel(3, Polarization.H) == 6
    assert channel(3, Polarization.V) == 7
    s = make_state((1, 0, 0, 2), polarized=True)
    assert s.modes == 2
    assert s.mode_occupation(0) == 1
    assert s.mode_occupation(1) == 2


def test_negative_occupation_rejected():
    with pytest.raises(InvalidOccupation):
        make_state((1, -1))


def test_non_integer_occupations_rejected():
    # Floats are not truncated and strings are not parsed; Python and numpy
    # integers pass as they are.
    with pytest.raises(InvalidOccupation, match="must be integers"):
        FockState((1.7, 0))
    with pytest.raises(InvalidOccupation, match="must be integers"):
        FockState(("2", 0))
    state = FockState((np.int64(2), np.uint8(0)))
    assert state.occupations == (2, 0)
    assert all(type(v) is int for v in state.occupations)


@pytest.mark.parametrize("bad", [math.nan, complex(1, math.nan), math.inf, complex(0, -math.inf)])
def test_non_finite_amplitudes_rejected(bad):
    # |nan| >= PRUNE_TOL is False, so a NaN was dropped as if it were 0 and
    # the vector became 1*|0,1>; any non-finite amplitude is refused, named
    # with its state.
    with pytest.raises(InvalidSpec, match=r"of state \|1,0> is not finite"):
        StateVector({make_state((1, 0)): bad, make_state((0, 1)): 1.0}, channels=2)
    with pytest.raises(InvalidSpec):
        StateVector.basis(make_state((0, 1))) * bad


def test_equal_states_hash_equal_and_survive_pickling():
    # The hash is computed on construction; it follows equality, and a
    # polarized state never equals the unpolarized one with its occupations.
    a = FockState((1, 0, 2, 0))
    b = FockState([np.int64(1), 0, 2, np.uint8(0)])
    c = FockState((1, 0, 2, 0), polarized=True)
    assert a == b and hash(a) == hash(b) == hash(((1, 0, 2, 0), False))
    assert a != c and {a: 1, b: 2, c: 3} == {a: 2, c: 3}
    # The enumerator's unchecked states are the same states.
    for state in (a, c):
        fast = FockState._unchecked(state.occupations, state.polarized)
        assert fast == state and hash(fast) == hash(state) and repr(fast) == repr(state)
    for state in (a, c):
        copy = pickle.loads(pickle.dumps(state))
        assert copy == state and hash(copy) == hash(state) and repr(copy) == repr(state)
    assert repr(c) == "FockState(occupations=(1, 0, 2, 0), polarized=True)"


def test_polarized_needs_even_channels():
    with pytest.raises(RegisterMismatch):
        make_state((1, 0, 0), polarized=True)


def test_canonical_order_is_descending_lexicographic():
    states = [make_state(o) for o in [(0, 2), (1, 1), (2, 0), (0, 0)]]
    ordered = canonical_items((s, i) for i, s in enumerate(states))
    assert [s.occupations for s, _ in ordered] == [(2, 0), (1, 1), (0, 2), (0, 0)]


def test_statevector_basis_and_amplitude():
    s = make_state((1, 0))
    v = StateVector.basis(s)
    assert v.amplitude(s) == 1.0 + 0j
    assert v.amplitude(make_state((0, 1))) == 0j
    assert len(v) == 1


def test_statevector_algebra_and_pruning():
    a = StateVector.basis(make_state((1, 0)))
    b = StateVector.basis(make_state((0, 1)))
    v = (a + b) * (1 / math.sqrt(2))
    assert abs(v.norm() - 1.0) < 1e-12
    # subtracting a term to below the prune threshold removes it
    w = v - (1 / math.sqrt(2)) * b
    assert len(w) == 1
    assert abs(w.amplitude(make_state((1, 0))) - 1 / math.sqrt(2)) < 1e-12


def test_statevector_register_checks():
    a = StateVector.basis(make_state((1, 0)))
    b = StateVector.basis(make_state((1, 0, 0)))
    with pytest.raises(RegisterMismatch):
        a + b
    with pytest.raises(RegisterMismatch):
        StateVector()  # no states and no channel count


def test_statevector_explicit_polarization_must_fit_the_states():
    flat, pol = make_state((1, 0)), make_state((1, 0), polarized=True)
    for state, wrong in ((flat, True), (pol, False)):
        with pytest.raises(RegisterMismatch, match=f"polarized={wrong}"):
            StateVector({state: 1.0}, channels=2, polarized=wrong)
        # An omitted or agreeing value follows the states.
        assert StateVector({state: 1.0}).polarized is state.polarized
        assert StateVector({state: 1.0}, polarized=state.polarized).polarized is state.polarized
    assert StateVector(channels=2).polarized is False
    assert StateVector({}, channels=2, polarized=True).polarized is True


def test_sector_and_mixed_sector():
    a = StateVector.basis(make_state((1, 0)))
    assert a.sector == 1
    mixed = a + StateVector.basis(make_state((1, 1)))
    assert mixed.sector is None
    with pytest.raises(MixedSector):
        mixed.require_sector()


def test_items_in_canonical_order():
    v = (
        StateVector.basis(make_state((0, 2)))
        + StateVector.basis(make_state((2, 0)))
        + StateVector.basis(make_state((1, 1)))
    )
    assert [s.occupations for s, _ in v.items()] == [(2, 0), (1, 1), (0, 2)]


def test_normalize_zero_vector_rejected():
    empty = StateVector(channels=2)
    with pytest.raises(InvalidOccupation):
        empty.normalized()
