import math
import pickle

import numpy as np
import pytest

from photonsim import circuit as circuit_module
from photonsim.circuit import Circuit
from photonsim.components import (
    BeamSplitter,
    GenericUnitary,
    Permutation,
    PhaseShifter,
    PolarizingBeamSplitter,
    WavePlate,
    half_wave_plate,
)
from photonsim.errors import (
    InvalidSpec,
    OutOfRange,
    PolarizationMismatch,
    RegisterMismatch,
    TooLarge,
)


def test_add_returns_new_circuit():
    c0 = Circuit(2)
    c1 = c0.add(0, BeamSplitter.h())
    assert len(c0.placements) == 0
    assert len(c1.placements) == 1


def test_channels_counts_polarization():
    assert Circuit(3).channels == 3
    assert Circuit(3, polarized=True).channels == 6


def test_compile_applies_first_placement_first():
    # PS(pi) on mode 0 after an H splitter differs from the reverse order
    ps_then_bs = Circuit(2).add(0, PhaseShifter(math.pi)).add(0, BeamSplitter.h())
    bs_then_ps = Circuit(2).add(0, BeamSplitter.h()).add(0, PhaseShifter(math.pi))
    r = 1 / math.sqrt(2)
    assert np.allclose(ps_then_bs.compile(), [[-r, r], [-r, -r]], atol=1e-12)
    assert np.allclose(bs_then_ps.compile(), [[-r, -r], [r, -r]], atol=1e-12)


def test_anchor_embedding():
    c = Circuit(4).add(1, BeamSplitter.h())
    u = c.compile()
    assert np.allclose(u[np.ix_((1, 2), (1, 2))], BeamSplitter.h().matrix())
    assert u[0, 0] == 1.0 and u[3, 3] == 1.0


def test_tuple_anchor_names_distinct_modes():
    c = Circuit(4).add((1, 2), BeamSplitter.h())
    assert c.placements[0].modes == (1, 2)
    # Non-adjacent modes: the splitter couples modes 1 and 3 only.
    u = Circuit(4).add((1, 3), BeamSplitter.h()).compile()
    assert np.array_equal(u[np.ix_((1, 3), (1, 3))], BeamSplitter.h().matrix())
    assert np.array_equal(u[np.ix_((0, 2), (0, 2))], np.eye(2))
    assert np.count_nonzero(u) == 6
    with pytest.raises(InvalidSpec):
        Circuit(4).add((1, 1), BeamSplitter.h())
    with pytest.raises(InvalidSpec):
        Circuit(4).add((1,), BeamSplitter.h())
    with pytest.raises(OutOfRange):
        Circuit(4).add((1, 4), BeamSplitter.h())
    with pytest.raises(OutOfRange):
        Circuit(4).add((-1, 0), BeamSplitter.h())


def test_empty_permutation_is_a_no_op():
    for polarized in (False, True):
        c = Circuit(3, polarized).add(0, Permutation(()))
        assert c.placements[0].modes == ()
        assert np.array_equal(c.compile(), np.eye(c.channels))


def test_out_of_range_anchor():
    with pytest.raises(OutOfRange):
        Circuit(2).add(1, BeamSplitter.h())
    with pytest.raises(OutOfRange):
        Circuit(2).add(-1, PhaseShifter(0.1))


@pytest.mark.parametrize("anchor", [1.5, 1.0, True, "1", None, [0, 1], (0.0, 1), (0, "1")])
def test_anchors_and_modes_must_be_integers(anchor):
    with pytest.raises(InvalidSpec, match="must be an integer"):
        Circuit(3).add(anchor, BeamSplitter.h())
    with pytest.raises(InvalidSpec, match="must be an integer"):
        Circuit(3).add(anchor, PhaseShifter(0.3))  # int(1.5) would put it on mode 1


@pytest.mark.parametrize("modes, polarized", [(2.5, False), (2.0, False), (True, False), ("2", False),
                                              (2, "yes"), (2, 1), (2, None)])
def test_register_must_be_an_integer_and_a_bool(modes, polarized):
    with pytest.raises(InvalidSpec):
        Circuit(modes, polarized)


def test_numpy_integer_modes_and_anchors_are_accepted():
    i = np.int64
    c = Circuit(i(3)).add(i(1), PhaseShifter(0.3)).add((i(2), i(0)), BeamSplitter.h())
    assert c.modes == 3
    assert [p.modes for p in c.placements] == [(1,), (2, 0)]
    assert all(type(m) is int for p in c.placements for m in p.modes)


def test_compile_refuses_a_matrix_past_its_byte_limit(monkeypatch):
    # A billion modes used to end in numpy's "array is too big"; the limit
    # is read on each call, so a 3-mode circuit shows it at 16 x 3^2 bytes.
    with pytest.raises(TooLarge, match="^the 1000000000-channel unitary needs "
                                       "16000000000000000000 bytes, more than the 1073741824"):
        Circuit(10**9).compile()
    circuit = Circuit(3).add(0, BeamSplitter.h())
    monkeypatch.setattr(circuit_module, "_MATRIX_BYTES", 143)
    with pytest.raises(TooLarge, match="needs 144 bytes, more than the 143 allowed"):
        circuit.compile()
    monkeypatch.setattr(circuit_module, "_MATRIX_BYTES", 144)
    assert circuit.compile().shape == (3, 3)


def test_jones_needs_polarized_register():
    with pytest.raises(PolarizationMismatch):
        Circuit(2).add(0, WavePlate(0.1, 0.2))
    with pytest.raises(PolarizationMismatch):
        Circuit(2).add(0, PolarizingBeamSplitter())


def test_spatial_component_acts_on_both_polarization_blocks():
    c = Circuit(2, polarized=True).add(0, BeamSplitter.h())
    u = c.compile()
    h = BeamSplitter.h().matrix()
    # channels (0H, 0V, 1H, 1V): H block on (0, 2), V block on (1, 3)
    assert np.allclose(u[np.ix_((0, 2), (0, 2))], h, atol=1e-12)
    assert np.allclose(u[np.ix_((1, 3), (1, 3))], h, atol=1e-12)
    assert u[0, 1] == 0.0


def test_jones_component_embeds_in_one_mode():
    c = Circuit(2, polarized=True).add(1, half_wave_plate(0.0))
    u = c.compile()
    assert np.allclose(u[np.ix_((2, 3), (2, 3))], half_wave_plate(0.0).jones())
    assert u[0, 0] == 1.0 and u[1, 1] == 1.0


def test_permutation_spans_all_named_modes():
    c = Circuit(3).add(0, Permutation((2, 0, 1)))
    u = c.compile()
    v = u @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(v, [0.0, 0.0, 1.0])


def test_generic_unitary_block():
    block = np.array([[0, 1], [1, 0]], dtype=complex)
    u = Circuit(3).add(1, GenericUnitary(block)).compile()
    assert np.allclose(u[np.ix_((1, 2), (1, 2))], block)


def test_compose_concatenates():
    a = Circuit(2).add(0, BeamSplitter.h())
    b = Circuit(2).add(0, PhaseShifter(math.pi))
    both = a.compose(b)
    assert np.allclose(both.compile(), b.compile() @ a.compile(), atol=1e-12)


def test_compose_register_mismatch():
    with pytest.raises(RegisterMismatch):
        Circuit(2).compose(Circuit(3))
    with pytest.raises(RegisterMismatch):
        Circuit(2).compose(Circuit(2, polarized=True))


def test_compiled_circuit_is_unitary():
    c = (
        Circuit(4)
        .add(0, BeamSplitter.h())
        .add(2, BeamSplitter.rx(0.7))
        .add(1, BeamSplitter.ry(1.3))
        .add(3, PhaseShifter(0.4))
        .add(0, Permutation((1, 2, 3, 0)))
    )
    u = c.compile()
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_zero_mode_circuit_rejected():
    with pytest.raises(InvalidSpec):
        Circuit(0)


def test_blocks_are_built_once_and_kept_read_only():
    circuit = (
        Circuit(3, polarized=True)
        .add(0, BeamSplitter.h())
        .add(2, half_wave_plate(0.3))
        .add((2, 1), PolarizingBeamSplitter())
    )
    pickled = pickle.dumps(circuit)
    first = circuit.blocks()
    assert circuit.blocks() is first
    assert [chans for chans, _ in first] == [(0, 2), (1, 3), (4, 5), (4, 5, 2, 3)]
    for _, block in first:
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0
    # Keeping the blocks changes no field, repr, equality or pickle.
    fresh = Circuit(3, True, circuit.placements)
    assert circuit == fresh and repr(circuit) == repr(fresh)
    assert pickle.dumps(circuit) == pickled == pickle.dumps(fresh)
    loaded = pickle.loads(pickled).blocks()
    assert [c for c, _ in loaded] == [c for c, _ in first]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(loaded, first))
    # compile returns a new, writable matrix each time.
    u = circuit.compile()
    want = u.copy()
    u[:] = 0
    assert np.array_equal(circuit.compile(), want)
    assert np.array_equal(fresh.compile(), want)
