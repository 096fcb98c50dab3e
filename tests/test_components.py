"""Component matrices: spot values, convention identities, unitarity."""

import math

import numpy as np
import pytest

from photonsim.components import (
    BeamSplitter,
    GenericUnitary,
    Permutation,
    PhaseShifter,
    PolarizationRotator,
    PolarizingBeamSplitter,
    WavePlate,
    half_wave_plate,
    theta_from_reflectivity,
)
from photonsim.errors import InvalidSpec, NotUnitary

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def close(a, b, tol=1e-12):
    return np.allclose(a, b, atol=tol, rtol=0)


def test_bs1_quarter_angle_is_hadamard():
    assert close(BeamSplitter.bs1(math.pi / 4).matrix(), H)


def test_bs1_phased_form():
    m = BeamSplitter.bs1(math.pi / 4, phi_r=-math.pi / 2, phi_t=0.0, phi_0=math.pi / 2)
    expect = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    assert close(m.matrix(), expect)


def test_bs2_half_angle_corner():
    m = BeamSplitter.bs2(math.pi / 2).matrix()
    r = 1 / math.sqrt(2)
    assert close(m, np.array([[-r, r], [r, r]]))


def test_bs3_is_hadamard_at_pi_half():
    assert close(BeamSplitter.bs3(math.pi / 2).matrix(), H)


def test_h_default_is_hadamard():
    assert close(BeamSplitter.h().matrix(), H)


def test_h_corner_phases():
    t = 1.1
    m = BeamSplitter.h(t, phi_tl=0.3, phi_bl=0.5, phi_tr=0.7, phi_br=0.9).matrix()
    c, s = math.cos(t / 2), math.sin(t / 2)
    expect = np.array(
        [
            [np.exp(1j * (0.3 + 0.7)) * c, np.exp(1j * (0.5 + 0.7)) * s],
            [np.exp(1j * (0.9 + 0.3)) * s, -np.exp(1j * (0.5 + 0.9)) * c],
        ]
    )
    assert close(m, expect)


def test_rx_off_diagonals_are_imaginary():
    t = 0.8
    m = BeamSplitter.rx(t).matrix()
    c, s = math.cos(t / 2), math.sin(t / 2)
    assert close(m, np.array([[c, 1j * s], [1j * s, c]]))


def test_ry_is_real_rotation():
    t = 0.8
    m = BeamSplitter.ry(t).matrix()
    c, s = math.cos(t / 2), math.sin(t / 2)
    assert close(m, np.array([[c, -s], [s, c]]))


def test_unknown_convention_rejected():
    with pytest.raises(InvalidSpec):
        BeamSplitter("bs9")


def test_phase_shifter():
    m = PhaseShifter(math.pi / 3).matrix()
    assert close(m, [[np.exp(1j * math.pi / 3)]])


def test_permutation_matrix_routes_input_to_target():
    p = Permutation((2, 0, 1))
    m = p.matrix()
    # photon entering local mode 0 exits mode 2
    assert close(m @ np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    assert p.width == 3


def test_permutation_validation():
    with pytest.raises(InvalidSpec):
        Permutation((0, 0, 1))


@pytest.mark.parametrize("target", [(0.0, 1.7), (1.0, 0.0), ("1", "0"), (True, False), 5, None])
def test_permutation_targets_must_be_integers(target):
    with pytest.raises(InvalidSpec, match="permutation target must be"):
        Permutation(target)


def test_permutation_accepts_numpy_integers():
    p = Permutation(np.array([1, 0]))
    assert p.target == (1, 0) and all(type(i) is int for i in p.target)


def test_wave_plate_pauli_decomposition():
    rng = np.random.default_rng(11)
    for _ in range(50):
        delta, xi = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
        expect = (
            math.cos(delta) * np.eye(2)
            + 1j * math.sin(delta) * math.cos(2 * xi) * Z
            + 1j * math.sin(delta) * math.sin(2 * xi) * X
        )
        assert close(WavePlate(delta, xi).jones(), expect)


def test_half_wave_plate_special_angles():
    assert close(half_wave_plate(0.0).jones(), 1j * Z)
    assert close(half_wave_plate(math.pi / 8).jones(), 1j * H)
    assert close(half_wave_plate(math.pi / 4).jones(), 1j * X)


def test_polarization_rotator_quarter_turn_is_iy():
    assert close(PolarizationRotator(math.pi / 2).jones(), 1j * Y)
    # and the general form
    t = 0.3
    assert close(
        PolarizationRotator(t).jones(),
        [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]],
    )


def test_pbs_swaps_h_keeps_v():
    m = PolarizingBeamSplitter().channel_matrix()
    # basis (iH, iV, jH, jV): H channels swap, V channels transmit
    assert close(m @ np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0]))
    assert close(m @ np.array([0, 1.0, 0, 0]), np.array([0, 1.0, 0, 0]))
    assert close(m @ np.array([0, 0, 1.0, 0]), np.array([1.0, 0, 0, 0]))


def test_theta_from_reflectivity():
    t = theta_from_reflectivity(1.0 / 3.0)
    assert abs(math.cos(t / 2) ** 2 - 1.0 / 3.0) < 1e-12
    assert abs(t - 1.9106332362490186) < 1e-12
    with pytest.raises(InvalidSpec):
        theta_from_reflectivity(1.5)


def test_generic_unitary_checks():
    GenericUnitary(np.eye(3))  # fine
    with pytest.raises(NotUnitary):
        GenericUnitary([[1.0, 0.0], [0.0, 1.0 + 1e-6]])
    with pytest.raises(InvalidSpec):
        GenericUnitary(np.ones((2, 3)))
    with pytest.raises(InvalidSpec):  # ragged rows
        GenericUnitary([[1.0], [0.0, 1.0]])


def _random_component(rng):
    kind = rng.integers(0, 7)
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=4)
    if kind == 0:
        conv = ("bs1", "bs2", "bs3")[rng.integers(0, 3)]
        maker = getattr(BeamSplitter, conv)
        return maker(angles[0], angles[1], angles[2], angles[3]).matrix()
    if kind == 1:
        maker = BeamSplitter.h if rng.integers(0, 2) else BeamSplitter.rx
        return maker(
            angles[0], phi_tl=angles[1], phi_bl=angles[2], phi_tr=angles[3]
        ).matrix()
    if kind == 2:
        return BeamSplitter.ry(angles[0]).matrix()
    if kind == 3:
        return PhaseShifter(angles[0]).matrix()
    if kind == 4:
        return WavePlate(angles[0], angles[1]).jones()
    if kind == 5:
        return PolarizationRotator(angles[0]).jones()
    return PolarizingBeamSplitter().channel_matrix()


def test_random_components_are_unitary():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        m = _random_component(rng)
        assert close(m.conj().T @ m, np.eye(m.shape[0]), tol=1e-12)


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, "0.5", None, True, 1j,
     pytest.param(10**400, id="huge-int"), pytest.param(-(10**400), id="huge-negative-int")],
)
@pytest.mark.parametrize(
    "make",
    [
        lambda v: BeamSplitter.h(v),
        lambda v: BeamSplitter.h(phi_br=v),
        lambda v: BeamSplitter.bs1(0.3, phi_0=v),
        lambda v: PhaseShifter(v),
        lambda v: WavePlate(v, 0.1),
        lambda v: WavePlate(0.1, v),
        lambda v: PolarizationRotator(v),
    ],
)
def test_parameters_must_be_finite_reals(make, bad):
    with pytest.raises(InvalidSpec, match="must be a finite real number"):
        make(bad)


def test_numpy_and_integer_parameters_are_accepted():
    assert close(PhaseShifter(np.float64(math.pi)).matrix(), PhaseShifter(math.pi).matrix())
    assert close(BeamSplitter.ry(np.int64(1)).matrix(), BeamSplitter.ry(1.0).matrix())
