"""Optical component catalog.

Every component yields a small unitary.  Spatial components (beam splitters,
phase shifters, permutations, generic unitaries) act on spatial modes and are
polarization-blind: on a polarized register they act identically on the H and
V channel blocks.  Jones components (wave plates, polarization rotators) act
on the (H, V) pair of a single mode; the polarizing beam splitter couples the
four channels of two modes.

Beam-splitter conventions
-------------------------
``bs1``  r = sin(theta), full angle, with reflection/transmission phases:
         e^{i phi_0} [[ sin(t) e^{i phi_r},  cos(t) e^{-i phi_t}],
                      [ cos(t) e^{i phi_t}, -sin(t) e^{-i phi_r}]]
``bs2``  half angle, -sin(theta/2) in the top-left corner
``bs3``  half angle, cos(theta/2) top-left, -cos(theta/2) e^{-i phi_r}
         bottom-right
``h``    four-phase half-angle form with real sin terms and a negated
         bottom-right cos; ``h`` with theta = pi/2 and no phases is the
         Hadamard splitter
``rx``   four-phase form with +i sin(theta/2) off-diagonals
``ry``   real rotation form, -sin(theta/2) in the top-right corner

The four-phase forms take corner phases (phi_tl, phi_bl, phi_tr, phi_br);
the others take (phi_r, phi_t, phi_0).  All default to theta = pi/2 and
zero phases.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidSpec, NotUnitary

#: Tolerance for the unitarity check on user-supplied matrices.
UNITARY_TOL = 1e-9

_BS_CONVENTIONS = ("bs1", "bs2", "bs3", "h", "rx", "ry")


def require_unitary(matrix: np.ndarray):
    """Raise NotUnitary unless every entry of U^dag U - I is within
    UNITARY_TOL in magnitude (a NaN entry never is)."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf entries give NaN
        defect = np.abs(matrix.conj().T @ matrix - np.eye(len(matrix))).max(initial=0.0)
    if not defect <= UNITARY_TOL:
        raise NotUnitary(f"matrix deviates from unitarity beyond {UNITARY_TOL}")


def require_integer(value, what: str, error=InvalidSpec) -> int:
    """`value` as an int: Python and numpy integers pass, anything else (a
    bool too) raises `error`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


@functools.cache
def _float_fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.type == "float")


def _require_finite_parameters(component):
    """Raise InvalidSpec unless every float field is a finite real number;
    a value too large for a float, such as a 400-digit integer, is not."""
    for name in _float_fields(type(component)):
        value = getattr(component, name)
        try:
            finite = (
                type(value) is float  # skips the slower ABC check below
                or (not isinstance(value, bool) and isinstance(value, numbers.Real))
            ) and math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidSpec(
                f"{type(component).__name__}.{name} must be a finite real number, "
                f"got {value!r}"
            )


def theta_from_reflectivity(r: float) -> float:
    """Half-angle theta with cos^2(theta/2) = r, as used by the bs catalog."""
    if not 0.0 <= r <= 1.0:
        raise InvalidSpec(f"reflectivity {r} outside [0, 1]")
    return 2.0 * math.acos(math.sqrt(r))


@dataclass(frozen=True)
class BeamSplitter:
    """Two-mode beam splitter in one of the six supported conventions."""

    convention: str = "h"
    theta: float = math.pi / 2
    phi_r: float = 0.0
    phi_t: float = 0.0
    phi_0: float = 0.0
    phi_tl: float = 0.0
    phi_bl: float = 0.0
    phi_tr: float = 0.0
    phi_br: float = 0.0

    width = 2

    def __post_init__(self):
        _require_finite_parameters(self)
        if self.convention not in _BS_CONVENTIONS:
            raise InvalidSpec(
                f"unknown beam-splitter convention {self.convention!r}; "
                f"expected one of {_BS_CONVENTIONS}"
            )

    @classmethod
    def h(cls, theta=math.pi / 2, *, phi_tl=0.0, phi_bl=0.0, phi_tr=0.0, phi_br=0.0):
        return cls("h", theta, phi_tl=phi_tl, phi_bl=phi_bl, phi_tr=phi_tr, phi_br=phi_br)

    @classmethod
    def rx(cls, theta=math.pi / 2, *, phi_tl=0.0, phi_bl=0.0, phi_tr=0.0, phi_br=0.0):
        return cls("rx", theta, phi_tl=phi_tl, phi_bl=phi_bl, phi_tr=phi_tr, phi_br=phi_br)

    @classmethod
    def ry(cls, theta=math.pi / 2):
        return cls("ry", theta)

    @classmethod
    def bs1(cls, theta, phi_r=0.0, phi_t=0.0, phi_0=0.0):
        return cls("bs1", theta, phi_r=phi_r, phi_t=phi_t, phi_0=phi_0)

    @classmethod
    def bs2(cls, theta, phi_r=0.0, phi_t=0.0, phi_0=0.0):
        return cls("bs2", theta, phi_r=phi_r, phi_t=phi_t, phi_0=phi_0)

    @classmethod
    def bs3(cls, theta, phi_r=0.0, phi_t=0.0, phi_0=0.0):
        return cls("bs3", theta, phi_r=phi_r, phi_t=phi_t, phi_0=phi_0)

    def matrix(self) -> np.ndarray:
        t = self.theta
        if self.convention == "bs1":
            s, c = math.sin(t), math.cos(t)
            m = np.array(
                [
                    [s * _phase(self.phi_r), c * _phase(-self.phi_t)],
                    [c * _phase(self.phi_t), -s * _phase(-self.phi_r)],
                ]
            )
            return _phase(self.phi_0) * m
        s, c = math.sin(t / 2), math.cos(t / 2)
        if self.convention == "bs2":
            m = np.array(
                [
                    [-s * _phase(self.phi_r), c * _phase(-self.phi_t)],
                    [c * _phase(self.phi_t), s * _phase(-self.phi_r)],
                ]
            )
            return _phase(self.phi_0) * m
        if self.convention == "bs3":
            m = np.array(
                [
                    [c * _phase(self.phi_r), s * _phase(-self.phi_t)],
                    [s * _phase(self.phi_t), -c * _phase(-self.phi_r)],
                ]
            )
            return _phase(self.phi_0) * m
        tl, bl, tr, br = self.phi_tl, self.phi_bl, self.phi_tr, self.phi_br
        if self.convention == "h":
            return np.array(
                [
                    [_phase(tl + tr) * c, _phase(bl + tr) * s],
                    [_phase(br + tl) * s, -_phase(bl + br) * c],
                ]
            )
        if self.convention == "rx":
            return np.array(
                [
                    [_phase(tl + tr) * c, 1j * _phase(bl + tr) * s],
                    [1j * _phase(br + tl) * s, _phase(bl + br) * c],
                ]
            )
        # ry
        return np.array(
            [
                [_phase(tl + tr) * c, -_phase(bl + tr) * s],
                [_phase(br + tl) * s, _phase(bl + br) * c],
            ]
        )


@dataclass(frozen=True)
class PhaseShifter:
    """Single-mode phase shifter: multiplies each photon by e^{i phi}."""

    phi: float

    width = 1

    def __post_init__(self):
        _require_finite_parameters(self)

    def matrix(self) -> np.ndarray:
        return np.array([[_phase(self.phi)]])


@dataclass(frozen=True)
class Permutation:
    """Mode rerouting: a photon entering local mode i exits mode target[i]."""

    target: tuple[int, ...]

    def __post_init__(self):
        try:
            tgt = tuple(require_integer(i, "permutation target") for i in self.target)
        except TypeError:
            raise InvalidSpec(f"permutation target must be a sequence, got {self.target!r}") from None
        object.__setattr__(self, "target", tgt)
        if sorted(tgt) != list(range(len(tgt))):
            raise InvalidSpec(f"{tgt} is not a permutation of 0..{len(tgt) - 1}")

    @property
    def width(self) -> int:
        return len(self.target)

    def matrix(self) -> np.ndarray:
        k = len(self.target)
        m = np.zeros((k, k))
        for i, j in enumerate(self.target):
            m[j, i] = 1.0
        return m


@dataclass(frozen=True)
class WavePlate:
    """General wave plate with retardation delta and fast-axis angle xi.

    Jones matrix: cos(d) I + i sin(d) cos(2 xi) Z + i sin(d) sin(2 xi) X.
    """

    delta: float
    xi: float

    width = 1

    def __post_init__(self):
        _require_finite_parameters(self)

    def jones(self) -> np.ndarray:
        cd, sd = math.cos(self.delta), math.sin(self.delta)
        c2, s2 = math.cos(2 * self.xi), math.sin(2 * self.xi)
        return np.array(
            [
                [cd + 1j * sd * c2, 1j * sd * s2],
                [1j * sd * s2, cd - 1j * sd * c2],
            ]
        )


def half_wave_plate(xi: float) -> WavePlate:
    """Half-wave plate: a wave plate with retardation pi/2."""
    return WavePlate(math.pi / 2, xi)


@dataclass(frozen=True)
class PolarizationRotator:
    """Rotates the polarization plane by theta."""

    theta: float

    width = 1

    def __post_init__(self):
        _require_finite_parameters(self)

    def jones(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class PolarizingBeamSplitter:
    """Swaps the H channels of two modes and transmits the V channels."""

    width = 2

    def channel_matrix(self) -> np.ndarray:
        # basis order: (mode i, H), (i, V), (j, H), (j, V)
        return np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )


class GenericUnitary:
    """An explicit unitary on a contiguous block of spatial modes."""

    def __init__(self, matrix):
        try:
            m = np.asarray(matrix, dtype=complex)
        except (TypeError, ValueError):  # ragged rows or non-numeric entries
            raise InvalidSpec("unitary block must be a square matrix of numbers") from None
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidSpec(f"unitary block must be square, got shape {m.shape}")
        require_unitary(m)
        self._values = tuple(map(tuple, m))

    @property
    def width(self) -> int:
        return len(self._values)

    def matrix(self) -> np.ndarray:
        return np.array(self._values, dtype=complex)

    def __eq__(self, other) -> bool:
        return isinstance(other, GenericUnitary) and self._values == other._values

    def __repr__(self) -> str:
        return f"GenericUnitary({self.width}x{self.width})"


SpatialComponent = (BeamSplitter, PhaseShifter, Permutation, GenericUnitary)
JonesComponent = (WavePlate, PolarizationRotator)


def _phase(phi: float) -> complex:
    return complex(math.cos(phi), math.sin(phi))
