"""Fock-basis states and sparse state vectors for photonic mode registers.

A register is a fixed list of spatial modes, optionally polarization-resolved.
In a polarized register every spatial mode splits into two channels, H and V,
and channel index = 2*mode + (0 for H, 1 for V).  States are occupation-number
tuples over channels; the normalization convention is
|n> = (a^dag)^n / sqrt(n!) |0>.
"""

from __future__ import annotations

import math
import operator
from collections.abc import ItemsView, Iterable, Mapping, ValuesView
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidOccupation, InvalidSpec, MixedSector, RegisterMismatch

#: Amplitudes below this magnitude are dropped after state-vector operations.
PRUNE_TOL = 1e-12


class Polarization(Enum):
    H = 0
    V = 1


def channel(mode: int, pol: Polarization | None = None) -> int:
    """Channel index of `mode` (unpolarized) or of its H/V component."""
    if pol is None:
        return mode
    return 2 * mode + pol.value


@dataclass(frozen=True)
class FockState:
    """Occupation numbers over the channels of one register.

    The hash is computed once, on construction: outcomes are dict keys in
    every distribution, so each is hashed several times.
    """

    occupations: tuple[int, ...]
    polarized: bool = False

    def __post_init__(self):
        try:
            occ = tuple(map(operator.index, self.occupations))
        except TypeError:
            raise InvalidOccupation(
                f"occupations must be integers, got {self.occupations!r}"
            ) from None
        object.__setattr__(self, "occupations", occ)
        if occ and min(occ) < 0:
            raise InvalidOccupation(f"negative occupation {min(occ)} in {occ}")
        if self.polarized and len(occ) % 2 != 0:
            raise RegisterMismatch(
                f"polarized register needs an even channel count, got {len(occ)}"
            )
        object.__setattr__(self, "_hash", hash((occ, self.polarized)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle the fields only; loading rebuilds the hash.
        return FockState, (self.occupations, self.polarized)

    @classmethod
    def _unchecked(cls, occupations: tuple, polarized: bool) -> "FockState":
        """The state of a tuple of nonnegative Python ints that fits a
        register, as the outcome enumerator makes them, without the checks:
        a third of the cost of a checked construction."""
        state = object.__new__(cls)
        object.__setattr__(state, "occupations", occupations)
        object.__setattr__(state, "polarized", polarized)
        object.__setattr__(state, "_hash", hash((occupations, polarized)))
        return state

    @property
    def n(self) -> int:
        """Total photon number."""
        return sum(self.occupations)

    @property
    def channels(self) -> int:
        return len(self.occupations)

    @property
    def modes(self) -> int:
        """Number of spatial modes."""
        return len(self.occupations) // 2 if self.polarized else len(self.occupations)

    def mode_occupation(self, mode: int) -> int:
        """Photons in a spatial mode (H+V combined when polarized)."""
        if self.polarized:
            return self.occupations[2 * mode] + self.occupations[2 * mode + 1]
        return self.occupations[mode]

    def __str__(self) -> str:
        from .notation import format_state

        return format_state(self)


def make_state(occupations: Iterable[int], polarized: bool = False) -> FockState:
    """Build a Fock basis state from per-channel occupation numbers."""
    return FockState(tuple(occupations), polarized)


def canonical_items(pairs) -> list:
    """(state, value) pairs in canonical order: descending lexicographic on
    the states' occupations.

    This is the order in which sector bases are enumerated (first mode
    fills first), so |1,0> sorts before |0,1>.
    """
    return sorted(pairs, key=lambda kv: kv[0].occupations, reverse=True)


class Outcomes(Mapping):
    """A read-only mapping of outcomes to values: a sector record, the rows
    of it kept (None when every row is) and one float, int or complex array
    of their values.

    The record (`_sectors._Sector`) holds its FockStates in canonical order
    and a {FockState: row} index, each built once, so a view is made and
    read without hashing a FockState; a lookup hashes the state it looks
    up.  The view iterates in canonical order, each value a Python float,
    int or complex.  It equals a plain dict of the same items, either way
    round, shows as that dict, and pickles and copies as one.  Item
    assignment raises TypeError.
    """

    __slots__ = ("record", "rows", "array")

    def __init__(self, record, rows, array):
        self.record, self.rows, self.array = record, rows, array

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        states = self.record.states()
        if self.rows is None:
            return iter(states)
        return map(states.__getitem__, self.rows.tolist())

    def __getitem__(self, state):
        row = self.record.index().get(state)
        if row is not None and self.rows is not None:
            at = int(self.rows.searchsorted(row))
            row = at if at < len(self.rows) and self.rows[at] == row else None
        if row is None:
            raise KeyError(state)
        return self.array[row].item()

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def subset(self, keep, values) -> "Outcomes":
        """The outcomes where the bool array `keep` is set, with their
        entries of `values`, an array of one value per outcome here."""
        if keep.all():
            return Outcomes(self.record, self.rows, values)
        at = np.flatnonzero(keep)
        return Outcomes(self.record, at if self.rows is None else self.rows[at], values[at])

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self):
        return dict, (list(self.items()),)


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.array.tolist())


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping.array.tolist())


class StateVector:
    """Sparse complex superposition of Fock states on one register.

    Amplitudes below PRUNE_TOL in magnitude are dropped; a NaN or infinite
    one raises InvalidSpec, as no comparison with PRUNE_TOL can judge it.
    `channels` and `polarized` default to the states' register; an explicit
    value that does not fit them raises RegisterMismatch.  The terms of a
    vector that `simulate.evolve` makes are an `Outcomes` view."""

    __slots__ = ("_amp", "channels", "polarized")

    def __init__(
        self,
        amplitudes: Mapping[FockState, complex] | None = None,
        channels: int | None = None,
        polarized: bool | None = None,
    ):
        amp: dict[FockState, complex] = {}
        if amplitudes:
            first = next(iter(amplitudes))
            channels = first.channels if channels is None else channels
            polarized = first.polarized if polarized is None else polarized
            for state, a in amplitudes.items():
                if state.channels != channels or state.polarized != polarized:
                    raise RegisterMismatch(
                        f"state {state.occupations} does not fit register "
                        f"({channels} channels, polarized={polarized})"
                    )
                a = complex(a)
                if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                    raise InvalidSpec(f"amplitude {a} of state {state} is not finite")
                if abs(a) >= PRUNE_TOL:
                    amp[state] = a
        if channels is None:
            raise RegisterMismatch("empty state vector needs an explicit channel count")
        self._amp = amp
        self.channels = channels
        self.polarized = bool(polarized)

    @classmethod
    def basis(cls, state: FockState) -> "StateVector":
        return cls({state: 1.0 + 0j})

    def items(self) -> list[tuple[FockState, complex]]:
        """Terms in canonical (descending lexicographic) order."""
        return canonical_items(self._amp.items())

    def amplitude(self, state: FockState) -> complex:
        return self._amp.get(state, 0j)

    @property
    def sector(self) -> int | None:
        """Common photon number of all terms, or None if mixed/empty."""
        if isinstance(self._amp, Outcomes):  # one sector record's terms
            return self._amp.record.n if self._amp else None
        counts = {s.n for s in self._amp}
        if len(counts) == 1:
            return counts.pop()
        return None

    def require_sector(self) -> int:
        n = self.sector
        if n is None:
            raise MixedSector("state vector has no single photon-number sector")
        return n

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._amp.values()))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise InvalidOccupation("cannot normalize the zero vector")
        return self * (1.0 / nrm)

    def __len__(self) -> int:
        return len(self._amp)

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.channels != other.channels or self.polarized != other.polarized:
            raise RegisterMismatch("adding state vectors from different registers")
        out = dict(self._amp.items())
        for state, a in other._amp.items():
            out[state] = out.get(state, 0j) + a
        return StateVector(out, channels=self.channels, polarized=self.polarized)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "StateVector":
        return StateVector(
            {s: a * scalar for s, a in self._amp.items()},
            channels=self.channels,
            polarized=self.polarized,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateVector)
            and self.channels == other.channels
            and self.polarized == other.polarized
            and self._amp == other._amp
        )

    def __repr__(self) -> str:
        terms = " + ".join(f"({a:.6g})*{s}" for s, a in self.items())
        return f"StateVector({terms or '0'})"

