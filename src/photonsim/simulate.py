"""Strong simulation and seeded sampling: the public evaluation API.

`batch_amplitudes` gives the amplitudes of a list of targets,
`state_amplitudes` those of a sector's outcomes under a predicate, and
`circuit_amplitudes` the same for a circuit's blocks, on the global or the
stepwise route; `evolve`, `distribution` and `sample` build on them.

The machinery lives in four private modules, one concern each: `_kernels`
(the SLOS and Glynn kernels and the rule that picks one), `_sectors` (the
outcome enumerator and the records kept between calls), `_stepper` (the
stepwise route) and `_sampling` (the seeded sampler).  The scalar
references are in `reference`.
"""

from __future__ import annotations

import reprlib
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import _evaluate, _require_work, _whole_sector_work
from ._sampling import inverse_cdf_counts, require_seed, require_shots
from ._sectors import _Sector, _sector
from ._stepper import _PastLimit, _as_blocks, _program, _route, _stepwise
from .circuit import compile_blocks
from .components import UNITARY_TOL, require_integer, require_unitary
from .errors import InvalidSpec, RegisterMismatch, TooLarge
from .fock import PRUNE_TOL, FockState, Outcomes, StateVector, canonical_items
from .reference import amplitude, permanent  # noqa: F401  (bench/tracing.py's LAYERS names them here)


def batch_amplitudes(matrix, source: FockState, targets) -> list[complex]:
    """Amplitudes <t| U |source> for a list of targets, in the order given;
    0j for targets outside the source's photon-number sector.

    A wrapper over the one kernel entry, `_evaluate`: the targets become
    one integer array and `_kernel` picks SLOS's tables or Glynn's trie
    plan for them from their exact counts, built for this call alone.
    Raises RegisterMismatch when U is not square or a register does not
    match its side, and TooLarge, naming the chosen kernel's count, when it
    exceeds _MAX_WORK.
    """
    targets = list(targets)
    u = _channel_unitary(matrix, source.channels, *(t.channels for t in targets))
    outcomes = np.array([t.occupations for t in targets], dtype=np.int64).reshape(-1, len(u))
    amps = np.zeros(len(targets), dtype=complex)
    live = outcomes.sum(axis=1) == source.n
    amps[live] = _evaluate(u, [(source, 1.0)], outcomes[live])
    return amps.tolist()


def _channel_unitary(matrix, *channels: int) -> np.ndarray:
    """U as a complex array; RegisterMismatch unless it is square and each of
    `channels` matches its side."""
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise RegisterMismatch(f"channel unitary must be square, got shape {u.shape}")
    if any(c != len(u) for c in channels):
        raise RegisterMismatch(f"register does not match the {len(u)}-channel unitary")
    return u


def sector_basis(n: int, channels: int):
    """All occupation tuples of n photons over `channels`, canonical order.

    Canonical order is descending lexicographic (first channel fills first):
    (n,0,...), (n-1,1,0,...), ..., (0,...,n).  InvalidSpec comes on the
    first `next()` when a count is not a nonnegative integer.
    """
    n, channels = _count(n, "photon number"), _count(channels, "channel count")
    yield from map(tuple, _sector(channels, False, n, None).rows.tolist())


def _count(value, what: str) -> int:
    """`value` as an int; InvalidSpec unless it is a nonnegative integer."""
    count = require_integer(value, what)
    if count < 0:
        raise InvalidSpec(f"{what} must be >= 0, got {count}")
    return count


@dataclass(frozen=True)
class Distribution:
    """Probabilities over same-sector Fock states.  The program's builders
    give `entries` as a read-only `Outcomes` view in canonical order; a
    mapping built by hand is checked and sorted where `sample` reads it."""

    entries: Mapping[FockState, float]
    sector: int

    def items(self) -> list[tuple[FockState, float]]:
        """The entries in canonical order."""
        return canonical_items(self.entries.items())

    def total(self) -> float:
        return sum(self.entries.values())

    def probability(self, state: FockState) -> float:
        return self.entries.get(state, 0.0)


def state_amplitudes(matrix, state: StateVector, predicate) -> list[tuple[FockState, complex]]:
    """The outcomes of the state's sector that satisfy `predicate` (all of
    them when it is None), in canonical order, each with <t| U |state>.

    The global route: the outcome rows of `_outcomes` go through one kernel
    for every input term, SLOS's tables or Glynn's trie plan, whichever
    `_kernel` finds cheaper for them.  The rows, their kernel and their
    FockStates depend on (channels, polarization, n, predicate) alone, so
    they are built on the first call for that key and kept for later ones
    (see `_Structures`); U and the amplitudes are not kept.  TooLarge comes
    when the kernel's count exceeds _MAX_WORK, on every call; without a
    predicate, before any enumeration (see `_swept`).  Raises NotUnitary
    when U is not unitary within UNITARY_TOL.
    """
    n = state.require_sector()
    sector, amps = _swept(_channel_unitary(matrix, state.channels), state, n, predicate)
    return list(zip(sector.states(), amps.tolist()))


def _swept(u: np.ndarray, state: StateVector, n: int, predicate,
           sector: _Sector | None = None) -> tuple[_Sector, np.ndarray]:
    """`state_amplitudes` on a square U, as the sector record and the
    amplitude array of its rows; `sector`, when given, is the record of the
    state's register and photon number under `predicate`.  Without a
    predicate, the whole sector's kernel and its exact count come from
    closed forms (see `_whole_sector_work`), so TooLarge comes before the
    sector is enumerated."""
    require_unitary(u)
    if predicate is None and n:
        _require_work(*_whole_sector_work(state.channels, n))
    if sector is None:
        sector = _sector(state.channels, state.polarized, n, predicate)
    return sector, _evaluate(u, state.items(), sector.rows, sector.kernel())


def circuit_amplitudes(blocks, state: StateVector, predicate) -> list[tuple[FockState, complex]]:
    """The outcomes of the state's sector that satisfy `predicate` (all of
    them when it is None), in canonical order, each with its amplitude under
    the circuit whose (channels, block) list is `blocks`.

    The one owner of the route.  Without a predicate, or when every clause
    reads a channel of the last block, the compiled blocks take the global
    route of `state_amplitudes`.  A kept route record, keyed by the blocks'
    channels alone (see `_route`), says which it is, so the global route
    keeps nothing of a block.  When a clause closes before the last block,
    `_stepwise` runs the blocks' kept step program (see `_program`) and
    evolves the state block by block under the least count the global
    kernel can have (see `_Sector.least`).  Past that, the global kernel's
    exact count comes from the kernel, built then: within _MAX_WORK, the
    global route runs on the outcomes and kernel at hand; past it, the
    stepper raises its cap to _MAX_WORK and goes on where it stopped, and
    TooLarge names both counts when it passes that too.  Before each
    expanding block the stepper drops rows of rounding noise, at most
    _PRUNE_NORM x the state's norm, which moves each amplitude by at most
    that (see `_stepwise`).  Blocks are not fused between projection
    points: a segment meets more distinct local inputs, which made the
    three-qubit search 2x slower.
    """
    return list(_circuit_arrays(blocks, state, predicate).items())


def _circuit_arrays(blocks, state: StateVector, predicate) -> Outcomes:
    """`circuit_amplitudes` as a view of the amplitude array over the
    sector record's rows."""
    n = state.require_sector()
    blocks = _as_blocks(blocks)
    sector = None
    if predicate is not None:
        sector = _sector(state.channels, state.polarized, n, predicate)
        route = _route(blocks, sector)
        if route.early:
            lower = sector.least()

            def over(spent: int, step: int) -> int:
                whole = lower
                if lower and lower <= _kernels._MAX_WORK:
                    whole = sector.kernel().work
                if whole <= _kernels._MAX_WORK:
                    raise _PastLimit(spent, step)
                if spent <= _kernels._MAX_WORK:
                    return _kernels._MAX_WORK
                raise TooLarge(
                    f"the stepwise evolution reaches {spent} vector elements at block {step} "
                    f"and the global route at least {whole}, "
                    f"more than the {_kernels._MAX_WORK} allowed"
                )

            try:
                amps = _stepwise(*_program(route, blocks), state, sector,
                                 min(lower, _kernels._MAX_WORK), over)
                return Outcomes(sector, None, amps)
            except _PastLimit:
                pass
    sector, amps = _swept(compile_blocks(blocks, state.channels), state, n, predicate, sector)
    return Outcomes(sector, None, amps)


def require_normalized(state: StateVector):
    """Raise InvalidSpec when |<state|state> - 1| exceeds UNITARY_TOL."""
    defect = abs(state.norm() ** 2 - 1.0)
    if defect > UNITARY_TOL:
        raise InvalidSpec(f"input state is not normalized: |norm^2 - 1| = {defect:.3g}")


def evolve(matrix, state: StateVector) -> StateVector:
    """Output amplitudes of a state vector under a channel unitary.

    Every outcome of the input's sector comes from the kernel of
    `state_amplitudes`; those with |amp| >= fock.PRUNE_TOL are kept (see
    `_kept`), without the StateVector's per-state checks, as its terms: an
    `Outcomes` view of the amplitude array over the sector record.
    """
    n = state.require_sector()
    sector, amps = _swept(_channel_unitary(matrix, state.channels), state, n, None)
    vector = StateVector(None, state.channels, state.polarized)
    vector._amp = _kept(Outcomes(sector, None, amps))
    return vector


def distribution(matrix, state: StateVector) -> Distribution:
    """Output probability distribution of a normalized state vector.

    The entries are the squares of the terms of the vector `evolve`
    returns, a view over the same outcomes.  Raises MixedSector when the
    input has no fixed photon number and InvalidSpec when it is not
    normalized.
    """
    n = state.require_sector()
    require_normalized(state)
    return Distribution(_probabilities(evolve(matrix, state)._amp), n)


def _kept(amplitudes: Outcomes) -> Outcomes:
    """The outcomes of an amplitude view whose |amp| >= fock.PRUNE_TOL.
    np.hypot takes |amp| from the C hypot, as Python's abs() does, so the
    cut is the same."""
    amps = amplitudes.array
    return amplitudes.subset(np.hypot(amps.real, amps.imag) >= PRUNE_TOL, amps)


def _probabilities(amplitudes: Outcomes) -> Outcomes:
    """|amp|^2 of each amplitude of the view, over the same outcomes, each
    bit-identical to abs(amp) ** 2.  `** 2` on a float calls the C pow, and
    so does np.float_power's float64 loop, once per element, with no SIMD
    variant.  np.power (a SIMD square for exponent 2) and |amp| * |amp|
    round apart from pow in the last bit for about 5 values in 10,000."""
    amps = amplitudes.array
    return Outcomes(amplitudes.record, amplitudes.rows,
                    np.float_power(np.hypot(amps.real, amps.imag), 2.0))


@dataclass(frozen=True)
class SampleCount:
    """Observed outcome counts from a finite number of shots; `sample`
    gives `counts` as a read-only `Outcomes` view in canonical order."""

    counts: Mapping[FockState, int]
    shots: int
    seed: int

    def items(self) -> list[tuple[FockState, int]]:
        return canonical_items(self.counts.items())


def sample(dist: Distribution, shots: int, seed: int) -> SampleCount:
    """Draw `shots` outcomes by `inverse_cdf_counts` over the canonical
    outcome order; outcomes never drawn are left out of the counts, a view
    over the distribution's record.  Raises InvalidSpec for a `dist` that
    is not a Distribution and for hand-built entries that `_indexed`
    rejects."""
    if not isinstance(dist, Distribution):
        raise InvalidSpec(f"sample needs a Distribution, got {type(dist).__name__}")
    shots, seed = require_shots(shots), require_seed(seed)
    entries = _indexed(dist)
    counts = np.array(inverse_cdf_counts(entries.array, shots, seed), dtype=np.int64)
    return SampleCount(entries.subset(counts > 0, counts), shots, seed)


def _indexed(dist: Distribution) -> Outcomes:
    """The entries of `dist` as a view in canonical order: the program's
    view as it stands, or a hand-built mapping, checked and sorted into a
    record of its own, not kept, on every call.  Raises InvalidSpec unless that
    mapping's keys are FockStates of one register, each with `dist.sector`
    photons, and its values integers or floats."""
    entries = dist.entries
    if isinstance(entries, Outcomes):
        return entries
    if not isinstance(entries, Mapping):
        raise InvalidSpec(f"distribution entries must be a mapping, got {type(entries).__name__}")
    first = next(iter(entries), None)
    for s in entries:
        if not isinstance(s, FockState):
            raise InvalidSpec(f"distribution outcomes must be FockStates, got {reprlib.repr(s)}")
        if (s.channels, s.polarized, s.n) != (first.channels, first.polarized, dist.sector):
            raise InvalidSpec(f"outcome {s} lies off the {dist.sector!r}-photon sector "
                              f"of the register of {first}")
    ordered = canonical_items(entries.items())
    try:
        values = np.array([p for _, p in ordered])
    except ValueError:  # a ragged nesting
        values = None
    if values is None or values.ndim != 1 or values.dtype.kind not in "iuf":
        raise InvalidSpec("distribution probabilities must be integers or floats, "
                          f"got {reprlib.repr(list(entries.values()))}")
    rows = np.array([s.occupations for s, _ in ordered], dtype=np.int64)
    polarized = first is not None and first.polarized
    return Outcomes(_Sector(None, None, dist.sector, polarized, rows), None, values)
