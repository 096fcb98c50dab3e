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

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import _evaluate, _require_work, _whole_sector_work
from ._sampling import inverse_cdf_counts, require_seed, require_shots
from ._sectors import _Sector, _sector
from ._stepper import _PastLimit, _as_blocks, _program, _route, _stepwise
from .circuit import compile_blocks
from .components import UNITARY_TOL, require_integer, require_unitary
from .errors import InvalidSpec, RegisterMismatch, TooLarge
from .fock import PRUNE_TOL, FockState, StateVector, canonical_items
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
    """Probabilities over same-sector Fock states."""

    entries: dict[FockState, float]
    sector: int
    # Set by the builders whose entries are already in canonical order.
    _canonical: bool = field(default=False, compare=False, repr=False)

    def items(self) -> list[tuple[FockState, float]]:
        """The entries in canonical order."""
        if self._canonical:
            return list(self.entries.items())
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
    states, amps = _circuit_arrays(blocks, state, predicate)
    return list(zip(states, amps.tolist()))


def _circuit_arrays(blocks, state: StateVector, predicate) -> tuple[tuple, np.ndarray]:
    """`circuit_amplitudes` as the outcomes' FockStates, the sector record's
    tuple, and their amplitudes, one complex array."""
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
                return sector.states(), amps
            except _PastLimit:
                pass
    sector, amps = _swept(compile_blocks(blocks, state.channels), state, n, predicate, sector)
    return sector.states(), amps


def require_normalized(state: StateVector):
    """Raise InvalidSpec when |<state|state> - 1| exceeds UNITARY_TOL."""
    defect = abs(state.norm() ** 2 - 1.0)
    if defect > UNITARY_TOL:
        raise InvalidSpec(f"input state is not normalized: |norm^2 - 1| = {defect:.3g}")


def evolve(matrix, state: StateVector) -> StateVector:
    """Output amplitudes of a state vector under a channel unitary.

    Every outcome of the input's sector comes from the kernel of
    `state_amplitudes`; those with |amp| >= fock.PRUNE_TOL are kept (see
    `_kept`), in canonical order, as the sector record's FockStates and the
    amplitude array, without the StateVector's per-state checks.  The
    vector builds its dict from them when first read (see
    `StateVector._from_arrays`).
    """
    n = state.require_sector()
    sector, amps = _swept(_channel_unitary(matrix, state.channels), state, n, None)
    states, amps, _ = _kept(sector.states(), amps)
    return StateVector._from_arrays(states, amps, state.channels, state.polarized)


def distribution(matrix, state: StateVector) -> Distribution:
    """Output probability distribution of a normalized state vector.

    The entries come from the arrays of the vector `evolve` returns, in its
    canonical order, so that vector's dict is not built.  Raises MixedSector
    when the input has no fixed photon number and InvalidSpec when it is not
    normalized.
    """
    n = state.require_sector()
    require_normalized(state)
    evolved = evolve(matrix, state)
    # The arrays are gone only when something read the vector first.
    states, amps = evolved._pending or (list(evolved._amp), list(evolved._amp.values()))
    return Distribution(dict(zip(*_probabilities(states, amps))), n, _canonical=True)


def _kept(states, amps: np.ndarray):
    """(states, amplitudes, |amplitudes|) of the `states` whose amplitude in
    the complex array `amps` has |amp| >= fock.PRUNE_TOL.  np.hypot takes
    |amp| from the C hypot, as Python's abs() does, so the cut is the same."""
    mags = np.hypot(amps.real, amps.imag)
    keep = mags >= PRUNE_TOL
    if keep.all():
        return states, amps, mags
    return list(itertools.compress(states, keep.tolist())), amps[keep], mags[keep]


def _probabilities(states, amps):
    """The `states` whose amplitude in `amps` has |amp| >= fock.PRUNE_TOL
    (see `_kept`), and their |amp|^2 as Python floats, each bit-identical to
    abs(amp) ** 2.  `** 2` on a float calls the C pow, and so does
    np.float_power's float64 loop, once per element, with no SIMD variant.
    np.power (a SIMD square for exponent 2) and |amp| * |amp| round apart
    from pow in the last bit for about 5 values in 10,000."""
    states, _, mags = _kept(states, np.asarray(amps, dtype=complex))
    return states, np.float_power(mags, 2.0).tolist()


@dataclass(frozen=True)
class SampleCount:
    """Observed outcome counts from a finite number of shots."""

    counts: dict[FockState, int]
    shots: int
    seed: int

    def items(self) -> list[tuple[FockState, int]]:
        return canonical_items(self.counts.items())


def sample(dist: Distribution, shots: int, seed: int) -> SampleCount:
    """Draw `shots` outcomes by `inverse_cdf_counts` over the canonical
    outcome order; outcomes never drawn are left out of the counts.  A
    distribution already in canonical order is read as it stands.  Raises
    InvalidSpec for a `dist` that is not a Distribution."""
    if not isinstance(dist, Distribution):
        raise InvalidSpec(f"sample needs a Distribution, got {type(dist).__name__}")
    shots, seed = require_shots(shots), require_seed(seed)
    entries = dist.entries if dist._canonical else dict(dist.items())
    counts = inverse_cdf_counts(np.fromiter(entries.values(), float, len(entries)), shots, seed)
    return SampleCount(dict(zip(itertools.compress(entries, counts), filter(None, counts))),
                       shots, seed)
