"""Post-selection predicates and the processor that applies them.

Predicate grammar (whitespace-insensitive):

    expr   := clause ('&' clause)*
    clause := '[' int (',' int)* ']' op int
    op     := '==' | '<=' | '>=' | '<' | '>'

A clause sums the photons in the listed spatial modes (H+V combined on
polarized registers) and compares against the bound.  Post-selection means
terminal post-selection: its result is the final distribution filtered by
the predicate.  `Processor` hands (circuit, input, predicate) to
`simulate.circuit_amplitudes`, which alone picks the route: one sweep of the
compiled unitary, or a block-by-block evolution that applies each clause
right after the last block touching its modes (no later block changes them,
so the amplitudes are the same).  The outcomes that satisfy a predicate come
from `admissible_outcomes`, the enumeration `sector_basis` runs without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sectors import _Sector, _sector
from .circuit import Circuit
from .components import require_integer
from .errors import EvalError, InvalidSpec, RegisterMismatch
from .fock import FockState, Outcomes, StateVector
from .notation import Scanner
from .simulate import (Distribution, _circuit_arrays, _count, _kept, _probabilities,
                       require_normalized)
from .simulate import batch_amplitudes  # noqa: F401  (bench/test_bench.py checks this binding)

_OPS = ("==", "<=", ">=", "<", ">")


def require_min_photons(count: int):
    """Raise InvalidSpec for a minimum detected-photon count that is not a
    non-negative integer (bools included)."""
    if require_integer(count, "minimum photon count") < 0:
        raise InvalidSpec(f"minimum photon count must be >= 0, got {count}")


@dataclass(frozen=True)
class Clause:
    modes: tuple[int, ...]
    op: str
    value: int

    def __post_init__(self):
        # A tuple, so a predicate can key the sector structure simulate keeps.
        object.__setattr__(self, "modes", tuple(self.modes))

    def __str__(self) -> str:
        return f"[{','.join(str(m) for m in self.modes)}]{self.op}{self.value}"

    @property
    def bounds(self) -> tuple[int, float]:
        """The inclusive range (lo, hi) the clause's photon count must lie in."""
        v = self.value
        return {"==": (v, v), "<=": (0, v), "<": (0, v - 1), ">=": (v, math.inf),
                ">": (v + 1, math.inf)}[self.op]


@dataclass(frozen=True)
class PostSelect:
    """A conjunction of clauses.

    The hash is computed once, on construction, as FockState's is: a
    predicate keys the sector, route and program records that simulate
    keeps, so each call hashes it three times.
    """

    clauses: tuple[Clause, ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))
        object.__setattr__(self, "_hash", hash((self.clauses,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle the clauses only: a str hashes differently in another
        # process, so loading rebuilds the hash.
        return PostSelect, (self.clauses,)

    def __str__(self) -> str:
        return " & ".join(str(c) for c in self.clauses)

    def evaluate(self, state: FockState) -> bool:
        """True when every clause holds for the given outcome."""
        self.require_modes(state.modes)
        for clause in self.clauses:
            total = sum(state.mode_occupation(m) for m in clause.modes)
            lo, hi = clause.bounds
            if not lo <= total <= hi:
                return False
        return True

    def require_modes(self, modes: int):
        """Raise InvalidSpec for a clause that lists no mode and EvalError
        for a mode outside [0, modes)."""
        for clause in self.clauses:
            if not clause.modes:
                raise InvalidSpec(f"clause {clause} lists no mode")
            for m in clause.modes:
                if not 0 <= m < modes:
                    raise EvalError(f"clause mode {m} outside register of {modes} modes")


def parse_postselect(text: str) -> PostSelect:
    """Parse a predicate; raises ParseError with the character offset on failure."""
    sc = Scanner(text)
    clauses = []
    while True:
        sc.expect("[")
        modes = [sc.integer()]
        while sc.accept(","):
            modes.append(sc.integer())
        sc.expect("]")
        op = next((op for op in _OPS if sc.accept(op)), None)
        if op is None:
            sc.fail("a comparison operator")
        clauses.append(Clause(tuple(modes), op, sc.integer()))
        if not sc.accept("&"):
            break
    sc.end()
    return PostSelect(tuple(clauses))


def admissible_outcomes(channels: int, polarized: bool, n: int, expr):
    """Sector outcomes satisfying the predicate `expr`, in canonical order;
    every outcome of the sector when `expr` is None.  The enumeration is the
    one `sector_basis` runs (see `_sectors._sector`).  On the first
    `next()`, InvalidSpec comes when a count is not a nonnegative integer,
    `polarized` is not a bool or `expr` is neither None nor a PostSelect,
    and RegisterMismatch for an odd channel count on a polarized register."""
    n, channels = _count(n, "photon number"), _count(channels, "channel count")
    if not isinstance(polarized, bool):
        raise InvalidSpec(f"polarized must be a bool, got {polarized!r}")
    if polarized and channels % 2:
        raise RegisterMismatch(f"polarized register needs an even channel count, got {channels}")
    if expr is not None and not isinstance(expr, PostSelect):
        raise InvalidSpec(f"predicate must be a PostSelect or None, got {type(expr).__name__}")
    yield from map(tuple, _sector(channels, polarized, n, expr).rows.tolist())


@dataclass(frozen=True)
class Processor:
    """A circuit, an input state, and an optional terminal post-selection."""

    circuit: Circuit
    input_state: StateVector
    postselect: PostSelect | None = None
    min_detected_photons: int = 0

    def amplitudes(self) -> list[tuple[FockState, complex]]:
        """Every admissible outcome with its unconditioned amplitude.

        After the checks below, one call to `circuit_amplitudes`, which owns
        the route, gives them in canonical order: the whole photon-number
        sector without a predicate, the outcomes that satisfy it otherwise,
        and none when the input holds fewer than `min_detected_photons`
        photons.  Raises InvalidSpec for a `min_detected_photons` that is
        not a non-negative integer,
        an input that is not normalized or a clause without modes,
        MixedSector for an input without a fixed photon number,
        RegisterMismatch when its channels or polarization do not fit the
        circuit, EvalError when the predicate reads a mode it lacks,
        NotUnitary for a non-unitary block or U and TooLarge above the work
        limit.
        """
        return list(self._arrays().items())

    def _arrays(self) -> Outcomes:
        """`amplitudes` as a view of the amplitude array over the sector
        record's rows, from the array core of `circuit_amplitudes`."""
        require_min_photons(self.min_detected_photons)
        state, circuit = self.input_state, self.circuit
        n = state.require_sector()
        require_normalized(state)
        if (state.channels, state.polarized) != (circuit.channels, circuit.polarized):
            raise RegisterMismatch(
                f"input on {state.channels} channels (polarized={state.polarized}), "
                f"circuit on {circuit.channels} (polarized={circuit.polarized})"
            )
        if self.postselect is not None:
            self.postselect.require_modes(circuit.modes)
        if n < self.min_detected_photons:
            nothing = _Sector(None, None, n, state.polarized, np.zeros((0, state.channels), np.int64))
            return Outcomes(nothing, None, np.zeros(0, dtype=complex))
        return _circuit_arrays(circuit.blocks(), state, self.postselect)

    def run(self) -> tuple[Distribution, float]:
        """Conditioned output distribution and the success probability.

        Outcomes of `amplitudes` whose amplitude is below fock.PRUNE_TOL are
        dropped, and the rest get |amp|^2 as `distribution` takes it (see
        `simulate._probabilities`), read from the amplitude array, not the
        list; the entries are a view over the sector record.  Without a
        predicate the raw distribution is returned with success 1.  With
        one, kept probabilities are renormalized and success is their raw
        left-to-right sum.  Too few photons for `min_detected_photons` give
        an empty distribution with success 0.
        """
        n = self.input_state.sector
        kept = _probabilities(_kept(self._arrays()))
        if self.postselect is None and n >= self.min_detected_photons:
            return Distribution(kept, n), 1.0
        success = sum(kept.values())
        if success == 0.0:  # nothing kept
            return Distribution(kept, n), 0.0
        return Distribution(Outcomes(kept.record, kept.rows, kept.array / success), n), success
