"""Permanent-based strong simulation and seeded sampling.

The transition amplitude between occupation lists s (input) and t (output)
under a channel unitary U is

    amplitude = Per(U[t, s]) / sqrt(prod_i s_i! * prod_j t_j!)

where U[t, s] repeats column i s_i times and row j t_j times.  Permanents
are evaluated with Ryser's inclusion-exclusion formula.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .components import UNITARY_TOL
from .errors import InvalidSpec, RegisterMismatch, TooLarge
from .fock import FockState, StateVector, sort_key

# batch_amplitudes sweeps 2^_CHUNK_BITS column subsets at a time.
_CHUNK_BITS = 13

# batch_amplitudes refuses a sweep of more than _MAX_WORK vector elements:
# 30-40 s at the 1.8-2.4 ns per element measured on a 2-core Xeon.
_MAX_WORK = 1 << 34

# inverse_cdf_counts draws _DRAW_CHUNK shots at a time.
_DRAW_CHUNK = 1 << 16


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix via Ryser's formula.

    The scalar reference: one Python loop over the 2^n column subsets in
    Gray-code order, with a single-column update per step.  The evaluation
    path uses `batch_amplitudes`; tests check it against this.  Raises
    RegisterMismatch for a non-square matrix and TooLarge above n = 16,
    where the loop would take minutes.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise RegisterMismatch(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > 16:
        raise TooLarge(f"permanent of size {n} exceeds 16")
    if n == 0:
        return 1.0 + 0j
    rows = [list(row) for row in a]
    sums = [0j] * n
    total = 0j
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        bit = new_gray ^ gray
        j = bit.bit_length() - 1
        if new_gray & bit:
            for i in range(n):
                sums[i] += rows[i][j]
        else:
            for i in range(n):
                sums[i] -= rows[i][j]
        gray = new_gray
        prod = 1.0 + 0j
        for v in sums:
            prod *= v
        total += prod if (n - gray.bit_count()) % 2 == 0 else -prod
    return total


def amplitude(matrix, source: FockState, target: FockState) -> complex:
    """Transition amplitude <target| U |source>; 0 when sectors differ."""
    if source.n != target.n:
        return 0j
    u = np.asarray(matrix, dtype=complex)
    cols = [i for i, v in enumerate(source.occupations) for _ in range(v)]
    rows = [j for j, v in enumerate(target.occupations) for _ in range(v)]
    per = permanent(u[np.ix_(rows, cols)])
    norm = math.sqrt(
        math.prod(math.factorial(v) for v in source.occupations)
        * math.prod(math.factorial(v) for v in target.occupations)
    )
    return per / norm


def batch_amplitudes(matrix, source: FockState, targets):
    """Amplitudes <t| U |source> for a list of targets, in the order given.

    Ryser's column-subset sums depend only on the source, so one sweep over
    the 2^n subsets of its n photon columns is shared by every target, and
    each target reduces it with a product over its own row multiset.  The
    targets are reduced in trie order: channels are ranked by how many
    distinct occupations the targets take in them (pinned heralds first), the
    targets are sorted in that order, and a stack of partial products lets
    every shared prefix be multiplied once.  The sweep runs in chunks of
    2^_CHUNK_BITS subsets, so its memory does not grow with n.  Its time
    does: per subset it adds the channels' column sums, multiplies each new
    prefix product and sums each target, so the plan fixes the work at
    2^n x (channels + prefix products + targets) vector elements before the
    sweep starts.  Targets outside the source's photon-number sector give 0j.

    Raises RegisterMismatch when U is not square or a register does not
    match its side, and TooLarge, naming the work, when it exceeds _MAX_WORK.
    """
    u = np.asarray(matrix, dtype=complex)
    targets = list(targets)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise RegisterMismatch(f"channel unitary must be square, got shape {u.shape}")
    side = u.shape[0]
    if source.channels != side or any(t.channels != side for t in targets):
        raise RegisterMismatch(f"register does not match the {side}-channel unitary")
    n = source.n
    out = [0j] * len(targets)
    live = [i for i, t in enumerate(targets) if t.n == n]
    if not live:
        return out

    # Channel order: fewest distinct occupations first, ties by index.
    occs = [targets[i].occupations for i in live]
    distinct = [len(set(column)) for column in zip(*occs)]
    order = sorted(range(side), key=lambda j: (distinct[j], j))
    # Each target as its steps: one code d * base + t per nonzero occupation
    # t at position d in that order.  Sorting groups shared prefixes, whose
    # length is precomputed.
    base = n + 1
    plan = []
    prev: tuple = ()
    per_subset = side + len(live)
    for steps, i in sorted(
        (tuple([d * base + occ[j] for d, j in enumerate(order) if occ[j]]), i)
        for occ, i in zip(occs, live)
    ):
        common = 0
        for a, b in zip(prev, steps):
            if a != b:
                break
            common += 1
        plan.append((i, common, steps))
        per_subset += len(steps) - common
        prev = steps
    work = (1 << n) * per_subset
    if work > _MAX_WORK:
        raise TooLarge(
            f"the sweep needs 2^{n} x {per_subset} = {work} vector elements, "
            f"more than the {_MAX_WORK} allowed"
        )

    cols = [i for i, v in enumerate(source.occupations) for _ in range(v)]
    rows = u[order]
    k = min(n, _CHUNK_BITS)
    low, low_sign = _subset_sums(rows, cols[:k])
    high_cols = [rows[:, j : j + 1] for j in cols[k:]]
    # Ryser's sign (-1)^(n - |S|): the low subset's part seeds the stack and
    # the high subset's part scales each chunk's sums.
    stack = [low_sign if n % 2 == 0 else -low_sign, *np.empty((n, 1 << k), dtype=complex)]
    chunk = np.empty_like(low)
    for h in range(1 << len(high_cols)):
        # The high subset's column sum, added in `_subset_sums` order.
        np.add(low, sum(c for b, c in enumerate(high_cols) if h >> b & 1), out=chunk)
        sign = -1.0 if h.bit_count() % 2 else 1.0
        for i, common, steps in plan:
            for depth in range(common, len(steps)):
                d, t = divmod(steps[depth], base)
                np.multiply(
                    stack[depth], chunk[d] if t == 1 else chunk[d] ** t, out=stack[depth + 1]
                )
            out[i] += sign * complex(stack[len(steps)].sum())

    s_norm = math.prod(map(math.factorial, source.occupations))
    for i, _, steps in plan:
        t_norm = math.prod(math.factorial(code % base) for code in steps)
        out[i] /= math.sqrt(s_norm * t_norm)
    return out


def _subset_sums(rows: np.ndarray, cols: list[int]):
    """Row sums of `rows[:, S]` for every subset S of `cols`, and (-1)^|S|.

    Subset S sits at the column whose bit b is set when cols[b] is in S.
    """
    sums = np.zeros((rows.shape[0], 1 << len(cols)), dtype=complex)
    sign = np.ones(1 << len(cols))
    size = 1
    for j in cols:
        np.add(sums[:, :size], rows[:, j : j + 1], out=sums[:, size : 2 * size])
        np.negative(sign[:size], out=sign[size : 2 * size])
        size *= 2
    return sums, sign


def sector_basis(n: int, channels: int):
    """All occupation tuples of n photons over `channels`, canonical order.

    Canonical order is descending lexicographic (first channel fills first):
    (n,0,...), (n-1,1,0,...), ..., (0,...,n).
    """
    if channels == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in sector_basis(n - first, channels - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class Distribution:
    """Probabilities over same-sector Fock states."""

    entries: dict[FockState, float]
    sector: int

    def items(self) -> list[tuple[FockState, float]]:
        return sorted(self.entries.items(), key=lambda kv: sort_key(kv[0]))

    def total(self) -> float:
        return sum(self.entries.values())

    def probability(self, state: FockState) -> float:
        return self.entries.get(state, 0.0)


def state_amplitudes(matrix, state: StateVector, targets) -> list[complex]:
    """Amplitudes <t| U |state> for a list of targets, in the order given.

    The input terms are summed with one `batch_amplitudes` call each.
    """
    total = np.zeros(len(targets), dtype=complex)
    for term, coeff in state.items():
        total += coeff * np.asarray(batch_amplitudes(matrix, term, targets))
    return total.tolist()


def require_normalized(state: StateVector):
    """Raise InvalidSpec when |<state|state> - 1| exceeds UNITARY_TOL."""
    defect = abs(state.norm() ** 2 - 1.0)
    if defect > UNITARY_TOL:
        raise InvalidSpec(f"input state is not normalized: |norm^2 - 1| = {defect:.3g}")


def evolve(matrix, state: StateVector) -> StateVector:
    """Output amplitudes of a state vector under a channel unitary.

    Every outcome of the input's sector is evaluated by `state_amplitudes`;
    the StateVector drops amplitudes below fock.PRUNE_TOL.
    """
    n = state.require_sector()
    polarized = state.polarized
    targets = [FockState(occ, polarized) for occ in sector_basis(n, state.channels)]
    amplitudes = state_amplitudes(matrix, state, targets)
    return StateVector(dict(zip(targets, amplitudes)), channels=state.channels, polarized=polarized)


def distribution(matrix, state: StateVector) -> Distribution:
    """Output probability distribution of a normalized state vector.

    Raises MixedSector when the input has no fixed photon number and
    InvalidSpec when it is not normalized.
    """
    n = state.require_sector()
    require_normalized(state)
    evolved = evolve(matrix, state)
    entries = {s: abs(a) ** 2 for s, a in evolved.items()}
    return Distribution(entries, n)


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix increment-and-scramble).

    The scalar reference for the seeded streams: draw k (from 1) is
    mix(seed + k * gamma mod 2^64), so it depends on k alone.
    `inverse_cdf_counts` computes the same stream as arrays; tests pin both.
    """

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_uint64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_double(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class SampleCount:
    """Observed outcome counts from a finite number of shots."""

    counts: dict[FockState, int]
    shots: int
    seed: int

    def items(self) -> list[tuple[FockState, int]]:
        return sorted(self.counts.items(), key=lambda kv: sort_key(kv[0]))


def _splitmix64_doubles(seed: int, first: int, stop: int) -> np.ndarray:
    """Draws first..stop-1 (counted from 1) of `SplitMix64(seed).next_double()`.

    SplitMix64 is counter-based, so the states are one uint64 array, mixed in
    place.  Array-only uint64 arithmetic wraps mod 2^64 like the scalar masks;
    numpy scalar arithmetic would warn on the overflow instead.
    """
    z = np.arange(first, stop, dtype=np.uint64)
    z *= np.uint64(SplitMix64._GAMMA)
    z += np.uint64(seed & SplitMix64._MASK)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    draws = (z >> np.uint64(11)).astype(float)
    draws *= 2.0**-53
    return draws


def inverse_cdf_counts(weights, shots: int, seed: int) -> list[int]:
    """Counts per index of `shots` inverse-CDF draws over `weights`.

    Draw k scales the k-th `SplitMix64(seed).next_double()` by the weights'
    total and finds its index by bisection in the running sums.  The stream
    is counter-based, so `_splitmix64_doubles` computes it as arrays,
    bit-identical to the scalar generator, in chunks of _DRAW_CHUNK draws;
    memory does not grow with `shots`.  Empty weights give no counts.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if not weights:
        return []
    cumulative = np.array(list(itertools.accumulate(weights)), dtype=float)
    total, last = cumulative[-1], len(cumulative) - 1
    counts = np.zeros(len(cumulative), dtype=np.int64)
    for first in range(1, shots + 1, _DRAW_CHUNK):
        draws = _splitmix64_doubles(seed, first, min(first + _DRAW_CHUNK, shots + 1))
        draws *= total
        index = np.minimum(np.searchsorted(cumulative, draws, side="right"), last)
        counts += np.bincount(index, minlength=len(cumulative))
    return counts.tolist()


def sample(dist: Distribution, shots: int, seed: int) -> SampleCount:
    """Draw `shots` outcomes by `inverse_cdf_counts` over the canonical
    outcome order; outcomes never drawn are left out of the counts."""
    ordered = dist.items()
    counts = inverse_cdf_counts([p for _, p in ordered], shots, seed)
    return SampleCount({s: c for (s, _), c in zip(ordered, counts) if c}, shots, seed)
