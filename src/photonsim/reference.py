"""Scalar references that the tests check the fast kernels against.

`permanent` (Ryser's formula in Gray-code order) and `amplitude` give one
transition amplitude; `oracle_evolve` evolves a Fock state by expanding
its creation operators, independent of any permanent.  Their cost grows as
2^n and as channels^n, so they are validation oracles for small examples;
no evaluation path calls them.
"""

from __future__ import annotations

import math

import numpy as np

from .components import require_unitary
from .errors import RegisterMismatch, TooLarge
from .fock import FockState, StateVector


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


def oracle_evolve(matrix, state: FockState) -> StateVector:
    """Evolve a Fock basis state through a channel unitary by expansion."""
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise RegisterMismatch(f"expected a square matrix, got shape {u.shape}")
    if u.shape[0] != state.channels:
        raise RegisterMismatch(
            f"matrix on {u.shape[0]} channels, state on {state.channels}"
        )
    require_unitary(u)

    dim = state.channels
    start_coeff = 1.0 / math.sqrt(
        math.prod(math.factorial(n) for n in state.occupations)
    )
    # monomials: occupation tuple of output creation operators -> coefficient
    monomials: dict[tuple[int, ...], complex] = {(0,) * dim: start_coeff}
    for ch, count in enumerate(state.occupations):
        column = u[:, ch]
        for _ in range(count):
            grown: dict[tuple[int, ...], complex] = {}
            for mono, coeff in monomials.items():
                for j in range(dim):
                    if column[j] == 0:
                        continue
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                    grown[key] = grown.get(key, 0j) + coeff * column[j]
            monomials = grown

    amplitudes = {}
    for mono, coeff in monomials.items():
        weight = math.sqrt(math.prod(math.factorial(n) for n in mono))
        amplitudes[FockState(mono, state.polarized)] = coeff * weight
    return StateVector(amplitudes, channels=dim, polarized=state.polarized)
