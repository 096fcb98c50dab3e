"""Brute-force state evolution by creation-operator expansion.

Independent of the permanent-based simulator: writes the input state as a
monomial of creation operators, substitutes a_i^dag -> sum_j U[j,i] a_j^dag,
expands the product and collects amplitudes.  Cost grows as (channels)^n,
so this is a validation oracle for small examples, not the fast path.
"""

from __future__ import annotations

import math

import numpy as np

from .components import require_unitary
from .errors import RegisterMismatch
from .fock import FockState, StateVector


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
