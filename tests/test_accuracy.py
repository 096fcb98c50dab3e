"""Accuracy of the float64 kernel against exact and 30-digit permanents.

`batch_amplitudes` is compared with values computed far beyond float64: the
closed form n! x^n of an all-ones matrix scaled by x, and Ryser's formula in
30-digit `mpmath` arithmetic.  Each comparison asserts a relative error of
at most TOL, the largest amplitude error over a case's targets divided by
its largest exact amplitude.
"""

import math

import mpmath
import numpy as np
import pytest

from photonsim.fock import FockState
from photonsim.grover import dual_rail_grover_3q
from photonsim.postselect import admissible_outcomes, parse_postselect
from photonsim.qubits import HERALDED_CNOT_MATRIX
from photonsim.simulate import batch_amplitudes

TOL = 1e-13


def mp_permanent(a):
    """Ryser's formula over the column subsets in Gray-code order, in
    30-digit complex arithmetic."""
    n = len(a)
    with mpmath.workdps(30):
        cols = [[mpmath.mpc(complex(a[i][j])) for i in range(n)] for j in range(n)]
        sums = [mpmath.mpc(0)] * n
        total = mpmath.mpc(0)
        gray = 0
        for k in range(1, 1 << n):
            new_gray = k ^ (k >> 1)
            bit = new_gray ^ gray
            col = cols[bit.bit_length() - 1]
            if new_gray & bit:
                sums = [s + c for s, c in zip(sums, col)]
            else:
                sums = [s - c for s, c in zip(sums, col)]
            gray = new_gray
            prod = mpmath.fprod(sums)
            total += prod if (n - gray.bit_count()) % 2 == 0 else -prod
        return total


def mp_amplitude(u, source, target):
    """<target| U |source> from `mp_permanent`, in 30-digit arithmetic."""
    cols = [i for i, v in enumerate(source) for _ in range(v)]
    rows = [j for j, v in enumerate(target) for _ in range(v)]
    norm = math.prod(map(math.factorial, source)) * math.prod(map(math.factorial, target))
    with mpmath.workdps(30):
        return mp_permanent(u[np.ix_(rows, cols)]) / mpmath.sqrt(norm)


def relative_error(got, exact) -> float:
    with mpmath.workdps(30):
        err = max(abs(mpmath.mpc(g) - e) for g, e in zip(got, exact))
        return float(err / max(abs(e) for e in exact))


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", range(8, 21))
def test_all_ones(n):
    # All row sums agree, so the subset terms are large, alternate in sign
    # and cancel to a small total: float64's worst case.
    x = 1 / math.sqrt(n)
    ones = FockState((1,) * n)
    got = batch_amplitudes(np.full((n, n), x), ones, [ones])
    with mpmath.workdps(30):
        exact = mpmath.factorial(n) * mpmath.mpf(x) ** n  # n!/n^(n/2) for the float x
    assert relative_error(got, [exact]) <= TOL


@pytest.mark.parametrize("n", range(2, 11))
def test_haar(n):
    u = random_unitary(np.random.default_rng(n), n)
    source = (1,) * n
    targets = [source, (2, 0) + (1,) * (n - 2), (n,) + (0,) * (n - 1)]
    got = batch_amplitudes(u, FockState(source), [FockState(t) for t in targets])
    exact = [mp_amplitude(u, source, t) for t in targets]
    assert relative_error(got, exact) <= TOL


@pytest.mark.parametrize("source", [(2, 0, 1, 0, 1, 1), (0, 2, 0, 2, 1, 1)])
def test_heralded_cnot_block_bunched_source(source):
    # Every outcome with the heralds measured back in (1, 1).
    heralded = parse_postselect("[4]==1 & [5]==1")
    targets = list(admissible_outcomes(6, False, sum(source), heralded))
    u = HERALDED_CNOT_MATRIX
    got = batch_amplitudes(u, FockState(source), [FockState(t) for t in targets])
    exact = [mp_amplitude(u, source, t) for t in targets]
    assert relative_error(got, exact) <= TOL


def test_dual_rail_search_success_probability():
    # Seven heralded CNOTs, each succeeding with 2/27.
    want = (2 / 27) ** 7
    assert abs(dual_rail_grover_3q().success_probability - want) <= 1e-14 * want
