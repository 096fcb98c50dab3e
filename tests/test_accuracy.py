"""Accuracy of the float64 kernel against exact and 30-digit permanents.

`batch_amplitudes` and `state_amplitudes` are compared with values computed
far beyond float64: the closed form n! x^n of an all-ones matrix scaled by
x, and Ryser's formula in 30-digit `mpmath` arithmetic.  Each comparison
asserts a relative error of at most TOL, the largest amplitude error over a
case's targets divided by its largest exact amplitude.  The cases cover both
kernels, SLOS's tables and Glynn's plan, and say which one served them.
"""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from photonsim import _kernels
from photonsim.cli import load_circuit_file
from photonsim.fock import FockState, StateVector
from photonsim.grover import dual_rail_grover_3q
from photonsim.postselect import admissible_outcomes, parse_postselect
from photonsim.qubits import HERALDED_CNOT_MATRIX
from photonsim.simulate import batch_amplitudes, state_amplitudes

DATA = Path(__file__).parent / "data"

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


def served_by(kernel, rows, n):
    """Whether `_kernel` picks `kernel`, a class, for these target rows."""
    return type(_kernels._kernel(np.array(rows), n)) is kernel


@pytest.mark.parametrize("source", [(3, 2, 0, 0, 0), (5, 0, 0, 0)])
def test_bunched_sources_over_their_whole_sector(source):
    u = random_unitary(np.random.default_rng(sum(source) + len(source)), len(source))
    got = state_amplitudes(u, StateVector.basis(FockState(source)), None)
    targets = [t.occupations for t, _ in got]
    assert served_by(_kernels._Tables, targets, 5)
    exact = [mp_amplitude(u, source, t) for t in targets]
    assert relative_error([a for _, a in got], exact) <= TOL


def test_twelve_photon_bunched_source():
    source = (4, 3, 3, 2, 0)
    targets = [(12, 0, 0, 0, 0), (3, 3, 3, 3, 0), (2, 2, 2, 3, 3), (0, 0, 0, 0, 12)]
    u = random_unitary(np.random.default_rng(12), 5)
    assert served_by(_kernels._Tables, targets, 12)
    got = batch_amplitudes(u, FockState(source), [FockState(t) for t in targets])
    exact = [mp_amplitude(u, source, t) for t in targets]
    assert relative_error(got, exact) <= TOL


def test_two_heralded_cnots_under_their_four_heralds():
    loaded = load_circuit_file(str(DATA / "two_heralded_cnots.json"))
    u = loaded.circuit.compile()
    source = (1, 0, 1, 0) + loaded.herald_input
    heralds = parse_postselect("[4]==1 & [5]==1 & [6]==1 & [7]==1")
    got = state_amplitudes(u, StateVector.basis(FockState(source)), heralds)
    targets = [t.occupations for t, _ in got]
    assert len(targets) == 10 and served_by(_kernels._Tables, targets, 6)
    exact = [mp_amplitude(u, source, t) for t in targets]
    assert relative_error([a for _, a in got], exact) <= TOL


@pytest.mark.parametrize("target, kernel", [
    # 22 x (3 x 2^10 - 1) = 67,562 table entries against 2^11 x 35 = 71,680
    ((2,) + (1,) * 10 + (0,) * 11, _kernels._Tables),
    # 22 x (2^12 - 1) = 90,090 against 2^11 x 35 + 6,000 = 77,680
    ((1,) * 12 + (0,) * 10, _kernels._Plan),
])
def test_one_twelve_photon_target_on_each_side_of_the_kernel_choice(target, kernel):
    source = (1,) * 12 + (0,) * 10
    u = random_unitary(np.random.default_rng(22), 22)
    assert served_by(kernel, [target], 12)
    got = batch_amplitudes(u, FockState(source), [FockState(target)])
    assert relative_error(got, [mp_amplitude(u, source, target)]) <= TOL


def test_dual_rail_search_success_probability():
    # Seven heralded CNOTs, each succeeding with 2/27.
    want = (2 / 27) ** 7
    assert abs(dual_rail_grover_3q().success_probability - want) <= 1e-14 * want
