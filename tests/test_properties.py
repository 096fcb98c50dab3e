"""Properties of the array kernel on small random cases.

The kernel is checked against the scalar references: `amplitude`, one
Ryser loop per target, and the sector as an `itertools.product` filter.
Examples are derandomized and few, so the suite stays fast and repeatable.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsim import simulate
from photonsim.fock import FockState
from photonsim.simulate import amplitude, batch_amplitudes, sector_basis

SETTINGS = settings(max_examples=50, derandomize=True, deadline=None, database=None)


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def sweeps(draw):
    """A unitary, a source that may bunch, and targets drawn from its sector
    with repeats, plus at times one outside it."""
    modes, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = FockState(np.bincount(rng.integers(0, modes, n), minlength=modes))
    sector = list(sector_basis(n, modes))
    picks = draw(st.lists(st.integers(0, len(sector) - 1), min_size=1, max_size=12))
    targets = [FockState(sector[i]) for i in picks]
    if draw(st.booleans()):
        outside = FockState((n + 1,) + (0,) * (modes - 1))
        targets.insert(draw(st.integers(0, len(targets))), outside)
    return random_unitary(rng, modes), source, targets


@SETTINGS
@given(sweeps(), st.sampled_from([13, 2, 1]))
def test_kernel_matches_the_scalar_reference(case, chunk_bits):
    # Chunks of 2 or 4 subsets split every sweep of 2 or more photons.
    u, source, targets = case
    with mock.patch.object(simulate, "_CHUNK_BITS", chunk_bits):
        got = batch_amplitudes(u, source, targets)
    assert len(got) == len(targets)
    for target, amp in zip(targets, got):
        assert abs(amp - amplitude(u, source, target)) < 1e-12


@SETTINGS
@given(st.integers(0, 5), st.integers(1, 5))
def test_sector_enumeration_matches_brute_force(n, channels):
    sector = [occ for occ in itertools.product(range(n + 1), repeat=channels) if sum(occ) == n]
    canonical = sorted(sector, reverse=True)
    assert list(sector_basis(n, channels)) == canonical
    assert simulate._outcomes(channels, False, n, None).tolist() == [list(o) for o in canonical]
