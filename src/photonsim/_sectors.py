"""The outcome enumerator and the records kept between calls.

`_outcomes` lists the occupations of a photon-number sector that satisfy a
predicate lowered by `_lower`, one integer row each, in canonical order.  A
`_Sector` holds what no unitary changes about them: the rows, their
FockStates with the index of their rows, and their kernel.  `_STRUCTURES` keeps those records, and the
stepper's route and program records, by key for every call in the process,
within `_kernels._STRUCTURE_BYTES`.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import numpy as np

from . import _kernels
from ._kernels import _kernel, _table_floor, _whole_sector_work
from .errors import TooLarge
from .fock import FockState

# The outcome enumeration refuses a step whose rows would hold more bytes.
_ENUMERATION_BYTES = 1 << 30


def _outcomes(channels: int, n: int, lowered) -> np.ndarray:
    """The occupations of n photons over `channels` that satisfy a lowered
    predicate (see `_lower`; all of them when it is None), one row each, in
    canonical order.

    One pass over the channels expands every prefix into its counts for the
    channel, highest first, so the rows stay in canonical order.  A clause
    caps every channel it reads and must reach its lower end by the last of
    them; the last channel takes the photons left.  A row is dropped when
    the clauses' summed shortfall needs more photons than are left, at
    `reach` (the largest total weight of a channel) each.  Each step keeps
    its rows' parents and counts, read back into rows at the end.  TooLarge
    comes before a step whose rows, at 8 bytes a row per channel, clause and
    counter (parent, count, photons left, shortfall), and the parents and
    counts kept from the steps before it would hold more than
    _ENUMERATION_BYTES.
    """
    if lowered is None:
        empty = np.zeros(0, dtype=np.int64)
        lowered = (empty.reshape(0, channels), empty, empty)
    weights, lo, hi = lowered
    reach = max(int(weights.sum(axis=0).max(initial=0)), 1)
    closes = np.where(weights > 0, np.arange(channels), -1).max(axis=1, initial=-1)
    row_bytes = 8 * (channels + len(lo) + 4)
    left = np.array([n], dtype=np.int64)
    short = np.maximum(lo, 0).sum(keepdims=True)
    sums = np.zeros((len(lo), 1), dtype=np.int64)
    steps, held = [], 0  # the kept (parent, count) arrays and their bytes
    for ch in range(channels):
        read = np.flatnonzero(weights[:, ch])
        bottom = left if ch == channels - 1 else 0
        if len(read):
            w = weights[read, ch][:, None]
            top = np.minimum(left, ((hi[read, None] - sums[read]) // w).min(axis=0))
            closing = closes[read] == ch
            need = -((sums[read[closing]] - lo[read[closing], None]) // w[closing])
            bottom = np.maximum(bottom, need.max(axis=0, initial=0))
        else:
            # The shortfall keeps ceil(short / reach) photons for later channels.
            top = left + (-short // reach)
        count = np.maximum(top - bottom + 1, 0)
        total = int(count.sum())
        if held + total * row_bytes > _ENUMERATION_BYTES:
            raise TooLarge(
                f"the outcome enumeration reaches {total} rows at channel {ch} of {channels}, "
                f"{held + total * row_bytes} bytes, more than the {_ENUMERATION_BYTES} allowed"
            )
        parent = np.repeat(np.arange(len(left)), count)
        k = np.repeat(top + np.cumsum(count) - count, count) - np.arange(total)
        left, short, sums = left[parent] - k, short[parent], sums[:, parent]
        if len(read):
            sums[read] += w * k
            short = np.maximum(lo[:, None] - sums, 0).sum(axis=0)
            keep = short <= left * reach
            parent, k, left, short, sums = parent[keep], k[keep], left[keep], short[keep], sums[:, keep]
        steps.append((parent, k))
        held += parent.nbytes + k.nbytes
    at = np.flatnonzero(left == 0)  # all rows, or with no channel the one of n = 0
    rows = np.empty((len(at), channels), dtype=np.int64)
    for ch in range(channels - 1, -1, -1):
        parent, k = steps[ch]
        rows[:, ch] = k[at]
        at = parent[at]
    return rows


def _lower(predicate, channels: int, polarized: bool, n: int):
    """The predicate as (weights, lo, hi) int64 arrays, one entry per clause:
    how many times it counts each channel (once per listing of its mode, in
    both H and V on a polarized register) and the inclusive range its sum
    must lie in.  Raises InvalidSpec for a clause that lists no mode and
    EvalError for a mode outside the register."""
    predicate.require_modes(channels // 2 if polarized else channels)
    clauses = predicate.clauses
    weights = np.zeros((len(clauses), channels), dtype=np.int64)
    for row, clause in zip(weights, clauses):
        for m in clause.modes:
            row[[2 * m, 2 * m + 1] if polarized else m] += 1
    # A clause's sum lies in [0, n x len(modes)]: an open range closes at its
    # top, and a bound past either end moves to one past it, which fits int64.
    tops = [n * len(c.modes) for c in clauses]
    lo = np.array([min(max(c.bounds[0], -1), t + 1) for c, t in zip(clauses, tops)], dtype=np.int64)
    hi = np.array([max(min(c.bounds[1], t), -1) for c, t in zip(clauses, tops)], dtype=np.int64)
    return weights, lo, hi


class _Sector:
    """What no unitary changes about the outcomes of a photon-number sector
    under a predicate: its `_STRUCTURES` key, the predicate's lowering (None
    without one), their rows in canonical order, read-only, and, built on
    first use, their FockStates with the index of their rows, kernel and
    least kernel count."""

    def __init__(self, key, lowered, n: int, polarized: bool, rows: np.ndarray):
        rows.setflags(write=False)
        self.key, self.lowered, self.rows, self.n, self.polarized = key, lowered, rows, n, polarized
        self.nbytes = rows.nbytes
        self.kept = False  # whether _STRUCTURES counts it
        self._states = self._index = self._kernel = self._least = None

    def states(self) -> tuple:
        """One FockState per row."""
        if self._states is None:
            states = tuple(FockState._unchecked(occ, self.polarized)
                           for occ in map(tuple, self.rows.tolist()))
            # The index first: a thread that sees the states sees it too.
            self._index = dict(zip(states, range(len(states))))
            self._states = states
            _STRUCTURES.grew(self, _states_bytes(states, self._index))
        return self._states

    def index(self) -> dict:
        """{FockState: row number} over the rows, built with `states`: the
        one place where the record's outcomes are hashed."""
        self.states()
        return self._index

    def kernel(self):
        """The rows' kernel (see `_kernel`); None when there is nothing to sweep."""
        if self._kernel is None and self.n and len(self.rows):
            self._kernel = _kernel(self.rows, self.n)
            _STRUCTURES.grew(self, self._kernel.nbytes)
        return self._kernel

    def least(self) -> int:
        """A lower bound on the count of the record's kernel, before it is
        built; 0 with nothing to sweep.  For a whole sector it is the exact
        count (`_whole_sector_work`).  Otherwise it comes from the rows'
        number and shape: the plan has a factor row per channel and a node
        and a leaf per row for each of its 2^(n-1) subsets, and the tables
        hold at least `_table_floor` rows."""
        n, rows = self.n, self.rows
        if self._least is None:
            channels = rows.shape[1]
            if not (n and len(rows)):
                self._least = 0
            elif self.lowered is None:
                self._least = _whole_sector_work(channels, n)[0]
            else:
                self._least = int(min(((1 << n) >> 1) * (channels + 2 * len(rows)),
                                      channels * _table_floor(rows)))
        return self._least


def _states_bytes(states: tuple, index: dict) -> int:
    """The bytes a tuple of same-register FockStates and their row index
    hold: each state, its occupations, its hash and its row number."""
    held = sys.getsizeof(states) + sys.getsizeof(index)
    if not states:
        return held
    s = states[0]
    each = (sys.getsizeof(s) + sys.getsizeof(s.occupations) + sys.getsizeof(hash(s))
            + sys.getsizeof(len(states)))
    return held + len(states) * each


class _Structures:
    """Sector records, route records and step programs, with their step
    plans, by key for every call in the process, least recently used first
    out once they hold more than _STRUCTURE_BYTES: a record larger than that
    is used and not kept.  A program's plans keep block amplitudes
    <out|block|in>, each under the block's exact bytes; no compiled
    unitary, state amplitude or sweep of it is kept."""

    def __init__(self):
        self._records: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self.held = 0  # bytes

    def clear(self):
        with self._lock:
            for record in self._records.values():
                record.kept = False
            self._records.clear()
            self.held = 0

    def get(self, key, build):
        """The record for `key`, from `build()` when it is not kept."""
        with self._lock:
            record = self._records.get(key)
            if record is None:
                record = self._records[key] = build()
                record.kept = True
                self.held += record.nbytes
                self._trim()
            else:
                self._records.move_to_end(key)
            return record

    def grew(self, record, nbytes: int):
        """Count `nbytes` more for a record that built a part."""
        with self._lock:
            record.nbytes += nbytes
            if record.kept:
                self.held += nbytes
                self._trim()

    def _trim(self):
        while self.held > _kernels._STRUCTURE_BYTES:
            _, old = self._records.popitem(last=False)
            old.kept = False
            self.held -= old.nbytes


_STRUCTURES = _Structures()


def _sector(channels: int, polarized: bool, n: int, predicate) -> _Sector:
    """The record of the outcomes of n photons over `channels` that satisfy
    `predicate`, which is lowered here, once per record; PostSelect and
    Clause are frozen, so a predicate is a key."""
    key = (channels, polarized, n, predicate)

    def build():
        lowered = None if predicate is None else _lower(predicate, channels, polarized, n)
        return _Sector(key, lowered, n, polarized, _outcomes(channels, n, lowered))
    return _STRUCTURES.get(key, build)


def _local_sector(k: int, m: int, local, tail: tuple | None = None) -> _Sector:
    """The record of the outputs of m photons over a block's k channels that
    the lowered clauses `local` allow: the whole sector's when there are none.
    `tail`, when given, is the clauses' bytes, as a step program keeps them."""
    if not len(local[1]):
        return _sector(k, False, m, None)
    key = (k, m, *(tail or (a.tobytes() for a in local)))
    return _STRUCTURES.get(key, lambda: _Sector(key, local, m, False, _outcomes(k, m, local)))
