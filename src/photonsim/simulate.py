"""Permanent-based strong simulation and seeded sampling.

The transition amplitude between occupation lists s (input) and t (output)
under a channel unitary U is

    amplitude = Per(U[t, s]) / sqrt(prod_i s_i! * prod_j t_j!)

where U[t, s] repeats column i s_i times and row j t_j times.  Two kernels
compute it for a list of targets, and `_kernel` picks one from their exact
counts, known before either runs.  SLOS (Heurtel et al., arXiv:2206.10549) builds U|s> one
input photon at a time over tables derived from the targets (`_tables`);
Glynn's formula sums 2^(n-1) column sign patterns over the targets' prefix
trie (`_plan`, `_sweep`).  The scalar reference `permanent` uses Ryser's.
"""

from __future__ import annotations

import itertools
import math
import operator
import reprlib
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuit import Blocks, compile_blocks, index_view
from .components import UNITARY_TOL, require_integer, require_unitary
from .errors import InvalidSpec, RegisterMismatch, TooLarge
from .fock import PRUNE_TOL, FockState, StateVector, canonical_items

# The Glynn sweep runs 2^_CHUNK_BITS column subsets at a time.
_CHUNK_BITS = 13

# One op of the trie reduction writes at most _BATCH_BYTES of rows while a
# row is shorter than _VIEW_BYTES (512 nodes at 2^4 subsets, 8 at 2^10), and
# one node from 2^11 subsets on: measured, a wider window there gathers
# copies of long rows and ran 1.2-1.9x slower at n = 12-14 (see _plan).
_BATCH_BYTES = 1 << 17
_VIEW_BYTES = 1 << 15

# (-1)^|S| for each subset S of a chunk's columns, indexed as in _subset_sums.
_SIGNS = np.ones(1)
for _ in range(_CHUNK_BITS):
    _SIGNS = np.concatenate((_SIGNS, -_SIGNS))

# v! as a float for v up to 170, the largest that stays finite.
_FACTORIALS = np.array([float(math.factorial(v)) for v in range(171)])

# Either kernel refuses a count of more than _MAX_WORK vector elements:
# 26-33 s at the 1.5-1.9 ns per sweep element measured at n = 20-24 on a
# 2-core Xeon.
_MAX_WORK = 1 << 34

# The stepper's pruning budget, relative to the state's norm (see _prune).
_PRUNE_NORM = 1e-14

# inverse_cdf_counts draws _DRAW_CHUNK shots at a time.
_DRAW_CHUNK = 1 << 16

# inverse_cdf_counts counts a chunk edge by edge, without sorting it, while
# it holds more than _DRAWS_PER_EDGE draws per edge (measured there).
_DRAWS_PER_EDGE = 3000

# `_kernel` charges a Glynn sweep this many vector elements beyond its count
# for its fixed numpy calls.  Measured (2-core Xeon): on sectors of a few
# hundred elements a sweep took 32-58 us and SLOS 10-30 us; past 50,000
# elements a table entry took 3-4 ns and a sweep element 2-3 ns.  Of 27
# measured sectors this value sends all but one to the faster kernel: 10
# targets of 6 photons on 20 modes (10,480 entries against 2^5 x 83) go to
# Glynn, 0.061 ms against 0.051 ms on SLOS.  One target of 12 photons on
# 16 modes (65,520 against 2^11 x 29) goes to Glynn, which is faster there,
# 0.23 against 0.31 ms.
_SWEEP_OVERHEAD = 6_000

# The sector structure kept between calls holds at most this many bytes.
_STRUCTURE_BYTES = 32 << 20

# The outcome enumeration refuses a step whose rows would hold more bytes.
_ENUMERATION_BYTES = 1 << 30


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


def _evaluate(u: np.ndarray, terms, outcomes: np.ndarray, kernel=None) -> np.ndarray:
    """sum_k c_k <t| U |s_k> for each row t of `outcomes`, over the input
    terms (s_k, c_k); the rows and terms share one photon-number sector.
    One kernel serves every term; `kernel`, when given, is the outcomes'
    (see `_kernel`).  TooLarge comes before the kernel runs."""
    n = terms[0][0].n
    if n == 0 or not len(outcomes):  # no sweep: the vacuum goes to itself
        return np.full(len(outcomes), sum(c for _, c in terms), dtype=complex)
    if kernel is None:
        kernel = _kernel(outcomes, n)
    _require_work(kernel.work, kernel.count)
    total = np.zeros(len(outcomes), dtype=complex)
    for source, coeff in terms:
        total += coeff * kernel.amplitudes(u, source.occupations)
    return total


def _kernel(rows: np.ndarray, n: int):
    """The kernel for the n-photon targets in `rows`, one per row: the SLOS
    tables unless their count passes the Glynn plan's plus _SWEEP_OVERHEAD
    or they would not fit _STRUCTURE_BYTES, and then the plan.  The plan's
    count comes from the sorted trie, before its ops are built; the
    tables' from their levels, whose build stops once it passes that cap.

    Measured per source term (2-core Xeon, both kernels in one process):
    the Haar sector (10 modes, 5 photons: 30,020 entries against 2^4 x
    4,768) took 0.11 ms on SLOS and 0.38 ms on Glynn, and
    `two_heralded_cnots` under its four heralds (1,912 against 2^5 x 39)
    0.030 and 0.053 ms.  For one collision-free target the counts are
    close: 10 photons on 14 modes (14,322 against 2^9 x 25) go to SLOS,
    0.073 against 0.082 ms; 12 on 16 modes (65,520 against 2^11 x 29) go to
    Glynn, 0.23 against 0.31 ms, and so do 16 on 18 modes, 2.1 against
    3.5 ms, with no table build (160-210 ms).  Past about 4 million entries
    the tables leave the budget, and Glynn, which runs in fixed memory,
    serves n = 20-24.
    """
    trie = _trie(rows, n)
    return _tables(rows, n, ((1 << n) >> 1) * trie[-1]) or _plan(rows, n, trie)


def _require_work(work: int, count: str):
    """Raise TooLarge when a kernel's count of vector elements, `work`, which
    `count` spells out, exceeds _MAX_WORK."""
    if work > _MAX_WORK:
        raise TooLarge(f"{count} = {work} vector elements, more than the {_MAX_WORK} allowed")


def _slos_count(channels: int, rows: int):
    """The SLOS tables' count and its text: `channels` entries, one gathered
    product each, for each of `rows` table rows."""
    return channels * rows, f"the expansion needs {channels} x {rows}"


def _glynn_count(n: int, per_subset: int):
    """The Glynn sweep's count and its text: `per_subset` vector elements for
    each of 2^(n-1) subsets (none for n = 0)."""
    return ((1 << n) >> 1) * per_subset, f"the sweep needs 2^{n - 1} x {per_subset}"


def _whole_sector_work(channels: int, n: int):
    """The count, and its text, of the kernel `_kernel` picks for the whole
    n-photon sector over `channels` (n >= 1), from closed forms, before
    the sector is enumerated.  Every k-photon row is a level-k table row,
    C(channels + n, n) - 1 rows in all.  The plan has n factor rows per
    channel, a leaf per outcome and a node per prefix that ends in an
    occupied channel: C(n + c, c + 1) end at channel c < channels - 1,
    outcomes - 1 in all, and C(n + channels - 2, n - 1) outcomes at the
    last."""
    m, outcomes = channels, math.comb(channels + n - 1, n)
    glynn = _glynn_count(n, m * n + 2 * outcomes - 1 + math.comb(n + m - 2, n - 1))
    slos = _slos_count(m, math.comb(m + n, n) - 1)
    return slos if slos[0] <= _table_cap(glynn[0], n) else glynn


def _table_cap(glynn_work: int, n: int) -> int:
    """The most entries SLOS tables may hold: no more than the Glynn plan's
    count plus _SWEEP_OVERHEAD, and 8 bytes each within _STRUCTURE_BYTES;
    none past n = 170, where the targets' sqrt(prod_j t_j!) leave float
    range."""
    if n >= len(_FACTORIALS):
        return -1
    return min(glynn_work + _SWEEP_OVERHEAD, _STRUCTURE_BYTES // 8)


def _table_floor(rows: np.ndarray) -> float:
    """A lower bound on the SLOS table rows of a nonempty list of targets:
    every target, and every other nonempty sub-multiset of any one target,
    prod_j (t_j + 1) - 2 of them."""
    return len(rows) - 2 + np.prod(rows + 1.0, axis=1).max()


class _Tables:
    """The SLOS tables of a list of n-photon targets (see `_tables`).

    Level k holds k-photon rows, level n the targets.  `preds[k - 1]` has a
    row per level-k row and a column per channel: the index of the row with
    one photon fewer in that channel at level k - 1, or, where the channel
    is empty, that level's zero slot, its length.  `scale` holds sqrt(prod_j
    t_j!) per target.
    """

    def __init__(self, preds: list, scale: np.ndarray, channels: int):
        self.preds, self.scale = preds, scale
        self.work, self.count = _slos_count(channels, sum(map(len, preds)))
        self.nbytes = sum(p.nbytes for p in preds) + scale.nbytes

    def amplitudes(self, u: np.ndarray, occupations) -> np.ndarray:
        """<t| U |s> for each target t from the source s with these
        occupations: U|s> is prod_i (sum_j U[j, i] a_j^dag)^(s_i) |0> over
        sqrt(prod_i s_i!), built one input photon at a time.

        The creation operator a_j^dag takes |r - e_j> to sqrt(r_j) |r>, so
        the partial state's amplitudes, divided by sqrt(prod_j r_j!) as w
        is, follow w_k[r] = sum_j U[j, i] w_(k-1)[r - e_j] for the k-th
        photon, in column i, over the channels j that r occupies: one
        gather of level k - 1 and one product with column i per level, with
        no alternating signs.  Then <t| U |s> = w_n[t] sqrt(prod_j t_j!) /
        sqrt(prod_i s_i!).
        """
        cols = [i for i, v in enumerate(occupations) for _ in range(v)]
        w = np.array([1, 0], dtype=complex)  # the vacuum and the zero slot
        for pred, i in zip(self.preds, cols):
            nxt = np.zeros(len(pred) + 1, dtype=complex)
            # einsum's own loop, not BLAS: OpenBLAS runs a level of 9,216
            # entries or more on its threads, and on a loaded 2-core Xeon
            # that put a Haar `distribution` at 6 ms in its 90th
            # percentile and 32 ms in its 99th, against 1.8 and 3.8 ms.
            np.einsum("ij,j->i", w[pred], u[:, i], out=nxt[:-1])
            w = nxt
        return w[:-1] * (self.scale / math.sqrt(math.prod(map(math.factorial, occupations))))


def _tables(rows: np.ndarray, n: int, glynn_work: int) -> _Tables | None:
    """The SLOS tables of the n-photon targets in `rows`, one per row, built
    top-down: level n is the rows, and level k - 1 the distinct rows r - e_j
    over the level-k rows r and the channels j they occupy (`_row_ids`).
    Only sub-multisets of the targets are built, so a predicate that pins
    channels prunes every level.  None, before a level that would pass it
    is built, when the entries would pass `_table_cap` of the plan's count,
    `glynn_work`; first checked against `_table_floor`.
    """
    channels = rows.shape[1]
    cap = _table_cap(glynn_work, n)
    if channels * _table_floor(rows) > cap:
        return None
    preds, level, entries = [], rows, 0
    for _ in range(n):
        entries += level.size
        if entries > cap:
            return None
        src, chan = np.nonzero(level)
        lower = level[src]
        lower[np.arange(len(src)), chan] -= 1
        first, inverse = _row_ids(lower)
        pred = np.full(level.shape, len(first))
        pred[src, chan] = inverse
        preds.append(pred)
        level = lower[first]
    return _Tables(preds[::-1], np.sqrt(_FACTORIALS[rows].prod(axis=1)), channels)


@dataclass(frozen=True)
class _Plan:
    """How `_sweep` reduces each chunk of subset sums for a set of targets.

    The factor table's first rows hold the channels' column sums in `perm`
    order.  Each `ladder` entry (dst, src, count) fills rows dst.. with rows
    src.. times rows 0.., one more power of the first `count` channels.
    Each op (depth, parents, factors, rows, leaves, into) multiplies parent
    rows of the buffer above (the root's for depth 0) by factor rows into
    `rows` of the depth's buffer, then sums its `leaves` rows into `into`.
    """

    n: int
    perm: list[int]
    ladder: tuple
    factors: int
    ops: tuple
    depths: int
    width: int
    leaves: int
    target_leaf: np.ndarray
    t_norm: np.ndarray  # prod_j t_j! per target
    work: int  # vector elements: 2^(n-1) subsets x the per-subset count
    count: str
    nbytes: int

    def amplitudes(self, u: np.ndarray, occupations) -> np.ndarray:
        """<t| U |s> for each target t from the source s with these
        occupations."""
        per = _sweep(u, occupations, self)
        norm = np.sqrt(math.prod(map(math.factorial, occupations)) * self.t_norm)
        # Divide the parts by the real norm: complex / float would scale by 1/norm.
        np.divide(per.real, norm, out=per.real)
        np.divide(per.imag, norm, out=per.imag)
        return per


def _trie(outcomes: np.ndarray, n: int):
    """The targets of `_plan` in trie order: (channel order, target order,
    sorted occupations, steps up to each channel, where a step adds a trie
    node, each target's leaf, per-subset count).

    Channels are ranked by how many distinct occupations the targets take in
    them (pinned heralds first, ties by index).  A target's steps are its
    nonzero occupations t in that order.  With the targets sorted, a target
    adds a trie node for each step after the prefix it shares with the one
    before.  Per subset the plan costs one sum per channel and one product
    per power step, trie node and leaf sum.
    """
    count, channels = outcomes.shape
    taken = np.zeros((n + 1, channels), dtype=bool)  # occupations taken per channel
    taken[outcomes, np.arange(channels)] = True
    distinct = taken.sum(axis=0).tolist()
    order = sorted(range(channels), key=distinct.__getitem__)
    trie = outcomes[:, order].astype(np.min_scalar_type(n))
    # Sort the targets by their occupations in trie order, `group` channels
    # of `bits` bits packed into each key.
    bits = n.bit_length()
    group = 63 // bits
    weights = np.array([1 << (bits * (group - 1 - j)) for j in range(min(group, channels))])
    by_occ = np.lexsort([trie[:, i : i + group] @ weights[: channels - i]
                         for i in reversed(range(0, channels, group))])
    trie = trie[by_occ]
    step = trie > 0
    depth = step.cumsum(axis=1, dtype=trie.dtype)  # steps up to each channel
    differs = np.ones((count, channels), dtype=bool)  # from the target before, so far
    np.not_equal(trie[1:], trie[:-1], out=differs[1:])
    new = step & np.logical_or.accumulate(differs, axis=1)  # a trie node per new step
    lead = new.any(axis=1).cumsum() - 1  # each target's leaf; duplicates share it
    # A channel's sum and its powers up to its top occupation are factor rows.
    factors = int(np.maximum(outcomes.max(axis=0), 1).sum())
    return order, by_occ, trie, depth, new, lead, factors + int(new.sum()) + int(lead[-1]) + 1


def _plan(outcomes: np.ndarray, n: int, trie=None) -> _Plan:
    """The prefix trie of the n-photon targets in `outcomes`, one per row
    (see `_trie`, whose result `trie` is, when given).

    Each target step is a product with the t-th power of a channel's sum.
    A node's parent is the latest node one depth up and a target's last node
    is its leaf.  The targets are cut into windows of `width` leaves, and a
    window runs one op per depth.  While a node's row of subsets is shorter
    than _VIEW_BYTES, such an op costs more in numpy's call overhead than in
    arithmetic, so `width` rows fill _BATCH_BYTES.  From 2^11 subsets on,
    `width` is 1, and an op reads its parent and factor rows as slices,
    which numpy reads as views, not as gathered copies.  Each depth's buffer
    has two halves that its ops alternate between, so an op can still read
    the latest node of the window before.
    """
    order, by_occ, trie, depth, new, lead, per_subset = trie or _trie(outcomes, n)
    count, channels = outcomes.shape
    tops = outcomes.max(axis=0).tolist()
    # Factor rows rank channels by top occupation, so each power is a prefix.
    perm = sorted(range(channels), key=lambda c: -tops[c])
    rank = {c: r for r, c in enumerate(perm)}
    powers = [sum(v >= t for v in tops) for t in range(2, max(tops) + 1)]
    first = [0, *itertools.accumulate([channels, *powers], initial=0)]  # power t, rank 0
    ladder = tuple((first[t], first[t - 1], c) for t, c in enumerate(powers, 2))
    row = 16 << min(n - 1, _CHUNK_BITS)  # bytes of a node's row of subsets
    width = min(_BATCH_BYTES // row if row < _VIEW_BYTES else 1, int(lead[-1]) + 1)
    steps = depth[:, -1].tolist()
    code = [rank[c] for c in order]

    # One pass in target order gives each node a row of its depth's buffer.
    levels = max(steps)
    latest = [0] * (levels + 1)  # row of the latest node one depth up; the root first
    owner, half, used = [-1] * levels, [width] * levels, [0] * levels
    segs: dict = {}
    leaf, last = -1, -1  # the current target's leaf, in target order
    target, col = new.nonzero()
    for i, c, t, d in zip(target.tolist(), col.tolist(), trie[new].tolist(), depth[new].tolist()):
        if i != last:
            last, leaf = i, leaf + 1
        w, d = leaf // width, d - 1
        if owner[d] != w:  # the window's first node at this depth
            owner[d], half[d], used[d] = w, width - half[d], 0
            segs[w, d] = ([], [], half[d], [], [])
        parents, factors, start, rows, leaves = segs[w, d]
        latest[d + 1] = start + used[d]
        used[d] += 1
        parents.append(latest[d])
        factors.append(first[t] + code[c])
        if d == steps[i] - 1:
            rows.append(latest[d + 1])
            leaves.append(leaf)
    ops, done = [], []
    for (_, d), (parents, factors, start, rows, leaves) in sorted(segs.items()):
        ops.append((d, index_view(parents), index_view(factors), slice(start, start + len(parents)),
                    index_view(rows) if rows else None, slice(len(done), len(done) + len(rows))))
        done += leaves
    leaf_id = np.empty(len(done), dtype=np.int64)  # by target order, as `lead` counts
    leaf_id[done] = np.arange(len(done))
    target_leaf = np.empty(count, dtype=np.int64)
    target_leaf[by_occ] = leaf_id[lead]
    # About the bytes the plan holds: two 8-byte values per target, at most
    # two 8-byte row indices per unit of work, and ~500 bytes per op for its
    # tuple, slices and array headers (measured with tracemalloc).
    nbytes = 16 * (count + per_subset) + 500 * len(ops)
    return _Plan(n, perm, ladder, first[-1], tuple(ops), levels, width, len(done), target_leaf,
                 _FACTORIALS[outcomes].prod(axis=1), *_glynn_count(n, per_subset), nbytes)


def _sweep(u: np.ndarray, occupations, plan: _Plan) -> np.ndarray:
    """Glynn's sum for the source with these occupations, for each target t
    of `plan`: with the sign of the source's first column fixed at +1,

        2^-(n-1) sum_S (-1)^|S| prod_j (row j of U summed over the columns,
                                         minus twice over S)^t_j

    over the subsets S of the other n - 1 columns.  Its sums are smaller
    than Ryser's, so less cancels, and it needs half the subsets.

    The sweep runs in chunks of 2^_CHUNK_BITS subsets, so its memory does
    not grow with n.  Per chunk it adds the channels' column sums, builds
    their powers and runs the plan's ops.
    """
    rows = u[plan.perm]
    cols = [j for j, v in enumerate(occupations) for _ in range(v)]
    flips = -2 * rows  # what flipping a column's sign adds to the row sums
    k = min(plan.n - 1, _CHUNK_BITS)
    low = _subset_sums(rows[:, cols].sum(axis=1), flips, cols[1 : k + 1])
    high_cols = [flips[:, j : j + 1] for j in cols[k + 1 :]]
    table = np.empty((plan.factors, 1 << k), dtype=complex)
    # The sign (-1)^|S|: the low subset's part seeds the root and the high
    # subset's part says whether a chunk adds or subtracts.
    bufs = [_SIGNS[None, : 1 << k], *np.empty((plan.depths, 2 * plan.width, 1 << k), dtype=complex)]
    sums = np.empty(plan.leaves, dtype=complex)
    total = np.zeros(plan.leaves, dtype=complex)
    for h in range(1 << len(high_cols)):
        # The high subset's column sum, added in `_subset_sums` order.
        np.add(low, sum(c for b, c in enumerate(high_cols) if h >> b & 1), out=table[: len(rows)])
        for dst, src, c in plan.ladder:
            np.multiply(table[src : src + c], table[:c], out=table[dst : dst + c])
        for d, parents, fac, out, leaves, into in plan.ops:
            np.multiply(bufs[d][parents], table[fac], out=bufs[d + 1][out])
            if leaves is not None:
                bufs[d + 1][leaves].sum(axis=1, out=sums[into])
        (np.subtract if h.bit_count() % 2 else np.add)(total, sums, out=total)
    total *= 0.5 ** (plan.n - 1)  # a power of two, so exact
    return total[plan.target_leaf]


def _subset_sums(base: np.ndarray, steps: np.ndarray, cols: list[int]) -> np.ndarray:
    """base plus the sum of the columns `steps[:, S]`, for every subset S of
    `cols`.

    Subset S sits at the column whose bit b is set when cols[b] is in S.
    """
    sums = np.empty((len(base), 1 << len(cols)), dtype=complex)
    sums[:, 0] = base
    size = 1
    for j in cols:
        np.add(sums[:, :size], steps[:, j : j + 1], out=sums[:, size : 2 * size])
        size *= 2
    return sums


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
    first use, their FockStates, kernel and least kernel count."""

    def __init__(self, key, lowered, n: int, polarized: bool, rows: np.ndarray):
        rows.setflags(write=False)
        self.key, self.lowered, self.rows, self.n, self.polarized = key, lowered, rows, n, polarized
        self.nbytes = rows.nbytes
        self.kept = False  # whether _STRUCTURES counts it
        self._states = self._kernel = self._least = None

    def states(self) -> tuple:
        """One FockState per row."""
        if self._states is None:
            self._states = tuple(FockState._unchecked(occ, self.polarized)
                                 for occ in map(tuple, self.rows.tolist()))
            _STRUCTURES.grew(self, _states_bytes(self._states))
        return self._states

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


def _states_bytes(states: tuple) -> int:
    """The bytes a tuple of same-register FockStates holds."""
    if not states:
        return sys.getsizeof(states)
    s = states[0]
    each = sys.getsizeof(s) + sys.getsizeof(s.occupations) + sys.getsizeof(hash(s))
    return sys.getsizeof(states) + len(states) * each


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
        while self.held > _STRUCTURE_BYTES:
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


def sector_basis(n: int, channels: int):
    """All occupation tuples of n photons over `channels`, canonical order.

    Canonical order is descending lexicographic (first channel fills first):
    (n,0,...), (n-1,1,0,...), ..., (0,...,n).  InvalidSpec comes on the
    first `next()` when a count is not a nonnegative integer.
    """
    n, channels = _count(n, "photon number"), _count(channels, "channel count")
    yield from map(tuple, _sector(channels, False, n, None).rows.tolist())


def admissible_outcomes(channels: int, polarized: bool, n: int, expr):
    """Sector outcomes satisfying the predicate `expr`, in canonical order;
    every outcome of the sector when `expr` is None.  InvalidSpec comes on
    the first `next()` when a count is not a nonnegative integer."""
    n, channels = _count(n, "photon number"), _count(channels, "channel count")
    yield from map(tuple, _sector(channels, polarized, n, expr).rows.tolist())


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
                if lower and lower <= _MAX_WORK:
                    whole = sector.kernel().work
                if whole <= _MAX_WORK:
                    raise _PastLimit(spent, step)
                if spent <= _MAX_WORK:
                    return _MAX_WORK
                raise TooLarge(
                    f"the stepwise evolution reaches {spent} vector elements at block {step} "
                    f"and the global route at least {whole}, more than the {_MAX_WORK} allowed"
                )

            try:
                amps = _stepwise(*_program(route, blocks), state, sector, min(lower, _MAX_WORK), over)
                return sector.states(), amps
            except _PastLimit:
                pass
    sector, amps = _swept(compile_blocks(blocks, state.channels), state, n, predicate, sector)
    return sector.states(), amps


def _as_blocks(blocks) -> Blocks:
    """(channels, block) pairs as a `Blocks` tuple, whose keys a `Circuit`
    keeps; other pairs get a tuple for this call."""
    return blocks if isinstance(blocks, Blocks) else Blocks(blocks)


def _route(blocks, sector: _Sector):
    """The kept route record of `blocks`, (channels, block) pairs, on the
    sector record under a predicate.  Its key is the record's with each
    block's channels: the route reads no block."""
    key = (sector.key, _as_blocks(blocks).channels)
    return _STRUCTURES.get(key, lambda: _Route(key, sector.lowered))


class _Route:
    """What the channels of a list of blocks decide under a sector's
    lowered clauses, kept in `_STRUCTURES` under `key`: per clause the last
    block that touches a channel it reads (-1 for none), and whether one
    closes before the last block, which sends the blocks stepwise."""

    def __init__(self, key, lowered):
        self.key, self.lowered = key, lowered
        last = [-1] * lowered[0].shape[1]
        for step, chans in enumerate(key[1]):
            for ch in chans:
                last[ch] = step
        self.closes = np.where(lowered[0] > 0, last, -1).max(axis=1, initial=-1)
        self.closes.setflags(write=False)
        self.early = bool((self.closes < len(key[1]) - 1).any())
        self.nbytes = _kept_bytes(len(key[1]), [self.closes])
        self.kept = False  # whether _STRUCTURES counts it


def _program(route: _Route, blocks):
    """The kept step program of `blocks` on their route, and the blocks as
    complex arrays.  Its key is the route's with each block's shape and
    exact bytes, so a block that differs in any bit has its own program and
    its own unitarity check.  Only the stepwise route builds one."""
    blocks = _as_blocks(blocks)
    key = (route.key, blocks.data)
    return _STRUCTURES.get(key, lambda: _Program(route, key[1], blocks.arrays)), blocks.arrays


class _Program:
    """What no amplitude changes about evolving a sector's rows stepwise
    through a list of blocks (see `_route`; `blocks` holds their shapes and
    bytes, `mats` their complex arrays), kept in `_STRUCTURES`.  It is built
    once each distinct block has passed `require_unitary`; the blocks'
    exact bytes are in its key, so the verdict holds for every call.

    `start` is the projection before block 0 and `steps` holds one
    read-only (channels, move, expand, close) per block: the block's
    channels; for a block with one nonzero per column, the permutation of
    all channels that moves its occupations and its phases (None when all
    are 1), else None; for any other block, the lowered clauses closing
    inside it, their bytes and its pattern, a number shared by the steps
    with the same block and clauses, else None; and the clauses closing
    right after it (see `_clauses`).

    `plans` holds the step plans of expanding and monomial steps (see
    `_stepwise`) under (step, the incoming rows' shape and bytes), and under
    the step past the last, where the last rows sit among the outcomes;
    each is added by one dict insert and counted in `_STRUCTURES` when it is
    added, and `planned` counts their bytes, at most _PLAN_SHARE.  A plan's
    block factors <out|block|in> and phase factors are a function of this
    key, which holds every block's exact bytes and the clauses."""

    def __init__(self, route: _Route, blocks: tuple, mats: list):
        weights, lo, hi = route.lowered
        checked: set = set()  # (shape, bytes) of the blocks that passed
        patterns: dict = {}  # (shape, bytes, clause bytes) -> pattern
        steps = []
        for step, (chans, (shape, data), block) in enumerate(zip(route.key[1], blocks, mats)):
            if (shape, data) not in checked:
                require_unitary(block)
                checked.add((shape, data))
            chans = np.array(chans)
            closing = route.closes == step
            nonzero = block != 0
            if (nonzero.sum(axis=0) == 1).all():
                dest = nonzero.argmax(axis=0)
                phase = block[dest, np.arange(len(block))]
                perm = np.arange(weights.shape[1])
                perm[chans[dest]] = chans
                move, expand = (perm, phase if (phase != 1).any() else None), None
            else:
                inside = closing & (weights[:, chans].sum(axis=1) == weights.sum(axis=1))
                local = (weights[inside][:, chans], lo[inside], hi[inside])
                tail = tuple(a.tobytes() for a in local)
                move = None
                expand = (local, tail, patterns.setdefault((shape, data, *tail), len(patterns)))
                closing &= ~inside
            steps.append((chans, move, expand, _clauses(route.lowered, closing)))
        self.start = _clauses(route.lowered, route.closes == -1)
        self.steps = tuple(steps)
        arrays = _arrays((self.start, self.steps))
        for a in arrays:
            a.setflags(write=False)
        self.nbytes = _kept_bytes(len(blocks), arrays, [data for _, data in blocks])
        self.plans: dict = {}
        self.planned = 0  # bytes its plans hold
        self.kept = False  # whether _STRUCTURES counts it


# A kept entry (a route or program block, or a step plan) holds its arrays'
# data, its keys' bytes and about _ENTRY_BYTES of tuples, array headers,
# dict slots and bills: by sys.getsizeof over the objects each reaches, on
# the search and the truth tables of one and three Toffolis, 296-310 bytes a
# plan of where the last rows sit, 556-678 a monomial step's, 1064-1612 an
# expanding step's, 935-996 a program block and 11-34 a route block.  A
# program's plans sum 6-10% below the count, so it errs high.
_ENTRY_BYTES = 1024


def _kept_bytes(entries: int, arrays, keys=()) -> int:
    """The bytes counted for `entries` kept entries holding `arrays` and the
    bytes objects `keys`: their data exactly, and _ENTRY_BYTES each."""
    return entries * _ENTRY_BYTES + sum(a.nbytes for a in arrays) + sum(map(len, keys))


# A program's plans hold at most this many bytes, so one stepwise circuit
# run on many inputs cannot push the other kept records out of
# _STRUCTURE_BYTES; past it a step without a plan runs unplanned and keeps
# none.  The search's 33 plans hold 127 KB, and the 208 plans of a truth
# table of three Toffolis 606 KB.
_PLAN_SHARE = _STRUCTURE_BYTES // 8


def _arrays(item):
    """The numpy arrays in nested tuples and lists and in step plans."""
    if isinstance(item, np.ndarray):
        return [item]
    if isinstance(item, _StepPlan):
        return _arrays([item.rows, item.factor, item.source, item.pairs])
    if isinstance(item, (tuple, list)):
        return [a for part in item for a in _arrays(part)]
    return []


def _clauses(lowered, selected: np.ndarray):
    """The selected clauses of a lowering as (weights^T, lo, hi), which
    `_project` reads; None when none is selected."""
    if not selected.any():
        return None
    weights, lo, hi = lowered
    return weights[selected].T, lo[selected], hi[selected]


class _PastLimit(Exception):
    """The stepper's count would pass its cap; args: the count, the block."""


def _stepwise(program: _Program, mats, state: StateVector, sector: _Sector, cap: int,
              over=None) -> np.ndarray:
    """The global route's amplitudes on `sector`'s outcomes (the state's
    under a predicate), evolved through the blocks of `program`, whose
    complex arrays are `mats` (see `_program`), one block at a time; one
    complex array over the record's rows, in canonical order, with 0 for an
    outcome no row reached.

    The state travels as occupation rows and amplitudes; a superposition
    starts as its terms.  No block after a clause's last touch changes the
    occupations the clause reads, so projecting onto the clause right after
    that block keeps exactly what the terminal post-selection keeps, and the
    state stays small.  A block with one nonzero per column moves
    occupations and multiplies phase powers.  Any other block expands each
    row over the outputs of its local photons that satisfy the clauses
    closing inside it, with amplitudes from the kernel that `_kernel` picks
    for its outputs: one kernel per (block, local photon number, closing
    clauses) and one run per distinct local input.  Equal rows are then
    summed.  Right before such a block, `_prune` drops the smallest rows
    whose summed |amp|^2 stays within _PRUNE_NORM^2 x the state's; every
    later step is unitary or a projection, so each returned amplitude moves
    by at most that dropped norm.

    Every block must be unitary within UNITARY_TOL; the program checked
    each distinct block once, when it was built.  Work is counted in vector
    elements before it is done: a row costs 1 at a monomial block and, at
    any other, the C(m + k - 1, m) outputs of its m photons on the block's
    k channels; a run costs its kernel's count.  When the count would pass
    `cap`, `over(count, block)` gives the new cap, or without `over`
    _PastLimit is raised.

    Everything that depends on the blocks and clauses alone is the kept
    program's: each step's move or local clauses, and the clauses closing
    after it.  The outcome rows and their FockStates are the record's; each
    block's local outputs and kernel are kept per (block size, local
    photons, closing clauses).  What a step derives from its incoming rows
    is the program's too, as a `_StepPlan` under (step, the rows' bytes:
    every row has the program's channels), and so is where the last rows
    sit among the outcomes.  A monomial step's plan holds its moved rows
    and their phase factors, so a replay is one multiply at most, the one
    the unplanned step makes.  An
    expanding step's plan multiplies each source amplitude by its factor
    and sums the products with one `np.bincount` (see `_sum`): the same
    products in the same order as the unplanned step, summed the same way,
    so every amplitude is bit-identical.  An expanding step without a plan,
    or whose product comes out exactly zero (the unplanned step drops its
    row), runs unplanned and stores its plan unless it met such a product;
    no step stores one once the program's plans are full (`_keep`).  Plans
    pay only when a later call meets the same program and incoming rows, as
    a repeated search with the same input does; any other call builds and
    stores them at its own cost.  The count does not depend on what was
    kept: a monomial step charges its rows and an expanding plan its bills,
    as the unplanned step does (see `_charge`).
    """
    spent = 0

    def charge(work: int):
        nonlocal spent, cap
        spent += work
        if spent > cap:
            if over is None:
                raise _PastLimit(spent, step)
            cap = over(spent, step)

    terms = state.items()
    rows = np.array([s.occupations for s, _ in terms], dtype=np.int64)
    amps = np.array([a for _, a in terms], dtype=complex)
    if program.start is not None:
        rows, amps = _project(rows, amps, *program.start)
    planned: set = set()  # (pattern, local photons) whose kernel this call charged
    seen: set = set()  # (pattern, local input) whose run this call charged
    sweeps: dict = {}  # (pattern, local input) -> amplitudes over the outputs, run in this call
    for step, (chans, move, expand, close) in enumerate(program.steps):
        if move is None:
            keep = _prune(amps)
            if keep is not None:
                rows, amps = rows.take(keep, axis=0), amps.take(keep)
        if not len(rows):
            break
        key = (step, rows.tobytes())
        plan = program.plans.get(key)
        if move is not None:
            charge(len(rows))
            if plan is None:
                perm, phase = move
                plan = _StepPlan(rows[:, perm], None if phase is None
                                 else np.prod(phase ** rows[:, chans], axis=1))
                _keep(program, key, plan)
            if plan.factor is not None:
                amps = amps * plan.factor
        else:
            products = None if plan is None else amps.take(plan.source) * plan.factor
            if products is not None and np.count_nonzero(products) == len(products):
                for bill in plan.bills:
                    _charge(*bill, planned, seen, charge)
            else:
                parts, bills = _local_parts(rows[:, chans], mats[step], *expand, planned, seen, sweeps,
                                            charge)
                arrays, products, exact = _expand(rows, amps, chans, parts)
                unplanned = _StepPlan(*arrays, bills)
                if exact and plan is None:
                    _keep(program, key, unplanned)
                plan = unplanned
            amps = _sum(plan.pairs, products, len(plan.rows))
        rows = plan.rows
        if close is not None:
            rows, amps = _project(rows, amps, *close)
    result = np.zeros(len(sector.rows), dtype=complex)
    if len(rows):
        key = (len(program.steps), rows.tobytes())
        at = program.plans.get(key)
        if at is None:
            # The outcomes are distinct and come first, so a row's first
            # copy is its place among them; every row satisfies every
            # clause, so none lies past it (that would raise IndexError).
            first, inverse = _row_ids(np.concatenate([sector.rows, rows]))
            at = first[inverse[len(sector.rows):]]
            _keep(program, key, at)
        result[at] = amps
    return result


class _StepPlan:
    """What a step of `_stepwise` derives from its incoming rows and its
    block alone: the outgoing `rows` and a `factor` per product.  A
    monomial step's products are its rows, and their factors the phase
    factors (None when every phase is 1).  An expanding step's products
    come in the order `_expand` makes them, each with its `source` row,
    its block factor <output| block |input> and its outgoing row's `pairs`
    index (see `_sum`); its `bills` are one per part (see `_charge`)."""

    __slots__ = ("rows", "factor", "source", "pairs", "bills")

    def __init__(self, rows, factor, source=None, pairs=None, bills=()):
        self.rows, self.factor, self.source, self.pairs, self.bills = rows, factor, source, pairs, bills


def _keep(program: _Program, key, plan):
    """Keep a plan in the program under `key`, (step, rows' bytes), unless
    another thread kept one first, so one dict insert publishes it, or the
    program's plans would pass _PLAN_SHARE.  Its arrays become read-only,
    and it is counted by `_kept_bytes`."""
    arrays = _arrays(plan)
    for a in arrays:
        a.setflags(write=False)
    nbytes = _kept_bytes(1, arrays, key[1:])
    with _STRUCTURES._lock:
        if program.planned + nbytes <= _PLAN_SHARE and program.plans.setdefault(key, plan) is plan:
            program.planned += nbytes
            _STRUCTURES.grew(program, nbytes)


def _prune(amps):
    """The indices, ascending, of the rows to keep: all but the smallest
    rows whose summed |amp|^2 stays within _PRUNE_NORM^2 x the rows' total;
    None when that drops none.  The cut adds the weights smallest first and
    stops before the first sum past that budget.  A weight above the budget
    passes it alone, so the cut drops exactly the weights at most the
    budget when those, added in the same order, sum within it; only
    otherwise, or with a non-finite total, are all the weights sorted."""
    square = np.square(amps.view(float))
    weight = square[::2] + square[1::2]  # amps.real**2 + amps.imag**2
    budget = _PRUNE_NORM**2 * np.add.reduce(weight)
    if math.isfinite(budget):
        small = [w for w in weight.tolist() if w <= budget]
        if not small:
            return None
        spent = 0.0
        for w in sorted(small):  # one rounded add at a time, as np.cumsum adds
            spent += w
        if spent <= budget:
            return (weight > budget).nonzero()[0]
    order = np.argsort(weight, kind="stable")
    dropped = np.searchsorted(np.cumsum(weight[order]), budget, side="right")
    return np.sort(order[dropped:]) if dropped else None


def _project(rows, amps, weights_t, lo, hi):
    """The rows, with their amplitudes, whose weighted sum under each clause
    (a column of `weights_t`) lies in its [lo, hi]."""
    sums = rows @ weights_t
    keep = ((sums >= lo) & (sums <= hi)).all(axis=1)
    return rows[keep], amps[keep]


def _local_parts(occ, block, local, tail, pattern, planned, seen, sweeps, charge):
    """Per local photon number m, ascending: the rows with m photons in the
    block's channels (`occ` holds those occupations), the local outputs
    that the lowered clauses `local` (weights on the block's channels, lows,
    highs; `tail` their bytes) allow, in canonical order, and each row's
    amplitudes <output| block |input> over them; and the parts' bills, each
    charged before its part is built (see `_charge`) and holding its keys,
    built once, so a replay builds no tuple.  The outputs and their kernel
    come from the kept `_local_sector`; `sweeps` holds the amplitudes this
    call ran per (pattern, input), where `pattern` names the block and the
    clauses."""
    first, inverse = _row_ids(occ)
    inputs = occ[first]
    counts = inputs.sum(axis=1)
    row_counts = counts[inverse]
    rank = np.empty(len(first), dtype=np.int64)  # of each input among those with its m
    parts, bills = [], []
    for m in sorted(set(counts.tolist())):
        ids = np.flatnonzero(counts == m)
        rank[ids] = np.arange(len(ids))
        sel = np.flatnonzero(row_counts == m)
        record = _local_sector(len(block), m, local, tail)
        group = tuple((pattern, occupations) for occupations in map(tuple, inputs[ids].tolist()))
        bill = (len(sel) * math.comb(m + len(block) - 1, m), (pattern, m), record.least(), group)
        bills.append((*bill, _charge(*bill, record, planned, seen, charge)))
        kernel, outs = record.kernel(), record.rows
        for run in group:
            if run not in sweeps:
                sweeps[run] = (np.ones(len(outs), dtype=complex) if kernel is None
                               else kernel.amplitudes(block, run[1]))
        table = np.array([sweeps[run] for run in group]).reshape(len(group), len(outs))
        parts.append((sel, outs, table[rank[inverse[sel]]]))
    return parts, tuple(bills)


def _charge(rows_work, kernel_key, least, runs, work, planned, seen, charge) -> int:
    """Charge one part of an expanding step, by its bill, in the order that
    fixes where the count passes a cap: its rows times the C(m + k - 1, m)
    outputs of m photons on the block's k channels (`rows_work`); the
    least count of its local kernel (`least`, see `_Sector.least`) the first
    time the call meets its (pattern, m) `kernel_key`, kept in `planned`;
    then the kernel's count for each of its (pattern, local input) `runs`
    new to the call, kept in `seen`, less what `least` paid.  `work` is that
    count (0 without a kernel), or the local sector record, whose kernel is
    then read, after `least` is charged.  Returns the count."""
    charge(rows_work)
    paid = 0
    if kernel_key not in planned:
        planned.add(kernel_key)
        paid = least
        charge(paid)
    if isinstance(work, _Sector):
        kernel = work.kernel()
        work = 0 if kernel is None else kernel.work
    new = [run for run in runs if run not in seen]
    if new:  # else every input was met, so (pattern, m) was too and paid is 0
        seen.update(new)
        charge(len(new) * work - paid)
    return work


def _expand(rows, amps, chans, parts):
    """Each row of a part becomes one row per local output, with the
    block's amplitude as its factor and the row's amplitude times that as
    its product; products of a zero factor are dropped and equal rows
    merged.  Returns (the outgoing rows, each product's factor, source row
    and outgoing row as `_sum` pairs it), the products, and whether every
    product is nonzero.
    When one is not, it is dropped too, so the arrays hold for these
    amplitudes only and are no plan.

    Two new rows are equal when their occupations outside the block and
    their local outputs are, so they are keyed by the outer rows' key times
    the number of outputs plus the output, one `_ids` pass, and only the
    distinct ones are built.
    """
    outer = rows.copy()
    outer[:, chans] = 0
    outer, bound = _row_keys(outer)
    pieces, offset = [], 0
    for sel, o, table in parts:
        pieces.append((o, np.repeat(sel, len(o)), np.arange(len(sel) * len(o)) % len(o) + offset,
                       table.ravel()))
        offset += len(o)
    outs, source, output, factor = map(np.concatenate, zip(*pieces))
    live = factor != 0
    source, output, factor = source[live], output[live], factor[live]
    products = amps[source] * factor
    exact = bool(products.all())
    if not exact:
        live = products != 0
        source, output, factor, products = source[live], output[live], factor[live], products[live]
    if bound * len(outs) >= 1 << 63:  # the packed keys would overflow: number them
        outer = _ids(outer)[1]
    first, inverse = _ids(outer[source] * len(outs) + output)
    new = rows[source[first]]
    new[:, chans] = outs[output[first]]
    pairs = np.repeat(2 * inverse, 2)
    pairs[1::2] += 1
    return (new, factor, source, pairs), products, exact


def _sum(pairs, products, count: int) -> np.ndarray:
    """The complex products summed into `count` rows.  `pairs` holds each
    product's row number r as 2r, 2r + 1, interleaved as the products' real
    and imaginary parts lie in memory, so one `np.bincount` over those parts
    adds each row's real and imaginary parts in product order, as one
    bincount per part does."""
    return np.bincount(pairs, products.view(float), 2 * count).view(complex)


def _ids(keys: np.ndarray):
    """(first, inverse) as np.unique gives them over a 1-d array: the index
    of each distinct key's first copy, in key order, and each key's
    distinct-key number; from one stable argsort, a neighbour compare and a
    cumsum."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return order[new], inverse


def _row_ids(rows: np.ndarray):
    """(first, inverse) as from np.unique over the rows of a nonempty integer
    array: the index of each distinct row's first copy, and each row's
    distinct-row number (see `_row_keys` and `_ids`)."""
    return _ids(_row_keys(rows)[0])


def _row_keys(rows: np.ndarray):
    """One int64 key per row of a nonempty integer array, equal exactly for
    equal rows, and a bound that every key lies below.

    The rows are packed into exact mixed-radix keys, per column a radix of
    max - min + 1 over the rows, which sort much faster than rows.  When the
    radix product reaches 2^63, the keys are np.unique's distinct-row
    numbers instead.
    """
    low = rows.min(axis=0)
    places = list(itertools.accumulate((rows.max(axis=0) - low + 1).tolist(), operator.mul,
                                       initial=1))
    if places[-1] >= 1 << 63:
        _, inverse = np.unique(rows, axis=0, return_inverse=True)
        return inverse.reshape(-1), len(rows)
    return (rows - low) @ np.array(places[:-1], dtype=np.int64), places[-1]


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
    abs(amp) ** 2: math.pow(|amp|, 2.0) is the C pow that `** 2` calls, where
    |amp| * |amp| and np.power differ from it in the last bit for about 0.1%
    of values."""
    states, _, mags = _kept(states, np.asarray(amps, dtype=complex))
    return states, list(map(math.pow, mags.tolist(), itertools.repeat(2.0)))


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix increment-and-scramble).

    The scalar reference for the seeded streams: draw k (from 1) is
    mix(seed + k * gamma mod 2^64), so it depends on k alone.
    `inverse_cdf_counts` computes the same stream as arrays; tests pin both.
    """

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = require_seed(seed) & self._MASK

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
        return canonical_items(self.counts.items())


def _splitmix64_doubles(seed: int, first: int, stop: int, scale: float = 1.0) -> np.ndarray:
    """Draws first..stop-1 (counted from 1) of `SplitMix64(seed).next_double()`,
    each times `scale` and bit-identical to `next_double() * scale`, in this
    thread's kept arrays (see `_draw_arrays`): the next call overwrites them.

    SplitMix64 is counter-based: state k is seed + k x gamma, so the states
    are one uint64 array, mixed in place.  Array-only uint64 arithmetic wraps
    mod 2^64 like the scalar masks; numpy scalar arithmetic would warn on the
    overflow instead.
    """
    first, count = operator.index(first), operator.index(stop) - operator.index(first)
    z, doubles = _draw_arrays(count)
    # Rows of _STATE_ROW consecutive states: each row's first state plus
    # the row's steps, one broadcast add.
    rows = z.reshape(-1, _STATE_ROW)[: -(-count // _STATE_ROW)]
    row_steps = np.arange(len(rows), dtype=np.uint64) * np.uint64(_STATE_ROW * SplitMix64._GAMMA
                                                                  & SplitMix64._MASK)
    # A Python int wraps in `& _MASK` where a numpy integer seed would overflow.
    row_steps += np.uint64((operator.index(seed) + first * SplitMix64._GAMMA) & SplitMix64._MASK)
    np.add(row_steps[:, None], _STATE_STEPS, out=rows)
    z, doubles = z[:count], doubles[:count]
    shifted = doubles.view(np.uint64)  # the doubles' bytes hold the shifts first
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(factor)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    z >>= np.uint64(11)
    # The words are below 2^53, so they convert exactly as int64, which
    # numpy converts faster than uint64.
    doubles[...] = z.view(np.int64)
    doubles *= 2.0**-53
    doubles *= scale
    return doubles


# k x gamma mod 2^64 for k < _STATE_ROW: the steps within a row of states.
# numpy's broadcast add pays one inner-loop call per row: a 2^16-draw
# chunk's states took 48-53 us in rows of 256 and 17-18 us in rows of 4096,
# the cost of one flat add (2-core Xeon).
_STATE_ROW = 4096
_STATE_STEPS = np.arange(_STATE_ROW, dtype=np.uint64) * np.uint64(SplitMix64._GAMMA)

_DRAWS = threading.local()


def _draw_arrays(count: int):
    """This thread's kept (states, doubles) arrays, at least `count` long and
    a whole number of state rows; they grow to the longest chunk drawn.

    A chunk's arrays are 512 KB, which malloc serves by mmap, with a page
    fault per 4 KB, unless its heap has grown past them.  With new arrays
    for each chunk, five of them, a fresh process drew 2x slower than one
    that had freed a larger array first, so the sampler's speed followed
    the calls before it.  Kept, the two arrays cost 1 MB per thread that
    samples and no allocation after the first call.
    """
    size = -(-count // _STATE_ROW) * _STATE_ROW
    arrays = getattr(_DRAWS, "arrays", None)
    if arrays is None or len(arrays[0]) < size:
        arrays = _DRAWS.arrays = (np.empty(size, np.uint64), np.empty(size))
    return arrays


def require_shots(shots: int) -> int:
    """`shots` as a Python int; ValueError unless it is an integer from 0 to
    2^63 - 1, the most that the sampler's int64 counts hold."""
    shots = require_integer(shots, "shots", ValueError)
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots >= 1 << 63:
        raise ValueError(f"shots must be at most 2^63 - 1, got {shots}")
    return shots


def require_seed(seed: int) -> int:
    """`seed` as a Python int; ValueError unless it is an integer.  Any
    integer wraps mod 2^64."""
    return require_integer(seed, "seed", ValueError)


def inverse_cdf_counts(weights, shots: int, seed: int) -> list[int]:
    """Counts per index of `shots` inverse-CDF draws over `weights`.

    Draw k is the k-th `SplitMix64(seed).next_double()` scaled by the
    weights' total; its index is `bisect_right` of it in the running sums,
    clamped to the last index.  The stream is counter-based, so
    `_splitmix64_doubles` computes it as arrays, bit-identical to the
    scalar generator, in chunks of _DRAW_CHUNK draws, in two arrays the
    thread keeps; memory does not grow with `shots`.

    Each chunk is counted without a search per draw, as #{d < c[i]} for
    each running sum c[i] but the last (the edges).  For non-decreasing
    sums, `bisect_right` puts d at an index <= i exactly when d < c[i], so
    the differences of those counts are the per-index counts, and the last
    index takes the rest.  Every draw is fl(fl(w 2^-53) total) for a 53-bit
    word w, so it lies in [0, top], top = fl((1 - 2^-53) total): an edge
    <= 0 has no draw below it and one past top has all of them.  The sums
    never decrease, so only the live edges between that prefix and suffix
    are counted, and with none live (a point mass) nothing is drawn.  A
    chunk of more than _DRAWS_PER_EDGE = 3,000 draws per live edge takes
    one `count_nonzero(draws < c[i])` pass per edge;
    any other is sorted once and each c[i] located by `searchsorted`.  Both
    make the same comparisons d < c[i], so the counts match draw-by-draw
    bisection whichever runs.  The crossover is measured (2-core Xeon): a
    pass over 2^16 draws took 14-18 us and their sort 330-500 us; the
    passes won at 3,100 draws per edge and lost at 2,100 there, and won at
    2,300 and 1,140 draws per edge on chunks of 34,464 and 8,000 draws.  So
    1e5 shots over 4 labels are counted, and over 2,002 outcomes sorted.

    Raises ValueError for shots or a seed that is not an integer (bools
    included) or shots outside 0..2^63 - 1, and InvalidSpec for weights
    that are not a 1-D sequence of integers or floats, a weight that is
    NaN, infinite or negative, or weights whose total overflows.  Empty weights
    give no counts; all-zero weights put every draw on the last index.
    """
    shots, seed = require_shots(shots), require_seed(seed)
    try:
        array = np.asarray(weights)
    except ValueError:  # a ragged nesting
        array = None
    if array is None or array.ndim != 1 or array.dtype.kind not in "iuf":
        raise InvalidSpec("sampling weights must be a 1-D sequence of real numbers, "
                          f"got {reprlib.repr(weights)}")
    weights = array.astype(float, copy=False)
    if not weights.size:
        return []
    # add.accumulate sums in order, as itertools.accumulate does; an
    # overflow or inf - inf is reported below rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        cumulative = np.add.accumulate(weights)
    total, edges = cumulative[-1], cumulative[:-1]
    if not ((weights >= 0).all() and math.isfinite(total)):
        bad = np.flatnonzero(~(weights >= 0) | ~np.isfinite(weights))
        if bad.size:
            where = f"weight {bad[0]} is {float(weights[bad[0]])!r}"
        else:
            where = f"their total is {float(total)!r}"
        raise InvalidSpec(f"sampling weights must be finite and >= 0; {where}")
    # Every draw lies in [0, top]: edges[:lo] are <= 0 and edges[hi:] > top.
    lo, hi = edges.searchsorted((0.0, (1.0 - 2.0**-53) * total), side="right").tolist()
    live = edges[lo:hi]
    # below[i]: draws at indices < i, so the counts are its differences.
    below = np.zeros(len(weights) + 1, dtype=np.int64)
    below[hi + 1:] = shots
    for first in range(1, shots + 1, _DRAW_CHUNK) if hi > lo else ():
        draws = _splitmix64_doubles(seed, first, min(first + _DRAW_CHUNK, shots + 1), total)
        if len(live) * _DRAWS_PER_EDGE < len(draws):
            for i, c in enumerate(live.tolist(), lo + 1):
                below[i] += np.count_nonzero(draws < c)
        else:
            draws.sort()
            below[lo + 1:hi + 1] += np.searchsorted(draws, live)
    return (below[1:] - below[:-1]).tolist()


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
