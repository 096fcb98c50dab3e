"""The amplitude kernels and the rule that picks one.

The transition amplitude between occupation lists s (input) and t (output)
under a channel unitary U is

    amplitude = Per(U[t, s]) / sqrt(prod_i s_i! * prod_j t_j!)

where U[t, s] repeats column i s_i times and row j t_j times.  Two kernels
compute it for a list of targets, and `_kernel` picks one from their exact
counts, known before either runs.  SLOS (Heurtel et al., arXiv:2206.10549) builds U|s> one
input photon at a time over tables derived from the targets (`_tables`);
Glynn's formula sums 2^(n-1) column sign patterns over the targets' prefix
trie (`_plan`, `_sweep`).  `_evaluate` is the one entry: it checks the
chosen kernel's count against `_MAX_WORK` before the kernel runs.  The
scalar reference `reference.permanent` uses Ryser's.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .circuit import index_view
from .errors import TooLarge

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
    # t_j! saturates at inf past 170: the plan of n >= 171 photons still
    # states its count, which `_evaluate` refuses before the sweep runs.
    t_norm = np.where(outcomes < len(_FACTORIALS), _FACTORIALS.take(outcomes, mode="clip"), np.inf)
    return _Plan(n, perm, ladder, first[-1], tuple(ops), levels, width, len(done), target_leaf,
                 t_norm.prod(axis=1), *_glynn_count(n, per_subset), nbytes)


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
