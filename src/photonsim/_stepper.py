"""The stepwise route: a circuit's blocks evolved one at a time.

When a clause of the predicate closes before the last block,
`simulate.circuit_amplitudes` evolves the state's occupation rows through
the blocks here, projecting onto each clause right after the last block
that touches it (see `_stepwise`).  The route and program records and the
programs' step plans are kept in `_sectors._STRUCTURES`.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels, _sectors
from ._kernels import _ids, _row_ids, _row_keys
from ._sectors import _local_sector, _Sector
from .circuit import Blocks
from .components import require_unitary
from .fock import StateVector

# The stepper's pruning budget, relative to the state's norm (see _prune).
_PRUNE_NORM = 1e-14


def _as_blocks(blocks) -> Blocks:
    """(channels, block) pairs as a `Blocks` tuple, whose keys a `Circuit`
    keeps; other pairs get a tuple for this call."""
    return blocks if isinstance(blocks, Blocks) else Blocks(blocks)


def _route(blocks, sector: _Sector):
    """The kept route record of `blocks`, (channels, block) pairs, on the
    sector record under a predicate.  Its key is the record's with each
    block's channels: the route reads no block."""
    key = (sector.key, _as_blocks(blocks).channels)
    return _sectors._STRUCTURES.get(key, lambda: _Route(key, sector.lowered))


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
    return _sectors._STRUCTURES.get(key, lambda: _Program(route, key[1], blocks.arrays)), blocks.arrays


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
_PLAN_SHARE = _kernels._STRUCTURE_BYTES // 8


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
    with _sectors._STRUCTURES._lock:
        if program.planned + nbytes <= _PLAN_SHARE and program.plans.setdefault(key, plan) is plan:
            program.planned += nbytes
            _sectors._STRUCTURES.grew(program, nbytes)


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
