"""The seeded sampler: SplitMix64 draws counted by inverse CDF.

`SplitMix64` is the scalar stream.  `inverse_cdf_counts` computes the same
stream as arrays (`_splitmix64_doubles`) and counts where its draws land
over a list of weights; `require_shots` and `require_seed` check its shots
and seed at the boundary.
"""

from __future__ import annotations

import math
import operator
import reprlib
import threading

import numpy as np

from .components import require_integer
from .errors import InvalidSpec

# inverse_cdf_counts draws _DRAW_CHUNK shots at a time.
_DRAW_CHUNK = 1 << 16

# inverse_cdf_counts counts a chunk edge by edge, without sorting it, while
# it holds more than _DRAWS_PER_EDGE draws per edge (measured there).
_DRAWS_PER_EDGE = 3000


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
    clamped to the last positive weight's index.  The stream is
    counter-based, so `_splitmix64_doubles` computes it as arrays,
    bit-identical to the scalar generator, in chunks of _DRAW_CHUNK draws,
    in two arrays the thread keeps; memory does not grow with `shots`.

    Each chunk is counted without a search per draw, as #{d < c[i]} for
    each running sum c[i] but the last (the edges).  For non-decreasing
    sums, `bisect_right` puts d at an index <= i exactly when d < c[i], so
    the differences of those counts are the per-index counts, and the last
    index takes the rest.  Every draw is fl(fl(w 2^-53) total) for a 53-bit
    word w, so it lies in [0, top], top = fl((1 - 2^-53) total): an edge
    <= 0 has no draw below it and one past top has all of them.  A
    subnormal total is its own top, so a draw can equal it and pass the
    zero weights after the last positive one; the clamp keeps it there.
    The sums never decrease, so only the live edges between that prefix and
    suffix are counted, and with none live (a point mass) nothing is drawn.  A
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
    # No draw past the last positive weight (a subnormal total's top is it).
    hi = min(hi, len(weights) - 1 - int((weights[::-1] > 0).argmax()))
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
