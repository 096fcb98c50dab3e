"""Circuits: ordered component placements on a fixed mode register.

Each placement names the modes its component acts on, in the component's
own order.  ``compile`` multiplies each component's block into the rows of
those modes' channels, in placement order, so the first component added acts
first on states.  On a polarized register the compiled matrix lives on
channels (2 per spatial mode); spatial components act identically on the H
and V channels, Jones components act inside one mode's (H, V) pair, and the
polarizing beam splitter couples two modes' channel quadruple.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .components import (
    JonesComponent,
    PolarizingBeamSplitter,
    SpatialComponent,
    require_integer,
)
from .errors import InvalidSpec, OutOfRange, PolarizationMismatch, RegisterMismatch, TooLarge

# compile_blocks refuses a unitary that would hold more bytes: 1 GiB is
# 8,192 channels of complex128.
_MATRIX_BYTES = 1 << 30


@dataclass(frozen=True)
class PlacedComponent:
    """A component and the register modes its local modes 0, 1, ... act on."""

    component: object
    modes: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    """An immutable placement list; ``add`` and ``compose`` return new circuits."""

    modes: int
    polarized: bool = False
    placements: tuple[PlacedComponent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if require_integer(self.modes, "circuit modes") < 1:
            raise InvalidSpec(f"circuit needs at least one mode, got {self.modes}")
        if type(self.polarized) is not bool:
            raise InvalidSpec(f"polarized must be True or False, got {self.polarized!r}")

    @property
    def channels(self) -> int:
        return 2 * self.modes if self.polarized else self.modes

    def add(self, anchor, component) -> "Circuit":
        """Place a component on modes `anchor .. anchor + width - 1`.

        `anchor` may also be a tuple of `width` distinct modes, which the
        component's local modes 0, 1, ... map to in order.  Anchors and
        modes are integers (numpy's too); anything else raises InvalidSpec.
        """
        width = component.width
        if isinstance(anchor, tuple):
            modes = tuple(require_integer(m, "mode") for m in anchor)
            if len(modes) != width or len(set(modes)) != width:
                raise InvalidSpec(
                    f"mode tuple {modes} is not {width} distinct modes"
                )
            if not all(0 <= m < self.modes for m in modes):
                raise OutOfRange(f"mode tuple {modes} does not fit in {self.modes} modes")
        else:
            anchor = require_integer(anchor, "anchor")
            if anchor < 0 or anchor + width > self.modes:
                raise OutOfRange(
                    f"component of width {width} at anchor {anchor} does not fit "
                    f"in {self.modes} modes"
                )
            modes = tuple(range(anchor, anchor + width))
        if isinstance(component, JonesComponent + (PolarizingBeamSplitter,)):
            if not self.polarized:
                raise PolarizationMismatch(
                    f"{type(component).__name__} requires a polarized register"
                )
        elif not isinstance(component, SpatialComponent):
            raise InvalidSpec(f"not a component: {component!r}")
        return Circuit(
            self.modes,
            self.polarized,
            self.placements + (PlacedComponent(component, modes),),
        )

    def compose(self, other: "Circuit") -> "Circuit":
        """This circuit followed by `other` (placement lists concatenated)."""
        if self.modes != other.modes or self.polarized != other.polarized:
            raise RegisterMismatch(
                f"cannot compose circuits on different registers: "
                f"{self.modes}/{self.polarized} vs {other.modes}/{other.polarized}"
            )
        return Circuit(self.modes, self.polarized, self.placements + other.placements)

    def blocks(self) -> Blocks:
        """(channels, block) for each placement, in placement order: the
        component's matrix and the tuple of register channels its rows and
        columns act on.  A spatial component on a polarized register gives
        its H block, then its V block.  A placement on no modes gives
        nothing.  The pairs are built on the first call and kept, so every
        call returns the same tuple; the blocks are read-only."""
        return self._blocks

    @functools.cached_property
    def _blocks(self) -> Blocks:
        pairs = []
        for placed in self.placements:
            comp, modes = placed.component, placed.modes
            if not modes:
                continue
            if isinstance(comp, SpatialComponent):
                block = comp.matrix()
                if not self.polarized:
                    pairs.append((tuple(modes), block))
                else:
                    pairs += [(tuple(2 * m + p for m in modes), block) for p in (0, 1)]
            elif isinstance(comp, JonesComponent):
                pairs.append(((2 * modes[0], 2 * modes[0] + 1), comp.jones()))
            else:  # polarizing beam splitter
                pairs.append((tuple(2 * m + p for m in modes for p in (0, 1)),
                              comp.channel_matrix()))
        for _, block in pairs:
            block.setflags(write=False)
        return Blocks(pairs)

    def __getstate__(self):
        # A pickle or copy holds the fields alone; blocks() rebuilds the pairs.
        state = dict(self.__dict__)
        state.pop("_blocks", None)
        return state

    def compile(self) -> np.ndarray:
        """Total channel unitary, first placement rightmost in the product;
        a new, writable array on every call."""
        return compile_blocks(self.blocks(), self.channels)


class Blocks(tuple):
    """(channels, block) pairs with the keys the stepwise route reads of
    them, each built on first use and kept with the tuple: `channels`, each
    pair's channel tuple; `arrays`, the blocks as complex arrays (a complex
    block itself); and `data`, each array's shape and exact bytes.
    `Circuit.blocks` keeps one, whose blocks are read-only, so its keys are
    built once per circuit; a tuple made for one call builds them for that
    call."""

    @functools.cached_property
    def channels(self) -> tuple:
        return tuple(tuple(chans) for chans, _ in self)

    @functools.cached_property
    def arrays(self) -> tuple:
        arrays = tuple(np.asarray(block, dtype=complex) for _, block in self)
        for (_, block), a in zip(self, arrays):
            if a is not block:  # a copy, kept with `data`: read-only like it
                a.setflags(write=False)
        return arrays

    @functools.cached_property
    def data(self) -> tuple:
        return tuple((a.shape, a.tobytes()) for a in self.arrays)


def compile_blocks(blocks, channels: int) -> np.ndarray:
    """The unitary on `channels` channels of (channels, block) pairs such
    as `Circuit.blocks` yields, the first block rightmost in the product.
    Raises TooLarge, before it allocates, when the complex matrix would
    hold more than _MATRIX_BYTES."""
    nbytes = 16 * channels * channels
    if nbytes > _MATRIX_BYTES:
        raise TooLarge(f"the {channels}-channel unitary needs {nbytes} bytes, "
                       f"more than the {_MATRIX_BYTES} allowed")
    total = np.eye(channels, dtype=complex)
    for chans, block in blocks:
        rows = index_view(chans)
        total[rows] = block @ total[rows]
    return total


def index_view(index) -> slice | np.ndarray:
    """Indices as a slice, which numpy reads as a view, not a gathered
    copy, when they step evenly upwards (consecutive, or every other
    channel for a spatial block on a polarized register) or are all one
    index (which then broadcasts); else as an array."""
    index = list(index)
    step = index[1] - index[0] if len(index) > 1 else 1
    if index and step > 0 and index == list(range(index[0], index[-1] + 1, step)):
        return slice(index[0], index[-1] + 1, step)
    if index and index.count(index[0]) == len(index):
        return slice(index[0], index[0] + 1)
    return np.array(index, dtype=np.intp)
