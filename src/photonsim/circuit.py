"""Circuits: ordered component placements on a fixed mode register.

``compile`` multiplies the embedded component unitaries in placement order,
with later placements applied on the left, so the first component added acts
first on states.  On a polarized register the compiled matrix lives on
channels (2 per spatial mode); spatial components act identically on the H
and V blocks, Jones components act inside one mode's (H, V) pair, and the
polarizing beam splitter couples two modes' channel quadruple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .components import (
    JonesComponent,
    PolarizingBeamSplitter,
    SpatialComponent,
)
from .errors import InvalidSpec, OutOfRange, PolarizationMismatch, RegisterMismatch


@dataclass(frozen=True)
class PlacedComponent:
    component: object
    anchor: int


@dataclass(frozen=True)
class Circuit:
    """An immutable placement list; ``add`` and ``compose`` return new circuits."""

    modes: int
    polarized: bool = False
    placements: tuple[PlacedComponent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.modes < 1:
            raise InvalidSpec(f"circuit needs at least one mode, got {self.modes}")

    @property
    def channels(self) -> int:
        return 2 * self.modes if self.polarized else self.modes

    def add(self, anchor, component) -> "Circuit":
        """Place a component with its first mode at `anchor`.

        `anchor` may also be a contiguous ascending mode tuple, in which case
        it must match the component width.
        """
        width = component.width
        if isinstance(anchor, (tuple, list)):
            span = tuple(anchor)
            if list(span) != list(range(span[0], span[0] + len(span))):
                raise InvalidSpec(f"mode tuple {span} is not contiguous ascending")
            if len(span) != width:
                raise InvalidSpec(
                    f"mode tuple {span} does not match component width {width}"
                )
            anchor = span[0]
        anchor = int(anchor)
        if anchor < 0 or anchor + width > self.modes:
            raise OutOfRange(
                f"component of width {width} at anchor {anchor} does not fit "
                f"in {self.modes} modes"
            )
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
            self.placements + (PlacedComponent(component, anchor),),
        )

    def compose(self, other: "Circuit") -> "Circuit":
        """This circuit followed by `other` (placement lists concatenated)."""
        if self.modes != other.modes or self.polarized != other.polarized:
            raise RegisterMismatch(
                f"cannot compose circuits on different registers: "
                f"{self.modes}/{self.polarized} vs {other.modes}/{other.polarized}"
            )
        return Circuit(self.modes, self.polarized, self.placements + other.placements)

    def compile(self) -> np.ndarray:
        """Total channel unitary, first placement rightmost in the product."""
        dim = self.channels
        total = np.eye(dim, dtype=complex)
        for placed in self.placements:
            total = self._embed(placed) @ total
        return total

    def _embed(self, placed: PlacedComponent) -> np.ndarray:
        dim = self.channels
        comp, anchor = placed.component, placed.anchor
        out = np.eye(dim, dtype=complex)
        if isinstance(comp, SpatialComponent):
            block = comp.matrix()
            w = comp.width
            if not self.polarized:
                out[anchor : anchor + w, anchor : anchor + w] = block
            else:
                for p in (0, 1):
                    chans = [2 * (anchor + k) + p for k in range(w)]
                    out[np.ix_(chans, chans)] = block
        elif isinstance(comp, JonesComponent):
            ch = 2 * anchor
            out[ch : ch + 2, ch : ch + 2] = comp.jones()
        else:  # polarizing beam splitter
            ch = 2 * anchor
            out[ch : ch + 4, ch : ch + 4] = comp.channel_matrix()
        return out
