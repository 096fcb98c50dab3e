"""Text notation for Fock states.

Unpolarized:  |0,1,0,1,0,0>
Polarized:    |1:V,0>        one V photon in mode 0, mode 1 empty
              |0,{P:H}>      {P:H} is sugar for a single H photon
              |1:H+1:V,0>    both polarizations occupied in one mode

Whitespace is ignored.  A state that mixes polarized entries with nonzero
plain-integer entries is rejected: photons must carry a polarization
everywhere or nowhere.
"""

from __future__ import annotations

from .errors import MixedRegister, ParseError
from .fock import FockState, Polarization


class Scanner:
    """Whitespace-skipping reader over a string.

    Every failure raises ParseError at the offset of the offending character.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, expected: str):
        got = self.peek()
        shown = repr(got) if got else "end of input"
        raise ParseError(f"expected {expected}, found {shown}", self.pos)

    def accept(self, token: str) -> bool:
        """Consume `token` if it comes next."""
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            return False
        self.pos += len(token)
        return True

    def expect(self, ch: str):
        if not self.accept(ch):
            self.fail(repr(ch))

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        # ASCII digits only: str.isdigit() also takes '²', which int() refuses,
        # and other scripts' digits, which int() reads as 0-9.
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.fail("a number")
        return int(self.text[start : self.pos])

    def polarization(self) -> Polarization:
        if self.accept("H"):
            return Polarization.H
        if self.accept("V"):
            return Polarization.V
        self.fail("polarization H or V")

    def end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"trailing input {self.text[self.pos]!r}", self.pos)


def _parse_entry(sc: Scanner):
    """One mode entry: returns (plain_count, {pol: count}) with one side used."""
    if sc.accept("{"):
        # {P:H} sugar for a single polarized photon
        sc.expect("P")
        sc.expect(":")
        pol = sc.polarization()
        sc.expect("}")
        return None, {pol: 1}
    count = sc.integer()
    if not sc.accept(":"):
        return count, None
    pol = sc.polarization()
    parts = {pol: count}
    while sc.accept("+"):
        more = sc.integer()
        sc.expect(":")
        pol = sc.polarization()
        parts[pol] = parts.get(pol, 0) + more
    return None, parts


def parse_state(text: str) -> FockState:
    """Parse a state string into a FockState.

    Raises ParseError (with character offset) on malformed input and
    MixedRegister when polarized and nonzero plain entries are mixed.
    """
    sc = Scanner(text)
    sc.expect("|")
    entries = []
    offsets = []
    while True:
        offsets.append(sc.pos)
        entries.append(_parse_entry(sc))
        if not sc.accept(","):
            break
    sc.expect(">")
    sc.end()

    polarized = any(parts is not None for _, parts in entries)
    if not polarized:
        return FockState(tuple(plain for plain, _ in entries), polarized=False)

    occ: list[int] = []
    for (plain, parts), off in zip(entries, offsets):
        if parts is None:
            if plain != 0:
                raise MixedRegister(
                    f"plain occupation {plain} at offset {off} in a polarized state; "
                    "photons need a polarization"
                )
            occ += [0, 0]
        else:
            occ += [parts.get(Polarization.H, 0), parts.get(Polarization.V, 0)]
    return FockState(tuple(occ), polarized=True)


def format_state(state: FockState) -> str:
    """Canonical text form; parse_state(format_state(s)) == s."""
    if not state.polarized:
        return "|" + ",".join(str(n) for n in state.occupations) + ">"
    entries = []
    for m in range(state.modes):
        n_h = state.occupations[2 * m]
        n_v = state.occupations[2 * m + 1]
        parts = []
        if n_h:
            parts.append(f"{n_h}:H")
        if n_v:
            parts.append(f"{n_v}:V")
        entries.append("+".join(parts) if parts else "0")
    return "|" + ",".join(entries) + ">"
