"""Post-selection predicates and the processor that applies them.

Predicate grammar (whitespace-insensitive):

    expr   := clause ('&' clause)*
    clause := '[' int (',' int)* ']' op int
    op     := '==' | '<=' | '>=' | '<' | '>'

A clause sums the photons in the listed spatial modes (H+V combined on
polarized registers) and compares against the bound.  Post-selection is
terminal: it filters the final distribution, never mid-circuit state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import EvalError, ParseError
from .fock import FockState, StateVector
from .simulate import Distribution, batch_amplitudes, sector_basis

_OPS = ("==", "<=", ">=", "<", ">")


@dataclass(frozen=True)
class Clause:
    modes: tuple[int, ...]
    op: str
    value: int

    def __str__(self) -> str:
        return f"[{','.join(str(m) for m in self.modes)}]{self.op}{self.value}"


@dataclass(frozen=True)
class PostSelect:
    clauses: tuple[Clause, ...]

    def __str__(self) -> str:
        return " & ".join(str(c) for c in self.clauses)

    def evaluate(self, state: FockState) -> bool:
        """True when every clause holds for the given outcome."""
        for clause in self.clauses:
            total = 0
            for m in clause.modes:
                if not 0 <= m < state.modes:
                    raise EvalError(
                        f"clause mode {m} outside register of {state.modes} modes"
                    )
                total += state.mode_occupation(m)
            if not _compare(total, clause.op, clause.value):
                return False
        return True

    def max_mode(self) -> int:
        return max(m for c in self.clauses for m in c.modes)


def _compare(total: int, op: str, value: int) -> bool:
    if op == "==":
        return total == value
    if op == "<=":
        return total <= value
    if op == ">=":
        return total >= value
    if op == "<":
        return total < value
    return total > value


def parse_postselect(text: str) -> PostSelect:
    """Parse a predicate; raises ParseError with the byte offset on failure."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def error(expected: str):
        skip_ws()
        got = repr(text[pos]) if pos < len(text) else "end of input"
        raise ParseError(f"expected {expected}, found {got}", pos)

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            error(repr(ch))
        pos += 1

    def integer() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            error("a number")
        return int(text[start:pos])

    def operator() -> str:
        nonlocal pos
        skip_ws()
        for op in _OPS:
            if text.startswith(op, pos):
                pos += len(op)
                return op
        error("a comparison operator")

    clauses = []
    while True:
        expect("[")
        modes = [integer()]
        while True:
            skip_ws()
            if pos < len(text) and text[pos] == ",":
                pos += 1
                modes.append(integer())
            else:
                break
        expect("]")
        op = operator()
        value = integer()
        clauses.append(Clause(tuple(modes), op, value))
        skip_ws()
        if pos < len(text) and text[pos] == "&":
            pos += 1
            continue
        break
    skip_ws()
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos]!r}", pos)
    return PostSelect(tuple(clauses))


def admissible_outcomes(channels: int, polarized: bool, n: int, expr: PostSelect):
    """Sector outcomes satisfying `expr`, generated in canonical order.

    Walks channels depth-first with per-clause partial sums, pruning branches
    that can no longer satisfy a clause, so registers whose predicate pins
    most modes stay cheap even when the full sector basis is astronomically
    large.
    """
    clause_of_channel: list[list[int]] = [[] for _ in range(channels)]
    for ci, clause in enumerate(expr.clauses):
        for m in clause.modes:
            if polarized:
                clause_of_channel[2 * m].append(ci)
                clause_of_channel[2 * m + 1].append(ci)
            else:
                clause_of_channel[m].append(ci)
    remaining = [0] * len(expr.clauses)
    for ch in range(channels):
        for ci in clause_of_channel[ch]:
            remaining[ci] += 1
    sums = [0] * len(expr.clauses)
    occ = [0] * channels
    mode_sets = [set(c.modes) for c in expr.clauses]
    disjoint = all(
        not (mode_sets[i] & mode_sets[j])
        for i in range(len(mode_sets))
        for j in range(i + 1, len(mode_sets))
    )

    def lower_req(clause: Clause) -> int:
        if clause.op in ("==", ">="):
            return clause.value
        if clause.op == ">":
            return clause.value + 1
        return 0

    req = [lower_req(c) for c in expr.clauses]

    def unmet(ci: int) -> int:
        # Photons an incomplete clause still requires.
        return max(0, req[ci] - sums[ci]) if remaining[ci] > 0 else 0

    # With disjoint clauses the total demand is a valid bound, kept as a
    # running sum updated only for the clauses a channel touches; otherwise
    # the largest single demand is.
    demand = sum(unmet(ci) for ci in range(len(req)))

    def photon_demand() -> int:
        return demand if disjoint else max(map(unmet, range(len(req))), default=0)

    def feasible(ci: int, after: int) -> bool:
        clause = expr.clauses[ci]
        s, op, v = sums[ci], clause.op, clause.value
        if remaining[ci] == 0:
            return _compare(s, op, v)
        if op in ("==", "<="):
            return s <= v
        if op == "<":
            return s < v
        if op == ">=":
            return s + after >= v
        return s + after > v  # ">"

    def walk(ch: int, left: int):
        nonlocal demand
        if ch == channels:
            if left == 0:
                yield tuple(occ)
            return
        touched = clause_of_channel[ch]
        before = demand
        for k in range(left, -1, -1):
            occ[ch] = k
            for ci in touched:
                demand -= unmet(ci)
                sums[ci] += k
                remaining[ci] -= 1
                demand += unmet(ci)
            if all(feasible(ci, left - k) for ci in touched) and photon_demand() <= left - k:
                yield from walk(ch + 1, left - k)
            for ci in touched:
                sums[ci] -= k
                remaining[ci] += 1
            demand = before
        occ[ch] = 0

    yield from walk(0, n)


@dataclass(frozen=True)
class Processor:
    """A circuit, an input state, and an optional terminal post-selection."""

    circuit: Circuit
    input_state: StateVector
    postselect: PostSelect | None = None
    min_detected_photons: int = 0

    def run(self, cap: int | None = None) -> tuple[Distribution, float]:
        """Conditioned output distribution and the success probability.

        Without a predicate the raw distribution is returned with success 1.
        With one, kept probabilities are renormalized and success is their
        raw sum.
        """
        n = self.input_state.require_sector()
        if self.input_state.channels != self.circuit.channels:
            from .errors import RegisterMismatch

            raise RegisterMismatch(
                f"input on {self.input_state.channels} channels, circuit on "
                f"{self.circuit.channels}"
            )
        if self.postselect is not None and self.postselect.max_mode() >= self.circuit.modes:
            raise EvalError(
                f"predicate references mode {self.postselect.max_mode()} but the "
                f"circuit has {self.circuit.modes} modes"
            )
        if n < self.min_detected_photons:
            return Distribution({}, n), 0.0

        u = self.circuit.compile()
        polarized = self.circuit.polarized
        if self.postselect is None:
            outcomes = sector_basis(n, self.circuit.channels)
        else:
            outcomes = admissible_outcomes(
                self.circuit.channels, polarized, n, self.postselect
            )
        targets = [FockState(occ, polarized) for occ in outcomes]
        total = np.zeros(len(targets), dtype=complex)
        for term, coeff in self.input_state.items():
            total += coeff * np.asarray(
                batch_amplitudes(u, term, targets, cap=cap), dtype=complex
            )
        kept: dict[FockState, float] = {}
        for target, amp in zip(targets, total):
            p = abs(amp) ** 2
            if p > 1e-24:
                kept[target] = p
        if self.postselect is None:
            return Distribution(kept, n), 1.0
        success = sum(kept.values())
        if success == 0.0:
            return Distribution({}, n), 0.0
        return Distribution({s: p / success for s, p in kept.items()}, n), success
