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

from .circuit import Circuit
from .errors import EvalError, RegisterMismatch
from .fock import PRUNE_TOL, FockState, StateVector
from .notation import Scanner
from .simulate import Distribution, require_normalized, sector_basis, state_amplitudes
from .simulate import batch_amplitudes  # noqa: F401  (bench/test_bench.py checks this binding)

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
    sc = Scanner(text)
    clauses = []
    while True:
        sc.expect("[")
        modes = [sc.integer()]
        while sc.accept(","):
            modes.append(sc.integer())
        sc.expect("]")
        op = next((op for op in _OPS if sc.accept(op)), None)
        if op is None:
            sc.fail("a comparison operator")
        clauses.append(Clause(tuple(modes), op, sc.integer()))
        if not sc.accept("&"):
            break
    sc.end()
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

    def amplitudes(self, cap: int | None = None) -> list[tuple[FockState, complex]]:
        """Every admissible outcome with its unconditioned amplitude.

        Outcomes come in canonical order: the whole photon-number sector
        without a predicate, the outcomes that satisfy it otherwise, and none
        when the input holds fewer than `min_detected_photons` photons.
        Raises MixedSector for an input without a fixed photon number,
        InvalidSpec for one that is not normalized, RegisterMismatch when it
        does not fit the circuit and EvalError when the predicate reads a mode
        the circuit lacks.
        """
        n = self.input_state.require_sector()
        require_normalized(self.input_state)
        if self.input_state.channels != self.circuit.channels:
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
            return []
        channels, polarized = self.circuit.channels, self.circuit.polarized
        if self.postselect is None:
            outcomes = sector_basis(n, channels)
        else:
            outcomes = admissible_outcomes(channels, polarized, n, self.postselect)
        targets = [FockState(occ, polarized) for occ in outcomes]
        amps = state_amplitudes(self.circuit.compile(), self.input_state, targets, cap=cap)
        return list(zip(targets, amps))

    def run(self, cap: int | None = None) -> tuple[Distribution, float]:
        """Conditioned output distribution and the success probability.

        Outcomes of `amplitudes` whose amplitude is below fock.PRUNE_TOL are
        dropped.  Without a predicate the raw distribution is returned with
        success 1.  With one, kept probabilities are renormalized and success
        is their raw sum.  Too few photons for `min_detected_photons` give
        an empty distribution with success 0.
        """
        amplitudes = self.amplitudes(cap)
        n = self.input_state.sector
        kept = {t: abs(a) ** 2 for t, a in amplitudes if abs(a) >= PRUNE_TOL}
        if self.postselect is None and n >= self.min_detected_photons:
            return Distribution(kept, n), 1.0
        success = sum(kept.values())
        if success == 0.0:
            return Distribution({}, n), 0.0
        return Distribution({s: p / success for s, p in kept.items()}, n), success
