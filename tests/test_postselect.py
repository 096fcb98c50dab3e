import math
import random

import pytest

from photonsim.circuit import Circuit
from photonsim.components import BeamSplitter
from photonsim import simulate
from photonsim.errors import EvalError, InvalidSpec, ParseError, RegisterMismatch, TooLarge
from photonsim.fock import StateVector, make_state
from photonsim.postselect import (
    Clause,
    PostSelect,
    Processor,
    admissible_outcomes,
    parse_postselect,
)
from photonsim.simulate import sector_basis


def test_parse_single_clause():
    p = parse_postselect("[0,1]==1")
    assert p.clauses == (Clause((0, 1), "==", 1),)


def test_parse_conjunction_and_whitespace():
    p = parse_postselect("  [ 0 , 1 ] == 1 &  [4] >= 2 ")
    assert p.clauses == (Clause((0, 1), "==", 1), Clause((4,), ">=", 2))


def test_all_operators_parse():
    for op in ("==", "<=", ">=", "<", ">"):
        p = parse_postselect(f"[2]{op}3")
        assert p.clauses[0].op == op


def test_printer_round_trip():
    text = "[0,1]==1 & [2]<=0 & [3,4,5]>1"
    p = parse_postselect(text)
    assert str(p) == text
    assert parse_postselect(str(p)) == p


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_postselect("[0,1==1")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_postselect("[0]=1")
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_postselect("[]==1")
    assert err.value.offset == 1
    with pytest.raises(ParseError) as err:
        parse_postselect("[0]==1 extra")
    assert err.value.offset == 7
    with pytest.raises(ParseError) as err:
        parse_postselect("[0]==")
    assert err.value.offset == 5


def test_evaluate_sums_listed_modes():
    p = parse_postselect("[0,2]==2")
    assert p.evaluate(make_state((1, 0, 1)))
    assert not p.evaluate(make_state((1, 1, 0)))


def test_evaluate_polarized_sums_both_channels():
    p = parse_postselect("[0]==2")
    assert p.evaluate(make_state((1, 1, 0, 0), polarized=True))
    assert not p.evaluate(make_state((1, 0, 1, 0), polarized=True))


def test_evaluate_out_of_range_mode():
    p = parse_postselect("[5]==0")
    with pytest.raises(EvalError):
        p.evaluate(make_state((1, 0)))


def brute(channels, polarized, n, expr):
    out = []
    for occ in sector_basis(n, channels):
        if expr.evaluate(make_state(occ, polarized)):
            out.append(occ)
    return out


def test_admissible_outcomes_match_filtered_basis():
    cases = [
        (4, False, 3, "[0]==1 & [1,2]<=1"),
        (4, False, 3, "[0,1]>=2"),
        (5, False, 2, "[2]>0"),
        (5, False, 4, "[0]==0 & [1]==0 & [2]<2"),
        (6, False, 3, "[0,1]==1 & [2,3]==1 & [4]==0 & [5]==0"),
    ]
    for channels, polarized, n, text in cases:
        expr = parse_postselect(text)
        got = list(admissible_outcomes(channels, polarized, n, expr))
        assert got == brute(channels, polarized, n, expr)


def test_admissible_outcomes_polarized():
    expr = parse_postselect("[0]>=1 & [1]<=1")
    got = list(admissible_outcomes(4, True, 2, expr))
    assert got == brute(4, True, 2, expr)


def test_admissible_outcomes_shared_mode_clauses():
    # overlapping clause supports exercise the non-disjoint demand bound
    expr = parse_postselect("[0,1]>=2 & [1,2]>=2")
    got = list(admissible_outcomes(4, False, 3, expr))
    assert got == brute(4, False, 3, expr)


def test_admissible_outcomes_repeated_mode():
    # A mode listed twice counts twice, so one photon there meets [1,1]==2.
    expr = parse_postselect("[1,1]==2 & [0]==0")
    assert list(admissible_outcomes(3, False, 1, expr)) == [(0, 1, 0)]
    assert list(admissible_outcomes(3, False, 1, expr)) == brute(3, False, 1, expr)


def test_admissible_outcomes_random_predicates():
    # Overlapping, repeated-mode, polarized and unsatisfiable clauses alike.
    rng = random.Random(20)
    for _ in range(150):
        modes = rng.randint(1, 4)
        polarized = rng.random() < 0.3
        n = rng.randint(0, 4)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            picked = tuple(rng.choice(range(modes)) for _ in range(rng.randint(1, modes)))
            clauses.append(Clause(picked, rng.choice(["==", "<=", ">=", "<", ">"]),
                                  rng.randint(0, n + 1)))
        expr = PostSelect(tuple(clauses))
        channels = 2 * modes if polarized else modes
        got = list(admissible_outcomes(channels, polarized, n, expr))
        assert got == brute(channels, polarized, n, expr), str(expr)


def test_clause_bounds():
    bounds = {op: Clause((0,), op, 2).bounds for op in ("==", "<=", "<", ">=", ">")}
    assert bounds == {"==": (2, 2), "<=": (0, 2), "<": (0, 1), ">=": (2, math.inf),
                      ">": (3, math.inf)}
    assert not parse_postselect("[0]<0").evaluate(make_state((0, 1)))


def test_processor_without_predicate():
    circuit = Circuit(2).add(0, BeamSplitter.h())
    dist, success = Processor(circuit, StateVector.basis(make_state((1, 0)))).run()
    assert success == 1.0
    assert abs(dist.entries[make_state((1, 0))] - 0.5) < 1e-9
    assert abs(dist.entries[make_state((0, 1))] - 0.5) < 1e-9


def test_processor_renormalizes_kept_outcomes():
    circuit = Circuit(2).add(0, BeamSplitter.h())
    proc = Processor(
        circuit, StateVector.basis(make_state((1, 1))), parse_postselect("[0]==2")
    )
    dist, success = proc.run()
    assert abs(success - 0.5) < 1e-9
    assert abs(dist.entries[make_state((2, 0))] - 1.0) < 1e-9


def test_processor_zero_success():
    # two photons never exit one per arm of a balanced splitter
    circuit = Circuit(2).add(0, BeamSplitter.h())
    proc = Processor(
        circuit, StateVector.basis(make_state((1, 1))), parse_postselect("[0]==1 & [1]==1")
    )
    dist, success = proc.run()
    assert success == 0.0
    assert dist.entries == {}


def test_processor_clause_order_does_not_matter():
    circuit = Circuit(3).add(0, BeamSplitter.h()).add(1, BeamSplitter.rx(0.7))
    state = StateVector.basis(make_state((1, 1, 0)))
    a = Processor(circuit, state, parse_postselect("[0]==1 & [2]==0")).run()
    b = Processor(circuit, state, parse_postselect("[2]==0 & [0]==1")).run()
    assert abs(a[1] - b[1]) < 1e-12
    assert a[0].entries.keys() == b[0].entries.keys()


def test_processor_min_detected_photons():
    circuit = Circuit(2).add(0, BeamSplitter.h())
    proc = Processor(
        circuit, StateVector.basis(make_state((1, 0))), min_detected_photons=2
    )
    dist, success = proc.run()
    assert success == 0.0
    assert dist.entries == {}


def test_processor_register_mismatch():
    circuit = Circuit(3)
    with pytest.raises(RegisterMismatch):
        Processor(circuit, StateVector.basis(make_state((1, 0)))).run()


def test_processor_predicate_out_of_range():
    circuit = Circuit(2)
    proc = Processor(
        circuit, StateVector.basis(make_state((1, 0))), parse_postselect("[7]==0")
    )
    with pytest.raises(EvalError):
        proc.run()


def test_processor_rejects_unnormalized_state():
    both = StateVector.basis(make_state((1, 0))) + StateVector.basis(make_state((0, 1)))
    proc = Processor(Circuit(2), both)
    with pytest.raises(InvalidSpec):
        proc.amplitudes()
    with pytest.raises(InvalidSpec):
        proc.run()


def test_processor_amplitudes_underlie_run():
    circuit = Circuit(3).add(0, BeamSplitter.h()).add(1, BeamSplitter.rx(0.7))
    state = StateVector.basis(make_state((1, 1, 0)))
    expr = parse_postselect("[2]<=1")
    proc = Processor(circuit, state, expr)
    outcomes = proc.amplitudes()
    want = [s for s in sector_basis(2, 3) if expr.evaluate(make_state(s))]
    assert [t.occupations for t, _ in outcomes] == want
    assert all(type(a) is complex for _, a in outcomes)
    dist, success = proc.run()
    assert success == pytest.approx(sum(abs(a) ** 2 for _, a in outcomes))
    for target, amp in outcomes:
        assert dist.probability(target) == pytest.approx(abs(amp) ** 2 / success)
    assert Processor(circuit, state, min_detected_photons=3).amplitudes() == []


def test_success_probability_conserves_mass():
    # kept plus discarded raw mass is the full distribution
    circuit = Circuit(2).add(0, BeamSplitter.rx(1.2))
    state = StateVector.basis(make_state((2, 0)))
    expr = parse_postselect("[0]>=1")
    _, success = Processor(circuit, state, expr).run()
    raw, _ = Processor(circuit, state).run()
    kept = sum(p for s, p in raw.entries.items() if expr.evaluate(s))
    assert abs(success - kept) < 1e-12


def test_max_mode():
    assert parse_postselect("[0,4]==1 & [2]==0").max_mode() == 4


def test_processor_reports_the_work_bound(monkeypatch):
    # |1,1> with [0]>=0 keeps the whole sector: 2^2 x (2 + 4 + 3) = 36.
    monkeypatch.setattr(simulate, "_MAX_WORK", 35)
    circuit = Circuit(2).add(0, BeamSplitter.h())
    proc = Processor(circuit, StateVector.basis(make_state((1, 1))), parse_postselect("[0]>=0"))
    with pytest.raises(TooLarge, match="36 vector elements"):
        proc.amplitudes()
    monkeypatch.setattr(simulate, "_MAX_WORK", 36)
    assert len(proc.amplitudes()) == 3
