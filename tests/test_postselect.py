import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photonsim
from photonsim.circuit import Circuit
from photonsim.cli import load_circuit_file
from photonsim.components import BeamSplitter, Permutation
from photonsim import _kernels, _sectors, simulate
from photonsim.errors import EvalError, InvalidSpec, ParseError, RegisterMismatch, TooLarge
from photonsim.fock import PRUNE_TOL, FockState, StateVector, make_state
from photonsim.postselect import (
    Clause,
    PostSelect,
    Processor,
    admissible_outcomes,
    parse_postselect,
)
from photonsim.qubits import GateSequence
from photonsim.reference import amplitude
from photonsim.simulate import sector_basis

DATA = Path(__file__).parent / "data"


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
    # The sector from itertools.product, not from the enumerator that
    # sector_basis and admissible_outcomes share.
    sector = sorted(
        (occ for occ in itertools.product(range(n + 1), repeat=channels) if sum(occ) == n),
        reverse=True,
    )
    return [occ for occ in sector if expr is None or expr.evaluate(make_state(occ, polarized))]


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
    # overlapping supports: channel 1 adds to both shortfalls, so reach is 2
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
    never = PostSelect((Clause((0,), "<", 0),))
    for channels, polarized, n in [(1, False, 0), (1, False, 3), (3, False, 2), (4, True, 3)]:
        assert list(admissible_outcomes(channels, polarized, n, None)) == brute(
            channels, polarized, n, None)
        assert list(sector_basis(n, channels)) == brute(channels, False, n, None)
        assert list(admissible_outcomes(channels, polarized, n, never)) == []


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
    # Four channels on both sides, but only the circuit is polarized.
    with pytest.raises(RegisterMismatch, match="polarized=False"):
        Processor(Circuit(2, polarized=True), StateVector.basis(make_state((1, 0, 0, 0)))).run()


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


def test_processor_rejects_negative_min_detected_photons():
    proc = Processor(Circuit(2), StateVector.basis(make_state((1, 0))), min_detected_photons=-1)
    with pytest.raises(InvalidSpec, match="minimum photon count must be >= 0, got -1"):
        proc.amplitudes()
    with pytest.raises(InvalidSpec):
        proc.run()


@pytest.mark.parametrize("count", [0.5, True])
def test_processor_refuses_a_non_integer_min_detected_photons(count):
    # 0.5 used to act as a threshold of 1, and True as 1.
    circuit = Circuit(2).add(0, BeamSplitter.h())
    proc = Processor(circuit, StateVector.basis(make_state((1, 1))), None, count)
    with pytest.raises(InvalidSpec, match=f"minimum photon count must be an integer, got {count!r}"):
        proc.amplitudes()


def test_processor_accepts_a_numpy_integer_min_detected_photons():
    circuit = Circuit(2).add(0, BeamSplitter.h())
    state = StateVector.basis(make_state((1, 1)))
    assert (Processor(circuit, state, None, np.int64(1)).amplitudes()
            == Processor(circuit, state, None, 1).amplitudes())


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


def test_processor_reports_the_work_bound(monkeypatch):
    # |1,1> with [0]>=0 keeps the whole sector, whose SLOS tables hold the 2
    # one-photon and 3 two-photon rows of 2 entries each: 10.
    monkeypatch.setattr(_kernels, "_MAX_WORK", 9)
    circuit = Circuit(2).add(0, BeamSplitter.h())
    proc = Processor(circuit, StateVector.basis(make_state((1, 1))), parse_postselect("[0]>=0"))
    with pytest.raises(TooLarge, match="^the expansion needs 2 x 5 = 10 vector elements, more than the 9"):
        proc.amplitudes()
    monkeypatch.setattr(_kernels, "_MAX_WORK", 10)
    assert len(proc.amplitudes()) == 3


def test_processor_refuses_a_huge_sector_before_enumerating_it(monkeypatch):
    # 12 photons on 20 modes keep C(30, 12) = 86,493,225 outcomes under
    # [0]==0; the enumeration ran before any work check and died of
    # MemoryError.  The budget is lowered to refuse after a few thousand rows.
    monkeypatch.setattr(_sectors, "_ENUMERATION_BYTES", 1 << 20)
    circuit = Circuit(20).add(0, BeamSplitter.h())
    state = StateVector.basis(make_state((1,) * 12 + (0,) * 8))
    with pytest.raises(TooLarge, match="the outcome enumeration reaches .* rows at channel"):
        Processor(circuit, state, parse_postselect("[0]==0")).amplitudes()


def test_clause_mode_past_the_register_is_an_eval_error():
    # Mode 3 of a 3-mode register used to raise a bare IndexError.
    expr = parse_postselect("[3]==0")
    with pytest.raises(EvalError, match="clause mode 3 outside register of 3 modes"):
        list(admissible_outcomes(3, False, 1, expr))
    with pytest.raises(EvalError):
        simulate.state_amplitudes(np.eye(3), StateVector.basis(make_state((1, 0, 0))), expr)
    # Blocks whose route would be the stepper: the clause reads no block.
    blocks = Circuit(3).add(0, BeamSplitter.h()).add(1, BeamSplitter.h()).blocks()
    with pytest.raises(EvalError):
        simulate.circuit_amplitudes(blocks, StateVector.basis(make_state((1, 0, 0))), expr)


def test_negative_clause_mode_is_an_eval_error():
    # Mode -1 used to read the last mode: |0,1> kept with amplitude 0.707.
    expr = PostSelect((Clause((-1,), "==", 1),))
    with pytest.raises(EvalError, match="clause mode -1 outside register of 2 modes"):
        list(admissible_outcomes(2, False, 1, expr))
    circuit = Circuit(2).add(0, BeamSplitter.h())
    with pytest.raises(EvalError):
        Processor(circuit, StateVector.basis(make_state((1, 0))), expr).amplitudes()


def test_clause_without_modes_is_invalid():
    # It used to fail in Processor with "max() arg is an empty sequence".
    expr = PostSelect((Clause((), "==", 0),))
    with pytest.raises(InvalidSpec, match="lists no mode"):
        list(admissible_outcomes(2, False, 1, expr))
    with pytest.raises(InvalidSpec, match="lists no mode"):
        Processor(Circuit(2), StateVector.basis(make_state((1, 0))), expr).amplitudes()


def test_clause_bound_past_int64_keeps_both_routes_exact():
    # The stepper lowered 10^20 to an int64 array and raised OverflowError.
    circuit = Circuit(3).add(0, BeamSplitter.h())
    state = StateVector.basis(make_state((1, 1, 0)))
    for text, kept in (("[2]==100000000000000000000", 0), ("[2]<100000000000000000000", 6)):
        expr = parse_postselect(text)
        amps = Processor(circuit, state, expr).amplitudes()
        assert len(amps) == kept
        assert amps == simulate.state_amplitudes(circuit.compile(), state, expr)


def test_a_predicate_is_hashed_once_and_pickles_without_its_hash(monkeypatch):
    # The hash is computed on construction, so hashing the predicate again
    # hashes no clause; pickling carries the clauses only, and loading
    # rebuilds the hash, equal to a fresh predicate's.
    calls = []
    monkeypatch.setattr(Clause, "__hash__", lambda self, original=Clause.__hash__:
                        calls.append(1) or original(self))
    expr = parse_postselect("[0]==1 & [2,3]<=1 & [1]>0")
    assert len(calls) == 3
    assert hash(expr) == hash(expr) and len(calls) == 3
    assert hash(expr) == hash((expr.clauses,))
    data = pickle.dumps(expr)
    assert b"_hash" not in data
    copy = pickle.loads(data)
    assert copy == expr and hash(copy) == hash(expr) and repr(copy) == repr(expr)


def test_a_pickled_predicate_hashes_as_a_fresh_one_in_another_process():
    # A str hashes differently under another PYTHONHASHSEED, so a pickled
    # hash would not match the predicate built there; the rebuilt one does.
    expr = parse_postselect("[0]==1 & [2,3]<=1")
    code = ("import pickle, sys; from photonsim.postselect import parse_postselect; "
            "expr = pickle.loads(sys.stdin.buffer.read()); "
            "fresh = parse_postselect('[0]==1 & [2,3]<=1'); "
            "print(expr == fresh, hash(expr) == hash(fresh), hash(expr) == int(sys.argv[1]))")
    src = os.path.dirname(os.path.dirname(photonsim.__file__))
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    seen = subprocess.run([sys.executable, "-c", code, str(hash(expr))], input=pickle.dumps(expr),
                          capture_output=True, env=env, check=True).stdout.split()
    assert seen[:2] == [b"True", b"True"]


def heralded_cases():
    """`two_heralded_cnots.json` under its four heralds, and a chain of 18
    heralded CNOTs: (circuit, input, predicate)."""
    loaded = load_circuit_file(str(DATA / "two_heralded_cnots.json"))
    source = FockState((1, 0, 1, 0) + loaded.herald_input)
    yield (loaded.circuit, StateVector.basis(source),
           parse_postselect("[4]==1 & [5]==1 & [6]==1 & [7]==1"))
    seq = GateSequence(2)
    for _ in range(18):
        seq.cnot(0, 1)
    chain = seq.build()
    yield chain.circuit, StateVector.basis(chain.input_state((1, 0))), chain.condition


@pytest.mark.parametrize("case", list(heralded_cases()), ids=["two_heralded_cnots", "chain18"])
def test_run_reads_the_amplitude_arrays_bit_for_bit(case):
    # `run` takes |amp|^2 from the arrays under `amplitudes`: every entry and
    # the success equal abs(a) ** 2 over the amplitude list, kept at
    # PRUNE_TOL and renormalized by their left-to-right sum, bit for bit.
    proc = Processor(*case)
    kept = [(s, abs(a) ** 2) for s, a in proc.amplitudes() if abs(a) >= PRUNE_TOL]
    success = sum(p for _, p in kept)
    dist, got = proc.run()
    assert kept and got.hex() == success.hex()
    assert [(s, p.hex()) for s, p in dist.entries.items()] == [(s, (p / success).hex()) for s, p in kept]


def test_171_photons_on_the_stepwise_route_are_refused():
    # [0]==171 closes after the splitter, so the stepper runs it: the
    # block's 171-photon kernel states its count, 2^170 x 174, and so does
    # the global route's, and both pass the limit.
    circuit = Circuit(3).add(0, BeamSplitter.h()).add(1, Permutation((1, 0)))
    state = StateVector.basis(FockState((171, 0, 0)))
    with pytest.raises(TooLarge, match=r"^the stepwise evolution reaches \d+ vector elements at "
                                       r"block 0 and the global route at least \d+, more than the "
                                       r"17179869184 allowed$"):
        Processor(circuit, state, parse_postselect("[0]==171")).amplitudes()


@pytest.mark.parametrize("occupations", [(169, 1, 1), (168, 2, 1)])
def test_171_photons_evolve_stepwise_when_the_splitter_meets_few(occupations):
    # The splitter meets 2 or 3 photons and the permutation moves the rest,
    # so no kernel sees 171 photons: each outcome's amplitude is the
    # splitter's, from its local input to the outcome's channels 0 and 2.
    circuit = Circuit(3).add(1, BeamSplitter.h()).add(0, Permutation((1, 0)))
    state = StateVector.basis(FockState(occupations))
    amps = Processor(circuit, state, parse_postselect("[2]==1")).amplitudes()
    assert len(amps) == 171
    local = FockState(occupations[1:])
    for outcome, amp in amps:
        a, b, c = outcome.occupations
        want = amplitude(BeamSplitter.h().matrix(), local, FockState((a, c))) if b == occupations[0] else 0
        assert abs(amp - want) <= 1e-15


def test_admissible_outcomes_checks_the_register_and_predicate():
    # Each check comes on the first next(), as the count checks do.
    for args, error in [((3, True, 1, None), RegisterMismatch),
                        ((4, 1, 1, None), InvalidSpec),
                        ((4, True, 1, "[0]==1"), InvalidSpec)]:
        outcomes = admissible_outcomes(*args)
        with pytest.raises(error):
            next(outcomes)
    assert list(admissible_outcomes(4, True, 1, parse_postselect("[0]==1"))) == [
        (1, 0, 0, 0), (0, 1, 0, 0)]
