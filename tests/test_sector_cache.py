"""The structure that simulate keeps between calls: outcome rows, their
FockStates and trie plans, keyed by (channels, polarization, photon number,
predicate), and the route records and step programs of circuits under a
predicate.  Its keys must not collide, its rows are read-only and it holds
at most _kernels._STRUCTURE_BYTES.  That it changes no result is a
property in test_properties.py."""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsim import _kernels, _sectors, _stepper, grover, simulate
from photonsim.circuit import Circuit
from photonsim.components import BeamSplitter, GenericUnitary, Permutation
from photonsim.errors import NotUnitary, TooLarge
from photonsim.fock import FockState, StateVector, make_state
from photonsim.grover import dual_rail_grover_3q
from photonsim.postselect import Clause, PostSelect, Processor, admissible_outcomes, parse_postselect
from photonsim.qubits import GateSequence
from photonsim.simulate import distribution, sector_basis, state_amplitudes


def brute(channels, polarized, n, expr):
    sector = sorted(
        (occ for occ in itertools.product(range(n + 1), repeat=channels) if sum(occ) == n),
        reverse=True,
    )
    return [occ for occ in sector if expr is None or expr.evaluate(make_state(occ, polarized))]


def test_keys_do_not_collide():
    # An operator, the polarization and the photon number each change the key.
    _sectors._STRUCTURES.clear()
    cases = [
        (3, False, 2, parse_postselect("[0]==1")),
        (3, False, 2, parse_postselect("[0]>=1")),
        (4, True, 2, parse_postselect("[0]==1")),
        (4, False, 2, parse_postselect("[0]==1")),
        (4, False, 3, parse_postselect("[0]==1")),
        (4, True, 2, None),
        (4, False, 2, None),
        (4, False, 3, None),
    ]
    for _ in range(2):  # cold, then on what the first pass kept
        for case in cases:
            assert list(admissible_outcomes(*case)) == brute(*case)
    assert list(sector_basis(3, 4)) == brute(4, False, 3, None)
    # Equal rows, but the states keep their register's polarization.
    for polarized in (True, False, True):
        amps = state_amplitudes(np.eye(4), StateVector.basis(FockState((1, 0, 1, 0), polarized)),
                                None)
        assert {s.polarized for s, _ in amps} == {polarized}


def test_kept_rows_are_read_only():
    _sectors._STRUCTURES.clear()
    bell = GateSequence(2).gate("H", 0).cnot(0, 1, "heralded").build()
    state = StateVector.basis(FockState((1, 0, 1, 0) + bell.herald_input))
    Processor(bell.circuit, state, parse_postselect("[4]==1 & [5]==1")).amplitudes()
    # Step programs are kept alongside; they hold no outcome rows.
    records = [r for r in _sectors._STRUCTURES._records.values() if isinstance(r, _sectors._Sector)]
    assert records
    for record in records:
        assert not record.rows.flags.writeable
        if record.rows.size:
            with pytest.raises(ValueError):
                record.rows[0, 0] = 0


def test_a_sector_over_the_byte_bound_is_not_kept(monkeypatch):
    enumerations = []

    def counted(*args, original=_sectors._outcomes):
        enumerations.append(args)
        return original(*args)

    monkeypatch.setattr(_sectors, "_outcomes", counted)
    u = BeamSplitter.h().matrix()
    pair, single = (StateVector.basis(make_state(occ)) for occ in ((1, 1), (1, 0)))
    _sectors._STRUCTURES.clear()
    first = distribution(u, pair)
    assert distribution(u, pair) == first and len(enumerations) == 1
    held = _sectors._STRUCTURES.held
    assert held == sum(r.nbytes for r in _sectors._STRUCTURES._records.values()) > 0
    # One byte short: computed and returned, but not kept.
    _sectors._STRUCTURES.clear()
    monkeypatch.setattr(_kernels, "_STRUCTURE_BYTES", held - 1)
    assert distribution(u, pair) == first and distribution(u, pair) == first
    assert len(enumerations) == 3 and _sectors._STRUCTURES.held == 0
    # Room for that sector alone: the least recently used goes first.  The
    # comparison reads the entries, which builds the states as above.
    monkeypatch.setattr(_kernels, "_STRUCTURE_BYTES", held)
    assert distribution(u, pair) == first
    distribution(u, single)
    assert list(_sectors._STRUCTURES._records) == [(2, False, 1, None)]
    assert _sectors._STRUCTURES.held <= held


def test_predicates_built_from_lists_are_keys():
    listed = PostSelect([Clause([0], "==", 1)])
    assert listed == parse_postselect("[0]==1") and hash(listed) == hash(parse_postselect("[0]==1"))
    circuit = Circuit(2).add(0, BeamSplitter.h())
    state = StateVector.basis(make_state((1, 1)))
    assert (Processor(circuit, state, listed).amplitudes()
            == Processor(circuit, state, parse_postselect("[0]==1")).amplitudes())


def test_threads_share_the_kept_structure(monkeypatch):
    # Four threads on three sectors and a stepwise circuit, with room for
    # about one record, so records and step programs are built, evicted and
    # grown concurrently.  Every result matches the single-threaded one and
    # the byte count stays exact.
    sectors = [(4, False, 3, None), (6, True, 2, None), (5, False, 2, parse_postselect("[0]>=1"))]
    u = {c: np.eye(c) for c in (4, 5, 6)}

    def call(channels, polarized, n, expr):
        occ = next(admissible_outcomes(channels, polarized, n, expr))
        state = StateVector.basis(FockState(occ, polarized))
        return state_amplitudes(u[channels], state, expr)

    pair = GateSequence(2).gate("H", 0).cnot(0, 1, "heralded").cnot(1, 0, "heralded").build()
    stepped = Processor(pair.circuit, StateVector.basis(pair.input_state((0, 0))), pair.condition)
    calls = [lambda case=case: call(*case) for case in sectors] + [stepped.amplitudes]
    _sectors._STRUCTURES.clear()
    want = [f() for f in calls]
    assert programs()
    monkeypatch.setattr(_kernels, "_STRUCTURE_BYTES", 2 * _sectors._STRUCTURES.held // 3)
    _sectors._STRUCTURES.clear()
    results, errors = [], []

    def worker(seed):
        try:
            for i in range(40):
                k = (seed + i) % len(calls)
                results.append(calls[k]() == want[k])
        except Exception as error:  # reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(results) == 160 and all(results)
    kept = _sectors._STRUCTURES._records.values()
    assert _sectors._STRUCTURES.held == sum(r.nbytes for r in kept) <= _kernels._STRUCTURE_BYTES
    assert all(r.kept for r in kept)


def search():
    """The dual-rail search's blocks, input and condition."""
    build = grover._search_build()
    return list(build.circuit.blocks()), StateVector.basis(build.input_state((0, 0, 0))), build.condition


def programs(kind=_stepper._Program):
    """The kept step programs."""
    return [r for r in _sectors._STRUCTURES._records.values() if isinstance(r, kind)]


def test_a_warm_search_checks_no_block_and_builds_no_program(monkeypatch):
    dual_rail_grover_3q()
    calls = {"require_unitary": 0, "_Program": 0}
    for module, name in ((simulate, "require_unitary"), (_stepper, "require_unitary"),
                         (_stepper, "_Program")):
        def counted(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    dual_rail_grover_3q()
    assert calls == {"require_unitary": 0, "_Program": 0}


def test_a_kept_program_changes_no_result(monkeypatch):
    # Warm and after a clear: the same seeded results, amplitudes and
    # refusals, bit for bit.
    blocks, state, condition = search()

    def results():
        out = [dual_rail_grover_3q(1000, seed) for seed in range(3)]
        out.append(simulate.circuit_amplitudes(blocks, state, condition))
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_MAX_WORK", 5706)
            with pytest.raises(TooLarge) as refused:
                dual_rail_grover_3q()
        return out, str(refused.value)

    dual_rail_grover_3q()
    warm = results()
    _sectors._STRUCTURES.clear()
    assert results() == warm
    assert warm[1].startswith("the stepwise evolution reaches 5707 vector elements at block 31 ")


def test_program_bytes_are_counted_and_evicted(monkeypatch):
    _sectors._STRUCTURES.clear()
    first = dual_rail_grover_3q(1000, 4)
    [program] = programs()
    arrays = _stepper._arrays((program.start, program.steps))
    assert program.kept and program.nbytes > sum(a.nbytes for a in arrays) > 0
    assert not any(a.flags.writeable for a in arrays)
    kept = _sectors._STRUCTURES._records.values()
    assert _sectors._STRUCTURES.held == sum(r.nbytes for r in kept)
    # A cap below the program's bytes: each call builds one, which is used
    # and not kept, with the same result.
    monkeypatch.setattr(_kernels, "_STRUCTURE_BYTES", program.nbytes - 1)
    _sectors._STRUCTURES.clear()
    built = []

    def build(*args, original=_stepper._Program):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(_stepper, "_Program", build)
    assert dual_rail_grover_3q(1000, 4) == first and dual_rail_grover_3q(1000, 4) == first
    assert len(built) == 2 and not programs() and not any(p.kept for p in built)
    assert [p.nbytes for p in built] == [program.nbytes] * 2
    kept = _sectors._STRUCTURES._records.values()
    assert _sectors._STRUCTURES.held == sum(r.nbytes for r in kept) <= program.nbytes - 1


def test_a_changed_block_gets_its_own_unitarity_check():
    # The program's key holds each block's exact bytes, so a block scaled
    # by 2 misses the kept program and fails its check, on every call.
    blocks, state, condition = search()
    simulate.circuit_amplitudes(blocks, state, condition)
    scaled = list(blocks)
    scaled[1] = (blocks[1][0], 2 * blocks[1][1])
    for _ in range(2):
        with pytest.raises(NotUnitary):
            simulate.circuit_amplitudes(scaled, state, condition)
    assert simulate.circuit_amplitudes(blocks, state, condition) == simulate.circuit_amplitudes(
        blocks, state, condition)


def test_the_global_route_keeps_no_block():
    # A whole-register unitary under a predicate takes the global route:
    # its route record is keyed by channels alone and no step program is
    # built, so no byte of the unitary is kept.
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    processor = Processor(Circuit(4).add(0, GenericUnitary(u)),
                          StateVector.basis(FockState((1, 1, 0, 0))), parse_postselect("[0]==1"))
    _sectors._STRUCTURES.clear()
    processor.amplitudes()
    [route] = programs(_stepper._Route)
    assert not route.early and not programs()

    def parts(key):
        return [p for part in key for p in parts(part)] if isinstance(key, tuple) else [key]

    assert not any(isinstance(p, bytes) for key in _sectors._STRUCTURES._records for p in parts(key))


def truth_tables():
    """A Toffoli and a chain of three heralded CNOTs after a Hadamard on
    each qubit: (circuit, condition, input per word).  Their words share
    incoming rows at many steps, so a later word replays plans that an
    earlier one built."""
    builds = [GateSequence(3).toffoli(0, 1, 2).build(),
              GateSequence(3).gate("H", 0).gate("H", 1).gate("H", 2)
              .cnot(0, 1, "heralded").cnot(1, 2, "heralded").cnot(0, 2, "heralded").build()]
    words = list(itertools.product((0, 1), repeat=3))
    return [(b.circuit, b.condition, {w: StateVector.basis(b.input_state(w)) for w in words})
            for b in builds]


def stepwise_count(monkeypatch, call):
    """What `call` charges on the stepwise route: its stepper runs with a
    cap that each charge raises to the count so far."""
    spent = []

    def counted(program, mats, state, sector, cap, over=None, original=_stepper._stepwise):
        return original(program, mats, state, sector, 0, lambda count, step: spent.append(count) or count)

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_stepwise", counted)
        call()
    return spent[-1]


def test_replayed_steps_match_the_unplanned_ones_in_any_order(monkeypatch):
    # Cold in one input order, then warm in the other, then cold in that
    # other: bit-identical amplitudes (so the same success), and under a
    # limit one below each input's count the same refusal, whichever input
    # built the plans a call replays.
    for circuit, condition, states in truth_tables():
        def run(word, limit=None):
            processor = Processor(circuit, states[word], condition)
            if limit is None:
                return processor.amplitudes()
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "_MAX_WORK", limit)
                with pytest.raises(TooLarge) as refused:
                    processor.amplitudes()
            return str(refused.value)

        words = list(states)
        limits = {w: stepwise_count(monkeypatch, lambda w=w: run(w)) - 1 for w in words}
        results = []
        for order, clear in ((words, True), (words[::-1], False), (words[::-1], True)):
            if clear:
                _sectors._STRUCTURES.clear()
            results.append({w: (run(w, limits[w]), run(w)) for w in order})
            assert sum(len(p.plans) for p in programs()) > 0
        assert results[0] == results[1] == results[2]
        for w in words:
            _sectors._STRUCTURES.clear()
            assert run(w, limits[w]) == results[0][w][0]
            assert run(w, limits[w]).startswith(f"the stepwise evolution reaches {limits[w] + 1} ")


def test_a_replayed_zero_product_runs_the_unplanned_step(monkeypatch):
    # A product that comes out exactly zero would drop its row in the
    # unplanned step, so the step runs unplanned and keeps the plan it had.
    _sectors._STRUCTURES.clear()
    want = dual_rail_grover_3q(1000, 5)
    [program] = programs()
    key, plan = next((k, p) for k, p in program.plans.items()
                     if isinstance(p, _stepper._StepPlan) and p.source is not None)
    factor = plan.factor.copy()
    factor[0] = 0
    monkeypatch.setattr(plan, "factor", factor)
    calls = []
    monkeypatch.setattr(_stepper, "_local_parts", lambda *args, original=_stepper._local_parts:
                        calls.append(1) or original(*args))
    assert dual_rail_grover_3q(1000, 5) == want
    assert len(calls) == 1 and program.plans[key].factor is factor


def test_monomial_steps_keep_read_only_plans(monkeypatch):
    # Each of the search's 14 monomial steps keeps its moved rows and phase
    # factors (None for the 7 whose phases are all 1), read-only, as all 33
    # plans are; a warm call adds none, takes no phase power and gives the
    # same result.
    _sectors._STRUCTURES.clear()
    want = dual_rail_grover_3q(1000, 6)
    [program] = programs()
    kept, planned = dict(program.plans), program.planned
    moves = [v for (step, _), v in kept.items()
             if step < len(program.steps) and program.steps[step][1] is not None]
    assert len(moves) == 14 and sum(plan.factor is None for plan in moves) == 7
    arrays = _stepper._arrays(list(kept.values()))
    assert arrays and not any(a.flags.writeable for a in arrays)
    powers = []
    monkeypatch.setattr(_stepper.np, "prod", lambda *args, original=np.prod, **kw:
                        powers.append(1) or original(*args, **kw))
    assert dual_rail_grover_3q(1000, 6) == want
    assert powers == [] and program.planned == planned
    assert program.plans.keys() == kept.keys()
    assert all(program.plans[k] is v for k, v in kept.items())


def test_threads_build_and_replay_the_same_plans():
    # Four threads run the search from a cleared structure, so they build,
    # publish and replay the same step plans at once; every result equals
    # the serial one, and the plans are counted once.
    _sectors._STRUCTURES.clear()
    want = [dual_rail_grover_3q(1000, seed) for seed in range(4)]
    [program] = programs()
    plans = len(program.plans)
    _sectors._STRUCTURES.clear()
    results, errors = [], []

    def worker(seed):
        try:
            for _ in range(10):
                results.append(dual_rail_grover_3q(1000, seed) == want[seed])
        except Exception as error:  # reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(results) == 40 and all(results)
    [program] = programs()
    assert len(program.plans) == plans and program.planned == plan_bytes(program)
    kept = _sectors._STRUCTURES._records.values()
    assert _sectors._STRUCTURES.held == sum(r.nbytes for r in kept)


def test_a_circuit_keeps_its_block_keys():
    # The route and program keys of a circuit's blocks are built once and
    # kept with its blocks; a list of the same pairs finds the same program.
    blocks, state, condition = search()
    kept = grover._search_build().circuit.blocks()
    _sectors._STRUCTURES.clear()
    want = simulate.circuit_amplitudes(kept, state, condition)
    assert {"channels", "arrays", "data"} <= set(vars(kept))
    data = kept.data
    assert simulate.circuit_amplitudes(kept, state, condition) == want and kept.data is data
    assert simulate.circuit_amplitudes(blocks, state, condition) == want
    assert len(programs()) == 1


def test_kept_block_arrays_are_read_only():
    # A block that is not complex is converted once and kept with its key,
    # so the copy is read-only; a complex block is used as it is and the
    # caller's array keeps its flags.
    real = np.array([[0.0, 1.0], [1.0, 0.0]])
    mine = np.array([[0, 1], [1, 0]], dtype=complex)
    blocks = _stepper._as_blocks([((0, 1), real), ((1, 2), mine)])
    converted, same = blocks.arrays
    assert same is mine and mine.flags.writeable
    assert not converted.flags.writeable
    with pytest.raises(ValueError):
        converted[0, 0] = 1


def test_a_programs_plans_stay_within_their_share(monkeypatch):
    # Past _PLAN_SHARE a step keeps no plan and runs unplanned, with the
    # same result; the bytes kept are the ones counted.
    _sectors._STRUCTURES.clear()
    want = dual_rail_grover_3q(1000, 3)
    [program] = programs()
    full = program.planned
    assert len(program.plans) == 33
    for share in (0, full // 2):
        monkeypatch.setattr(_stepper, "_PLAN_SHARE", share)
        _sectors._STRUCTURES.clear()
        for _ in range(2):
            assert dual_rail_grover_3q(1000, 3) == want
        [program] = programs()
        assert program.planned == plan_bytes(program) <= share and len(program.plans) < 33
        assert bool(program.plans) == (share > 0)
        kept = _sectors._STRUCTURES._records.values()
        assert _sectors._STRUCTURES.held == sum(r.nbytes for r in kept)


def plan_bytes(program):
    """The bytes of a program's plans, by the rule `_keep` counts them with."""
    return sum(_stepper._kept_bytes(1, _stepper._arrays(plan), key[1:])
               for key, plan in program.plans.items())


def test_kept_bytes_follow_one_rule():
    # A search's route, program and plans each count their arrays' data,
    # their keys' bytes and _ENTRY_BYTES per block or plan, and the
    # structure holds exactly the bytes its records count.
    _sectors._STRUCTURES.clear()
    dual_rail_grover_3q(1000, 2)
    [route], [program] = programs(_stepper._Route), programs()
    blocks, entry = len(program.steps), _stepper._ENTRY_BYTES
    assert route.nbytes == blocks * entry + route.closes.nbytes
    data = sum(len(d) for _, d in grover._search_build().circuit.blocks().data)
    arrays = _stepper._arrays((program.start, program.steps))
    assert program.nbytes - program.planned == blocks * entry + data + sum(a.nbytes for a in arrays)
    assert program.planned == plan_bytes(program) == sum(
        entry + len(rows) + sum(a.nbytes for a in _stepper._arrays(plan))
        for (_, rows), plan in program.plans.items())
    kept = _sectors._STRUCTURES._records.values()
    assert _sectors._STRUCTURES.held == sum(r.nbytes for r in kept)


def heralded_chain():
    """A Hadamard on each qubit, then three heralded CNOTs."""
    return (GateSequence(3).gate("H", 0).gate("H", 1).gate("H", 2)
            .cnot(0, 1, "heralded").cnot(1, 2, "heralded").cnot(0, 2, "heralded").build())


def test_a_warm_search_finds_each_plan_by_its_key(monkeypatch):
    # A warm search looks up each of its 33 plans by its key and finds it,
    # runs no unplanned step, adds no plan and counts no more bytes.
    _sectors._STRUCTURES.clear()
    want = dual_rail_grover_3q(1000, 4)
    [program] = programs()
    assert len(program.plans) == 33 and program.planned == plan_bytes(program)
    kept, planned = dict(program.plans), program.planned

    class Counted(dict):
        found = []

        def get(self, key, default=None):
            Counted.found.append(key in self)
            return super().get(key, default)

    monkeypatch.setattr(program, "plans", Counted(program.plans))
    monkeypatch.setattr(_stepper, "_local_parts", lambda *args: pytest.fail("an unplanned step"))
    assert dual_rail_grover_3q(1000, 4) == want
    assert Counted.found == [True] * 33 and program.planned == planned
    assert program.plans.keys() == kept.keys()
    assert all(program.plans[k] is v for k, v in kept.items())


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(st.lists(st.complex_numbers(min_magnitude=1e-20, max_magnitude=1e20, allow_nan=False,
                                   allow_infinity=False), max_size=3))
def test_a_link_holds_for_the_cut_it_was_made_under(drawn):
    # (|000> + c|100>) / sqrt(2) through the chain: after the first
    # Hadamard one of its two rows cancels for c = 1 and c = -1, a
    # different one each, and none for c = 1j, so the second prune keeps
    # row 0, row 1 or both of the same kept rows, and each cut has its own
    # step-1 plan.  A drawn c may cut at the first prune too.  A plan is
    # found by its incoming rows' key alone, whatever cut made them: every
    # call on shared structure equals a run on cleared structure, bit for
    # bit.
    build = heralded_chain()
    zero, one = build.input_state((0, 0, 0)), build.input_state((1, 0, 0))
    inputs = {c: StateVector({zero: 1.0, one: c}).normalized() for c in (1.0, -1.0, 1j, *drawn)}

    def run(c):
        return Processor(build.circuit, inputs[c], build.condition).amplitudes()

    want = {}
    for c in inputs:
        _sectors._STRUCTURES.clear()
        want[c] = run(c)
    _sectors._STRUCTURES.clear()
    for c in [1.0, -1.0, 1j] * 2:
        assert run(c) == want[c]
    [program] = programs()
    assert len([step for step, _ in program.plans if step == 1]) == 3
    for c in [*drawn, 1.0, -1.0, 1j, *drawn[::-1]]:
        assert run(c) == want[c]
    assert program.planned == plan_bytes(program)


def test_a_link_holds_through_a_projection():
    # [2]<=1 closes after the swap, so the projection after that step drops
    # |0,0,2>; the next step's plan is keyed by the projected rows, and the
    # warm stepper, which finds it, equals the cold one bit for bit.
    circuit = (Circuit(3).add(0, BeamSplitter.rx(0.7)).add(1, Permutation((1, 0)))
               .add(0, BeamSplitter.rx(0.3)))
    state, condition = StateVector.basis(make_state((1, 1, 0))), parse_postselect("[2]<=1")
    sector = _sectors._sector(3, False, 2, condition)
    blocks = circuit.blocks()

    def run():
        program, mats = _stepper._program(_stepper._route(blocks, sector), blocks)
        return _stepper._stepwise(program, mats, state, sector, _kernels._MAX_WORK)

    _sectors._STRUCTURES.clear()
    cold = run()
    [program] = programs()
    swap = program.plans[next(key for key in program.plans if key[0] == 1)]
    after = [key for key in program.plans if key[0] == 2]
    assert len(swap.rows) == 3 and [len(key[1]) for key in after] == [2 * 3 * 8]  # 2 int64 rows
    assert len(program.plans[after[0]].source)
    plans = dict(program.plans)
    assert run().tobytes() == cold.tobytes() and program.plans == plans
    want = [a for _, a in state_amplitudes(circuit.compile(), state, condition)]
    assert np.abs(cold - want).max() < 1e-12


def test_inputs_whose_rows_meet_follow_the_same_links():
    # After the Hadamards every word of the chain holds the same rows, so a
    # later word meets plans an earlier one kept; cold forward and warm in
    # reverse, each word equals its run on cleared structure, bit for bit.
    # Each word's keys do not depend on what was kept, so the shared plans
    # are the union of the words' own, and some plan serves two words.
    build = heralded_chain()
    words = list(itertools.product((0, 1), repeat=3))

    def run(word):
        return Processor(build.circuit, StateVector.basis(build.input_state(word)),
                         build.condition).amplitudes()

    want, keys = {}, {}
    for word in words:
        _sectors._STRUCTURES.clear()
        want[word] = run(word)
        [program] = programs()
        keys[word] = set(program.plans)
    _sectors._STRUCTURES.clear()
    for word in words + words[::-1]:
        assert run(word) == want[word]
    [program] = programs()
    assert set(program.plans) == set().union(*keys.values())
    assert len(program.plans) < sum(map(len, keys.values()))


def test_a_linked_search_refuses_as_a_cold_one(monkeypatch):
    # One below its count, a warm search that replays its plans is refused
    # at the same count and block as a cold one.
    _sectors._STRUCTURES.clear()
    monkeypatch.setattr(_kernels, "_MAX_WORK", 5706)
    refusals = []
    for _ in range(3):  # cold, then on the plans the first kept
        with pytest.raises(TooLarge) as refused:
            dual_rail_grover_3q()
        refusals.append(str(refused.value))
    assert refusals == [refusals[0]] * 3 and "reaches 5707 vector elements at block 31" in refusals[0]
    monkeypatch.setattr(_kernels, "_MAX_WORK", 5707)
    _sectors._STRUCTURES.clear()
    want = dual_rail_grover_3q()
    [program] = programs()
    assert len(program.plans) == 33
    monkeypatch.setattr(_kernels, "_MAX_WORK", 5706)
    with pytest.raises(TooLarge) as refused:
        dual_rail_grover_3q()
    assert str(refused.value) == refusals[0]
    monkeypatch.setattr(_kernels, "_MAX_WORK", 5707)
    assert dual_rail_grover_3q() == want


def test_a_product_that_rounds_to_zero_keeps_no_plan(monkeypatch):
    # The first block's off-diagonal 5e-324 times 0.3 rounds to zero, so
    # `_expand` drops that product and its arrays hold for these amplitudes
    # only: the step keeps no plan and runs unplanned on every call.  The
    # stepper's count then passes the global kernel's least, so the
    # outcomes go to the global route.
    _sectors._STRUCTURES.clear()
    circuit = Circuit(3).add(0, GenericUnitary([[1, -5e-324], [5e-324, 1]])).add(1, BeamSplitter.h())
    state = StateVector({make_state((1, 0, 1)): 0.3, make_state((0, 1, 1)): 0.91 ** 0.5})
    condition = parse_postselect("[0]<=1")
    exact = []

    def expand(*args, original=_stepper._expand):
        arrays, products, whole = original(*args)
        exact.append(whole)
        return arrays, products, whole

    monkeypatch.setattr(_stepper, "_expand", expand)
    first = Processor(circuit, state, condition).amplitudes()
    [program] = programs()
    assert not [key for key in program.plans if key[0] == 0]
    assert Processor(circuit, state, condition).amplitudes() == first
    assert exact == [False, False]
    assert first == state_amplitudes(circuit.compile(), state, condition)


def test_state_vector_repr_lists_its_terms_in_canonical_order():
    state = StateVector({make_state((0, 1, 1)): 0.8, make_state((1, 0, 1)): 0.6j})
    assert repr(state) == "StateVector((0+0.6j)*|1,0,1> + (0.8+0j)*|0,1,1>)"
    assert repr(StateVector({}, channels=2)) == "StateVector(0)"
