"""Properties of the array kernel, of placement and of the stepwise route
on small random cases.

The kernel is checked against the scalar references: `amplitude`, one
Ryser loop per target, and the sector as an `itertools.product` filter.
A placement on arbitrary modes is checked against the same component at
anchor 0 between two full-register permutations.  The stepwise evolution
is checked against the global kernel on random gate sequences.  The kernel's
amplitudes also agree with the creation-operator expansion, follow a
relabelling of input modes and keep their moduli under diagonal phases, and
a distribution without a predicate sums to 1.
Examples are derandomized and few, so the suite stays fast and repeatable.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonsim import _kernels, _sectors, _stepper, postselect, qubits, simulate
from photonsim.circuit import Circuit
from photonsim.components import (
    BeamSplitter,
    GenericUnitary,
    Permutation,
    PhaseShifter,
    PolarizationRotator,
    PolarizingBeamSplitter,
    WavePlate,
)
from photonsim.fock import PRUNE_TOL, FockState, StateVector
from photonsim.postselect import Clause, PostSelect, Processor, parse_postselect
from photonsim.qubits import GateSequence
from photonsim.reference import amplitude, oracle_evolve
from photonsim.simulate import batch_amplitudes, sector_basis

SETTINGS = settings(max_examples=50, derandomize=True, deadline=None, database=None)


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def sweeps(draw):
    """A unitary, a source that may bunch, and targets drawn from its sector
    with repeats, plus at times one outside it."""
    modes, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = FockState(np.bincount(rng.integers(0, modes, n), minlength=modes))
    sector = list(sector_basis(n, modes))
    picks = draw(st.lists(st.integers(0, len(sector) - 1), min_size=1, max_size=12))
    targets = [FockState(sector[i]) for i in picks]
    if draw(st.booleans()):
        outside = FockState((n + 1,) + (0,) * (modes - 1))
        targets.insert(draw(st.integers(0, len(targets))), outside)
    return random_unitary(rng, modes), source, targets


@SETTINGS
@given(sweeps(), st.sampled_from([13, 2, 1]))
def test_kernel_matches_the_scalar_reference(case, chunk_bits):
    # Chunks of 2 or 4 subsets split every sweep of 2 or more photons.
    u, source, targets = case
    with mock.patch.object(_kernels, "_CHUNK_BITS", chunk_bits):
        got = batch_amplitudes(u, source, targets)
    assert len(got) == len(targets)
    for target, amp in zip(targets, got):
        assert abs(amp - amplitude(u, source, target)) < 1e-12


@SETTINGS
@given(st.integers(0, 5), st.integers(1, 5))
def test_sector_enumeration_matches_brute_force(n, channels):
    sector = [occ for occ in itertools.product(range(n + 1), repeat=channels) if sum(occ) == n]
    canonical = sorted(sector, reverse=True)
    assert list(sector_basis(n, channels)) == canonical
    assert _sectors._outcomes(channels, n, None).tolist() == [list(o) for o in canonical]


def sandwich(register, slots):
    """Permutations (pre, post): pre moves mode slots[k] to position k and
    parks the other modes behind them in ascending order; post undoes it."""
    rest = [m for m in range(register) if m not in slots]
    post = tuple(slots) + tuple(rest)
    pre = tuple(post.index(m) for m in range(register))
    return Permutation(pre), Permutation(post)


def add_all(circuit, placements):
    for anchor, component in placements:
        circuit = circuit.add(anchor, component)
    return circuit


def sandwiched(circuit, slots, placements):
    pre, post = sandwich(circuit.modes, slots)
    return add_all(circuit.add(0, pre), placements).add(0, post)


@st.composite
def placements(draw):
    """A register, a component it admits and distinct modes for it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=4)
    kind = draw(st.sampled_from(["bs", "ps", "perm", "unitary", "wp", "pr", "pbs"]))
    width = draw(st.integers(1, 4))
    if kind == "bs":
        conv = draw(st.sampled_from(["bs1", "bs2", "bs3", "h", "rx", "ry"]))
        if conv in ("h", "rx"):
            component = BeamSplitter(conv, angles[0], phi_tl=angles[1], phi_br=angles[2])
        else:
            component = BeamSplitter(conv, angles[0], phi_r=angles[1], phi_t=angles[2])
    elif kind == "ps":
        component = PhaseShifter(angles[0])
    elif kind == "perm":
        component = Permutation(tuple(rng.permutation(width)))
    elif kind == "unitary":
        component = GenericUnitary(random_unitary(rng, width))
    elif kind == "wp":
        component = WavePlate(angles[0], angles[1])
    elif kind == "pr":
        component = PolarizationRotator(angles[0])
    else:
        component = PolarizingBeamSplitter()
    spatial = kind in ("bs", "ps", "perm", "unitary")
    polarized = draw(st.booleans()) if spatial else True
    register = draw(st.integers(component.width, 6))
    modes = tuple(int(m) for m in rng.permutation(register)[: component.width])
    return Circuit(register, polarized), component, modes


@SETTINGS
@given(placements())
def test_placement_on_modes_is_a_relabelled_anchor_0_placement(case):
    circuit, component, modes = case
    got = circuit.add(modes, component).compile()
    want = sandwiched(circuit, modes, [(0, component)]).compile()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("flavour", ["heralded", "postselected"])
@pytest.mark.parametrize("gate", ["CX", "CZ", "CY"])
def test_cnot_builds_match_the_permutation_sandwich(gate, flavour):
    # The lowering before placements named their modes: the core at the
    # register front between two full-register permutations.
    for control, target in itertools.permutations(range(3), 2):
        seq = GateSequence(3)
        if gate == "CX":
            seq.cnot(control, target, flavour)
        else:
            seq.controlled_pauli(gate, control, target, flavour)
        c_pair, t_pair = (2 * control, 2 * control + 1), (2 * target, 2 * target + 1)
        if flavour == "heralded":
            slots = c_pair + t_pair + (6, 7)
            core = [(0, GenericUnitary(qubits.HERALDED_CNOT_MATRIX))]
        else:
            slots = (6,) + c_pair + t_pair + (7,)
            core = qubits._postselected_core_placements()
        before, after = {"CX": ((), ()), "CZ": (("H",), ("H",)), "CY": (("SDAG",), ("S",))}[gate]
        want = Circuit(8)
        for name in before:
            want = add_all(want, qubits._single_placements(name, target, None))
        want = sandwiched(want, slots, core)
        for name in after:
            want = add_all(want, qubits._single_placements(name, target, None))
        assert np.array_equal(seq.build().circuit.compile(), want.compile())


_GATES = ["X", "Y", "Z", "H", "S", "SDAG", "T", "TDAG", "RX", "RY", "RZ"]


@st.composite
def gate_circuits(draw):
    """A 1-3 qubit gate sequence of single-qubit gates and heralded or
    post-selected CNOTs, its condition and a basis or superposition input."""
    q = draw(st.sampled_from([3, 2, 1]))
    kinds = draw(st.lists(st.sampled_from(["cnot", "gate"]), min_size=1, max_size=6))
    seq = GateSequence(q)
    for kind in kinds + ["cnot"] * ("cnot" not in kinds):
        if q > 1 and kind == "cnot":
            control, target = draw(st.permutations(range(q)))[:2]
            seq.cnot(control, target, draw(st.sampled_from(["heralded", "postselected"])))
        else:
            name = draw(st.sampled_from(_GATES))
            theta = draw(st.floats(-6.3, 6.3)) if name.startswith("R") else None
            seq.gate(name, draw(st.integers(0, q - 1)), theta)
    build = seq.build()
    words = draw(st.lists(st.tuples(*[st.integers(0, 1)] * q), min_size=1, max_size=3, unique=True))
    coeffs = [draw(st.floats(0.1, 1)) * np.exp(1j * draw(st.floats(-3.2, 3.2))) for _ in words]
    state = StateVector({build.input_state(w): c for w, c in zip(words, coeffs)}).normalized()
    # Without a CNOT there is no condition; a clause every outcome meets
    # still sends the sequence through the stepper.
    condition = build.condition or PostSelect((Clause((0,), "<=", 1),))
    return build.circuit, state, condition


def stepwise(blocks, state, condition):
    """The stepper alone, under the work limit, with no hand-off to the
    global sweep: the route tests reach it directly."""
    sector = _sectors._sector(state.channels, state.polarized, state.require_sector(), condition)
    blocks = list(blocks)
    program, mats = _stepper._program(_stepper._route(blocks, sector), blocks)
    amps = _stepper._stepwise(program, mats, state, sector, _kernels._MAX_WORK)
    return list(zip(sector.states(), amps.tolist()))


def assert_routes_agree(circuit, state, condition):
    """Same outcomes in the same order, amplitudes within 1e-12.  The
    stepper may not hand these small circuits to the global route."""
    stepped = stepwise(circuit.blocks(), state, condition)
    global_ = simulate.state_amplitudes(circuit.compile(), state, condition)
    assert [s for s, _ in stepped] == [s for s, _ in global_]
    for (_, a), (_, b) in zip(stepped, global_):
        assert abs(a - b) < 1e-12


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(gate_circuits())
def test_stepwise_route_matches_the_global_kernel(case):
    assert_routes_agree(*case)


@st.composite
def component_circuits(draw):
    """Up to five random components on random modes of a register, a
    predicate of one or two random clauses and a bunched Fock input."""
    circuit, component, modes = draw(placements())
    circuit = circuit.add(modes, component)
    for _ in range(draw(st.integers(0, 4))):
        register, component, modes = draw(placements())
        if component.width <= circuit.modes and register.polarized == circuit.polarized:
            modes = tuple(draw(st.permutations(range(circuit.modes)))[: component.width])
            circuit = circuit.add(modes, component)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    source = FockState(np.bincount(rng.integers(0, circuit.channels, n), minlength=circuit.channels),
                       circuit.polarized)
    clauses = [
        Clause(tuple(draw(st.lists(st.integers(0, circuit.modes - 1), min_size=1, max_size=2))),
               draw(st.sampled_from(["==", "<=", ">=", "<", ">"])), draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return circuit, StateVector.basis(source), PostSelect(tuple(clauses))


@SETTINGS
@given(component_circuits())
def test_stepwise_route_matches_the_global_kernel_on_components(case):
    assert_routes_agree(*case)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(st.one_of(component_circuits(), gate_circuits()), st.booleans())
def test_kept_structure_changes_no_result(case, predicated):
    # Each call on cleared caches and its repeat on what the calls kept give
    # ==-identical results, on the global and the stepwise route.
    circuit, state, condition = case
    condition = condition if predicated else None
    calls = [
        lambda: Processor(circuit, state, condition).amplitudes(),
        lambda: simulate.state_amplitudes(circuit.compile(), state, condition),
        lambda: simulate.distribution(circuit.compile(), state).items(),
    ]
    if condition is not None:
        calls.append(lambda: stepwise(circuit.blocks(), state, condition))
    cold = []
    for call in calls:
        _sectors._STRUCTURES.clear()
        cold.append(call())
    assert [call() for call in reversed(calls)] == cold[::-1]


@st.composite
def predicates(draw):
    """A register of at most 5 modes, polarized or not, at most 4 photons
    and a predicate of 1-3 clauses over all five operators; a clause that
    lists a mode twice weighs it 2.  Also a block: some of the register's
    channels, in any order, and a local photon number."""
    modes, polarized, n = draw(st.integers(1, 5)), draw(st.booleans()), draw(st.integers(0, 4))
    clauses = [
        Clause(tuple(draw(st.lists(st.integers(0, modes - 1), min_size=1, max_size=3))),
               draw(st.sampled_from(["==", "<=", ">=", "<", ">"])), draw(st.integers(0, 4)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    channels = 2 * modes if polarized else modes
    chans = draw(st.permutations(range(channels)))[: draw(st.integers(1, channels))]
    return modes, polarized, n, PostSelect(tuple(clauses)), chans, draw(st.integers(min(n, 1), n))


def product_table(n, channels):
    """The sector of n photons over `channels` in canonical order, from
    itertools.product rather than the enumerator under test."""
    table = (occ for occ in itertools.product(range(n + 1), repeat=channels) if sum(occ) == n)
    return sorted(table, reverse=True)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(predicates())
@example((2, False, 0, parse_postselect("[0]==0 & [1]<=1"), [1, 0], 0))
@example((2, True, 2, PostSelect((Clause((0,), ">=", -1), Clause((1, 1), "<=", 2))), [2, 3, 1], 2))
@example((3, False, 2, parse_postselect("[0,1]<5 & [2]>=1"), [2, 0], 1))
@example((3, False, 2, parse_postselect("[1]==0 & [2]==0"), [0, 1, 2], 2))
def test_the_one_enumerator_lists_exactly_what_the_predicate_keeps(case):
    modes, polarized, n, expr, chans, m = case
    channels = 2 * modes if polarized else modes
    kept = [occ for occ in product_table(n, channels) if expr.evaluate(FockState(occ, polarized))]
    assert list(postselect.admissible_outcomes(channels, polarized, n, expr)) == kept
    # A block's local outputs: the enumerator over its columns of the
    # lowered weights, for the clauses that read no other column, against
    # the block's composition table filtered by those clauses.
    weights, lo, hi = _sectors._lower(expr, channels, polarized, n)
    inside = weights[:, chans].sum(axis=1) == weights.sum(axis=1)
    local = (weights[inside][:, chans], lo[inside], hi[inside])
    outs = np.array(product_table(m, len(chans)), dtype=np.int64)
    sums = outs @ local[0].T
    want = outs[((sums >= local[1]) & (sums <= local[2])).all(axis=1)]
    assert np.array_equal(_sectors._local_sector(len(chans), m, local).rows, want)


@st.composite
def evolutions(draw):
    """A unitary on at most 5 modes and a normalized input of 1-3 terms
    with one photon number, at most 4, that may bunch."""
    modes, n = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        occ = FockState(np.bincount(rng.integers(0, modes, n), minlength=modes))
        terms[occ] = complex(*rng.normal(size=2))
    return random_unitary(rng, modes), StateVector(terms).normalized(), rng


def amplitudes(u, state):
    """Every outcome's amplitude from the kernel, as an array in canonical order."""
    return np.array([a for _, a in simulate.state_amplitudes(u, state, None)])


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(evolutions())
def test_relabelling_input_modes_permutes_the_unitarys_columns(case):
    # Mode j of the input moved to mode perm[j] meets column perm[j] of U,
    # which is column j of U[:, perm].
    u, state, rng = case
    perm = rng.permutation(u.shape[0])
    moved = StateVector({FockState(np.bincount(perm, weights=s.occupations,
                                               minlength=len(perm)).astype(int)): a
                         for s, a in state.items()})
    assert np.allclose(amplitudes(u, moved), amplitudes(u[:, perm], state), rtol=0, atol=1e-12)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(evolutions())
def test_diagonal_phases_leave_every_amplitude_modulus_unchanged(case):
    # Output phases multiply each outcome by one phase; input phases do the
    # same to a single input term.
    u, state, rng = case
    out_phases = np.exp(1j * rng.uniform(0, 2 * np.pi, u.shape[0]))
    want = np.abs(amplitudes(u, state))
    assert np.allclose(np.abs(amplitudes(out_phases[:, None] * u, state)), want, atol=1e-12)
    term = StateVector.basis(state.items()[0][0])
    in_phases = np.exp(1j * rng.uniform(0, 2 * np.pi, u.shape[0]))
    assert np.allclose(np.abs(amplitudes(u * in_phases, term)), np.abs(amplitudes(u, term)),
                       atol=1e-12)


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(evolutions())
def test_state_amplitudes_agree_with_the_expansion_oracle(case):
    u, state, _ = case
    got = simulate.state_amplitudes(u, state, None)
    oracle = {}
    for source, a in state.items():
        for target, b in oracle_evolve(u, source).items():
            oracle[target] = oracle.get(target, 0) + a * b
    assert {s for s, _ in got} >= set(oracle)
    assert all(abs(amp - oracle.get(s, 0)) < 1e-12 for s, amp in got)


@st.composite
def sector_rows(draw):
    """A unitary on at most 6 modes, a source of 1-5 photons that may bunch
    and a random nonempty selection of its sector's rows in random order."""
    modes, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = _sectors._outcomes(modes, n, None)
    rows = rows[rng.permutation(len(rows))[: draw(st.integers(1, len(rows)))]]
    source = FockState(np.bincount(rng.integers(0, modes, n), minlength=modes))
    return random_unitary(rng, modes), source, rows


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(sector_rows())
def test_both_kernels_agree_with_the_expansion_oracle(case):
    # The oracle drops amplitudes below PRUNE_TOL; elsewhere all three agree
    # within 1e-13.
    u, source, rows = case
    oracle = oracle_evolve(u, source)
    want = np.array([oracle.amplitude(FockState(r)) for r in rows.tolist()])
    dropped = want == 0
    plan = _kernels._plan(rows, source.n)
    tables = _kernels._tables(rows, source.n, 1 << 62)
    for kernel in (plan, tables):
        got = kernel.amplitudes(u, source.occupations)
        assert np.all(np.abs(got - want)[~dropped] <= 1e-13)
        assert np.all(np.abs(got[dropped]) < PRUNE_TOL)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(evolutions())
def test_a_distribution_without_a_predicate_sums_to_one(case):
    u, state, _ = case
    assert abs(simulate.distribution(u, state).total() - 1.0) <= 1e-12


def sorted_prune(rows, amps):
    """The stepper's cut by a full sort: the weights in ascending (stable)
    order, cut before the first running sum past the budget, the rest kept
    in their order."""
    weight = amps.real**2 + amps.imag**2
    order = np.argsort(weight, kind="stable")
    cut = np.searchsorted(np.cumsum(weight[order]), _stepper._PRUNE_NORM**2 * weight.sum(), side="right")
    keep = np.sort(order[cut:])
    return rows[keep], amps[keep]


# Magnitudes about the budget of a unit state (weights of 1e-28 and below),
# with zeros, and phases that split a weight between both parts.
prune_amplitudes = st.lists(
    st.builds(lambda m, p: m * p,
              st.sampled_from([0.0, 1.0, 0.6, 1e-14, 8e-15, 5e-15, 3e-15, 1e-16, 1e-20]),
              st.sampled_from([1, -1, 1j, (0.6 + 0.8j)])),
    min_size=1, max_size=12)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(prune_amplitudes)
@example([1.0, 1e-14])  # a weight equal to the budget: the threshold drops it
@example([1.0, 1e-14, 1e-14j])  # two at the budget sum past it: the sort keeps the later
@example([1.0, 8e-15, 8e-15])  # small rows whose sum passes the budget
@example([0.0, 0.0, 0.0])  # a zero budget: every row is at most it
@example([0.6 + 0.8j])  # one row
@example([1.0, float("inf"), 1e-20])  # a total that is not finite
@example([1.0, float("nan")])
def test_the_threshold_prune_cuts_as_the_sorted_one(amps):
    # `_prune` drops the rows at most the budget without a sort when they
    # sum within it; rows, amplitudes and order equal the sorted cut's,
    # bit for bit, in every case.
    amps = np.array(amps, dtype=complex)
    rows = np.arange(2 * len(amps)).reshape(len(amps), 2)
    keep = _stepper._prune(amps)
    got = (rows, amps) if keep is None else (rows[keep], amps[keep])
    want = sorted_prune(rows, amps)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tobytes() == want[1].tobytes()
