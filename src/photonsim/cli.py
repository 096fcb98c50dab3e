"""Command-line front end.

Subcommands: `unitary` (compiled matrix of a circuit file), `simulate`
(output amplitudes for a Fock input), `sample` (seeded counts) and `grover`
(the prebuilt polarization search).  Circuit files are JSON; all angles are
decimal radians.  Exit codes: 0 success, 1 stdout closed early (as by
`| head`), 2 bad input, 3 evaluation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import grover as grover_mod
from .circuit import Circuit
from .components import (
    BeamSplitter,
    GenericUnitary,
    Permutation,
    PhaseShifter,
    PolarizationRotator,
    PolarizingBeamSplitter,
    WavePlate,
)
from .errors import InvalidSpec, SimulatorError
from .fock import FockState, StateVector
from .notation import format_state, parse_state
from .postselect import Processor, parse_postselect, require_min_photons
from .qubits import GateSequence, NonCodeword, PolarizationEncoding, data_bits
from .simulate import require_shots, sample
from .simulate import batch_amplitudes  # noqa: F401  (bench/test_bench.py checks this binding)


@dataclass(frozen=True)
class LoadedCircuit:
    """A circuit file after validation: the register may have grown past the
    file's `modes` by the auxiliary pairs of any CNOT-bearing gates."""

    circuit: Circuit
    data_modes: int
    herald_input: tuple[int, ...]


def _require_keys(record: dict, required: set[str], optional: set[str], what: str):
    keys = set(record)
    missing = required - keys
    if missing:
        raise InvalidSpec(f"{what}: missing key(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise InvalidSpec(f"{what}: unknown key(s) {sorted(unknown)}")


def _number(record: dict, key: str, what: str) -> float:
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSpec(f"{what}: {key} must be a number, got {value!r}")
    return float(value)


def _integer(record: dict, key: str, what: str) -> int:
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"{what}: {key} must be an integer, got {value!r}")
    return value


_BS_CORNER_PHASES = ("phi_tl", "phi_bl", "phi_tr", "phi_br")
_BS_LEG_PHASES = ("phi_r", "phi_t", "phi_0")


def _component_from_record(record: dict, index: int):
    """One schema record -> (anchor mode, component)."""
    what = f"components[{index}]"
    if not isinstance(record, dict) or "type" not in record:
        raise InvalidSpec(f"{what}: expected an object with a 'type' key")
    kind = record["type"]
    if kind == "bs":
        convention = record.get("convention", "h")
        if convention in ("h", "rx"):
            _require_keys(record, {"type", "anchor"},
                          {"convention", "theta", *_BS_CORNER_PHASES}, what)
            theta = _number(record, "theta", what) if "theta" in record else math.pi / 2
            phases = {p: _number(record, p, what) for p in _BS_CORNER_PHASES if p in record}
            maker = BeamSplitter.h if convention == "h" else BeamSplitter.rx
            return _integer(record, "anchor", what), maker(theta, **phases)
        if convention == "ry":
            _require_keys(record, {"type", "anchor"}, {"convention", "theta"}, what)
            theta = _number(record, "theta", what) if "theta" in record else math.pi / 2
            return _integer(record, "anchor", what), BeamSplitter.ry(theta)
        if convention in ("bs1", "bs2", "bs3"):
            _require_keys(record, {"type", "anchor", "theta"},
                          {"convention", *_BS_LEG_PHASES}, what)
            phases = {p: _number(record, p, what) for p in _BS_LEG_PHASES if p in record}
            maker = getattr(BeamSplitter, convention)
            return _integer(record, "anchor", what), maker(_number(record, "theta", what), **phases)
        raise InvalidSpec(f"{what}: unknown bs convention {convention!r}")
    if kind == "ps":
        _require_keys(record, {"type", "mode", "phi"}, set(), what)
        return _integer(record, "mode", what), PhaseShifter(_number(record, "phi", what))
    if kind == "perm":
        _require_keys(record, {"type", "anchor", "target"}, set(), what)
        target = record["target"]
        if not isinstance(target, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in target
        ):
            raise InvalidSpec(f"{what}: target must be a list of integers")
        return _integer(record, "anchor", what), Permutation(tuple(target))
    if kind == "wp":
        _require_keys(record, {"type", "mode", "delta", "xi"}, set(), what)
        return _integer(record, "mode", what), WavePlate(
            _number(record, "delta", what), _number(record, "xi", what)
        )
    if kind == "hwp":
        _require_keys(record, {"type", "mode", "xi"}, set(), what)
        return _integer(record, "mode", what), WavePlate(math.pi / 2, _number(record, "xi", what))
    if kind == "pr":
        _require_keys(record, {"type", "mode", "theta"}, set(), what)
        return _integer(record, "mode", what), PolarizationRotator(_number(record, "theta", what))
    if kind == "pbs":
        _require_keys(record, {"type", "anchor"}, set(), what)
        return _integer(record, "anchor", what), PolarizingBeamSplitter()
    if kind == "unitary":
        _require_keys(record, {"type", "anchor", "matrix"}, set(), what)
        rows = record["matrix"]
        try:
            values = [[complex(entry[0], entry[1]) for entry in row] for row in rows]
        except (TypeError, IndexError):
            raise InvalidSpec(f"{what}: matrix must be rows of [re, im] pairs") from None
        return _integer(record, "anchor", what), GenericUnitary(values)
    raise InvalidSpec(f"{what}: unknown component type {kind!r}")


_SINGLE_GATES = {"X", "Y", "Z", "H", "S", "SDAG", "T", "TDAG", "RX", "RY", "RZ", "SWAP"}


def _apply_gate_record(seq: GateSequence, record: dict, index: int):
    what = f"gates[{index}]"
    if not isinstance(record, dict) or "name" not in record:
        raise InvalidSpec(f"{what}: expected an object with a 'name' key")
    allowed = {"name", "qubits", "theta", "cnot"}
    _require_keys(record, {"name", "qubits"}, allowed - {"name", "qubits"}, what)
    name = str(record["name"]).strip().upper()
    qubits = record["qubits"]
    if not isinstance(qubits, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in qubits
    ):
        raise InvalidSpec(f"{what}: qubits must be a list of integers")
    theta = _number(record, "theta", what) if "theta" in record else None
    flavour = record.get("cnot", "postselected")
    if flavour not in ("postselected", "heralded"):
        raise InvalidSpec(f"{what}: cnot must be 'postselected' or 'heralded'")
    if "cnot" in record and name in _SINGLE_GATES | {"CX", "HCX", "CCX"}:
        raise InvalidSpec(f"{what}: 'cnot' only applies to CZ/CY")
    if name in _SINGLE_GATES:
        if len(qubits) != 1:
            raise InvalidSpec(f"{what}: {name} takes exactly one qubit")
        seq.gate(name, qubits[0], theta)
        return
    if name in ("CX", "HCX"):
        if len(qubits) != 2:
            raise InvalidSpec(f"{what}: {name} takes [control, target]")
        seq.cnot(qubits[0], qubits[1], "postselected" if name == "CX" else "heralded")
        return
    if name in ("CZ", "CY"):
        if len(qubits) != 2:
            raise InvalidSpec(f"{what}: {name} takes [control, target]")
        seq.controlled_pauli(name, qubits[0], qubits[1], flavour)
        return
    if name == "CCX":
        if len(qubits) != 3:
            raise InvalidSpec(f"{what}: CCX takes [control, control, target]")
        seq.toffoli(qubits[0], qubits[1], qubits[2])
        return
    raise InvalidSpec(f"{what}: unknown gate {record['name']!r}")


def load_circuit_file(path: str) -> LoadedCircuit:
    """Read, validate and build a circuit file.  Unknown keys are rejected."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InvalidSpec(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise InvalidSpec(f"{path}: top level must be an object")
    _require_keys(document, {"modes"}, {"polarized", "components", "gates"}, path)
    modes = _integer(document, "modes", path)
    polarized = document.get("polarized", False)
    if not isinstance(polarized, bool):
        raise InvalidSpec(f"{path}: polarized must be true or false")
    components = document.get("components", [])
    gates = document.get("gates", [])
    if not isinstance(components, list) or not isinstance(gates, list):
        raise InvalidSpec(f"{path}: components and gates must be lists")

    herald: tuple[int, ...] = ()
    total = modes
    build = None
    if gates:
        if polarized:
            raise InvalidSpec(f"{path}: gates need an unpolarized register")
        if modes % 2:
            raise InvalidSpec(f"{path}: gates need an even number of modes")
        seq = GateSequence(modes // 2)
        for i, record in enumerate(gates):
            _apply_gate_record(seq, record, i)
        build = seq.build()
        herald = build.herald_input
        total = build.circuit.modes

    base = Circuit(total, polarized)
    for i, record in enumerate(components):
        anchor, component = _component_from_record(record, i)
        base = base.add(anchor, component)
    if build is not None:
        base = base.compose(build.circuit)
    return LoadedCircuit(base, modes, herald)


def _prepare_input(loaded: LoadedCircuit, text: str) -> FockState:
    state = parse_state(text)
    if state.polarized != loaded.circuit.polarized:
        raise InvalidSpec(
            "input state and circuit disagree on polarization"
        )
    if state.modes == loaded.data_modes and loaded.herald_input:
        state = FockState(
            state.occupations + loaded.herald_input, state.polarized
        )
    if state.modes != loaded.circuit.modes:
        raise InvalidSpec(
            f"input has {state.modes} modes, circuit needs "
            f"{loaded.data_modes} (or {loaded.circuit.modes} with heralds)"
        )
    return state


def _bits_label(state: FockState, data_modes: int) -> str | None:
    """Dual-rail/polarization reading of the data modes, None off-codeword."""
    if state.polarized:
        if state.modes != 2:
            return None
        bits = PolarizationEncoding().decode(state)
    else:
        if data_modes % 2 or data_modes == 0:
            return None
        bits = data_bits(state, data_modes // 2)
    if bits is NonCodeword:
        return None
    return "".join(str(b) for b in bits)


def _fmt_entry(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _cmd_unitary(args) -> int:
    try:
        loaded = load_circuit_file(args.circuit)
    except (SimulatorError, OSError) as exc:
        return _fail(2, exc)
    try:
        matrix = loaded.circuit.compile()
    except SimulatorError as exc:
        return _fail(3, exc)
    if args.json:
        payload = [[[value.real, value.imag] for value in row] for row in matrix]
        print(json.dumps({"modes": loaded.circuit.modes, "unitary": payload}, indent=2))
    else:
        for row in matrix:
            print(" ".join(_fmt_entry(value) for value in row))
    return 0


def _cmd_simulate(args) -> int:
    try:
        loaded = load_circuit_file(args.circuit)
        state = _prepare_input(loaded, args.input)
        postselect = parse_postselect(args.postselect) if args.postselect else None
        require_min_photons(args.min_photons)
    except (SimulatorError, OSError) as exc:
        return _fail(2, exc)
    try:
        processor = Processor(loaded.circuit, StateVector.basis(state), postselect,
                              args.min_photons)
        lines = processor.amplitudes()
    except SimulatorError as exc:
        return _fail(3, exc)

    records = []
    for target, amp in lines:
        records.append((format_state(target), _bits_label(target, loaded.data_modes), amp))
    if args.renormalize:
        success = sum(abs(amp) ** 2 for _, _, amp in records)
        if args.json:
            payload = {
                "input": format_state(state),
                "outcomes": [
                    {"state": text, "bits": bits,
                     "probability": abs(amp) ** 2 / success if success > 0 else 0.0}
                    for text, bits, amp in records
                ],
                "success": success,
            }
            print(json.dumps(payload, indent=2))
        else:
            for text, bits, amp in records:
                p = abs(amp) ** 2 / success if success > 0 else 0.0
                print(f"{text} -> {bits if bits is not None else '-'} {p!r}")
            print(f"success={success!r}")
    elif args.json:
        payload = {
            "input": format_state(state),
            "outcomes": [
                {"state": text, "bits": bits, "amplitude": [amp.real, amp.imag]}
                for text, bits, amp in records
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for text, bits, amp in records:
            print(f"{text} -> {bits if bits is not None else '-'} {amp!r}")
    return 0


def _cmd_sample(args) -> int:
    try:
        loaded = load_circuit_file(args.circuit)
        state = _prepare_input(loaded, args.input)
        postselect = parse_postselect(args.postselect) if args.postselect else None
        require_shots(args.shots)
        require_min_photons(args.min_photons)
    except (SimulatorError, OSError, ValueError) as exc:
        return _fail(2, exc)
    try:
        processor = Processor(loaded.circuit, StateVector.basis(state), postselect,
                              args.min_photons)
        conditioned, _success = processor.run()
        counts = sample(conditioned, args.shots, args.seed)
    except (SimulatorError, ValueError) as exc:
        return _fail(3, exc)
    if args.json:
        payload = {
            "shots": counts.shots,
            "seed": counts.seed,
            "counts": [
                {"state": format_state(s), "count": c} for s, c in counts.items()
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for outcome, count in counts.items():
            print(f"{format_state(outcome)} {count}")
    return 0


_VARIANT_FLAGS = {"per-mode": "per_mode_PR", "uniform": "uniform_PR0"}


def _cmd_grover(args) -> int:
    variant = _VARIANT_FLAGS[args.variant]
    try:
        require_shots(args.shots)
    except ValueError as exc:
        return _fail(2, exc)
    try:
        result = grover_mod.run_grover(args.target, variant, args.shots, args.seed)
    except (SimulatorError, ValueError) as exc:
        return _fail(3, exc)
    labels = list(grover_mod.TARGETS)
    if args.json:
        payload = {
            "target": result.target,
            "variant": result.variant,
            "labels": labels,
            "probabilities": [result.probabilities[label] for label in labels],
        }
        if args.shots:
            payload["shots"] = result.shots
            payload["seed"] = result.seed
            payload["counts"] = [result.counts[label] for label in labels]
        print(json.dumps(payload, indent=2))
    else:
        for label in labels:
            print(f"{label}: {result.probabilities[label]!r}")
        if args.shots:
            print("counts:")
            for label in labels:
                print(f"{label}: {result.counts[label]}")
    return 0


def _fail(code: int, exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Shared by every `main` call: `parse_args` returns a fresh namespace
    each time and every default is an immutable scalar, so no call sees
    another's flags."""
    parser = argparse.ArgumentParser(
        prog="photonsim",
        description="Exact simulator for discrete-variable photonic circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    unitary = sub.add_parser("unitary", help="print a circuit file's compiled unitary")
    unitary.add_argument("--circuit", required=True, help="path to a circuit JSON file")
    unitary.add_argument("--json", action="store_true", help="emit JSON instead of text")

    simulate = sub.add_parser("simulate", help="output amplitudes for a Fock input")
    simulate.add_argument("--circuit", required=True)
    simulate.add_argument("--input", required=True, help='Fock state, e.g. "|1,0,1,0>"')
    simulate.add_argument("--postselect", help='predicate, e.g. "[0,1]==1 & [4]==0"')
    simulate.add_argument("--min-photons", type=int, default=0, dest="min_photons")
    simulate.add_argument("--renormalize", action="store_true",
                          help="print conditioned probabilities and a success= line")
    simulate.add_argument("--json", action="store_true")

    sample_cmd = sub.add_parser("sample", help="seeded outcome counts")
    sample_cmd.add_argument("--circuit", required=True)
    sample_cmd.add_argument("--input", required=True)
    sample_cmd.add_argument("--shots", type=int, required=True)
    sample_cmd.add_argument("--seed", type=int, default=0)
    sample_cmd.add_argument("--postselect")
    sample_cmd.add_argument("--min-photons", type=int, default=0, dest="min_photons")
    sample_cmd.add_argument("--json", action="store_true")

    grover = sub.add_parser("grover", help="two-qubit polarization search")
    grover.add_argument("--target", required=True, choices=list(grover_mod.TARGETS))
    grover.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default="per-mode")
    grover.add_argument("--shots", type=int, default=0)
    grover.add_argument("--seed", type=int, default=0)
    grover.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    `main` can be called repeatedly in one process.  The argument parser is
    built on the first call and reused; each call parses `argv` (default
    `sys.argv[1:]`) afresh and writes to the current `sys.stdout` and
    `sys.stderr`.  When the reader of stdout closes it before the output
    ends, the command stops without a traceback and returns 1; the
    process's stdout file descriptor then stays pointed at devnull, so
    later output to it in the same process is dropped.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler = {
        "unitary": _cmd_unitary,
        "simulate": _cmd_simulate,
        "sample": _cmd_sample,
        "grover": _cmd_grover,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit of what is still
        # buffered does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
