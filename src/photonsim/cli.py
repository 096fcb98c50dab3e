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
from json.encoder import encode_basestring_ascii

from . import grover as grover_mod
from ._sampling import require_shots
from .circuit import Circuit
from .components import (
    BeamSplitter,
    GenericUnitary,
    Permutation,
    PhaseShifter,
    PolarizationRotator,
    PolarizingBeamSplitter,
    WavePlate,
    half_wave_plate,
)
from .errors import InvalidSpec, SimulatorError
from .fock import FockState, StateVector
from .notation import format_state, parse_state
from .postselect import Processor, parse_postselect, require_min_photons
from .qubits import GateSequence, NonCodeword, PolarizationEncoding, data_bits
from .simulate import sample
from .simulate import batch_amplitudes  # noqa: F401  (bench/test_bench.py checks this binding)


@dataclass(frozen=True)
class LoadedCircuit:
    """A circuit file after validation: the register may have grown past the
    file's `modes` by the auxiliary pairs of any CNOT-bearing gates."""

    circuit: Circuit
    data_modes: int
    herald_input: tuple[int, ...]


def _require_keys(record: dict, required: frozenset, allowed: frozenset):
    missing = required.difference(record)
    if missing:
        raise InvalidSpec(f"missing key(s) {sorted(missing)}")
    unknown = record.keys() - allowed
    if unknown:
        raise InvalidSpec(f"unknown key(s) {sorted(unknown)}")
    if None in record.values():
        raise InvalidSpec(f"null value for key(s) {sorted(k for k, v in record.items() if v is None)}")


def _pair(entry) -> list:
    """A matrix entry: a list of exactly two real numbers, booleans not
    counted as numbers; else TypeError."""
    if not (type(entry) is list and len(entry) == 2
            and all(type(x) in (int, float) for x in entry)):
        raise TypeError
    return entry


def _matrix_block(matrix) -> GenericUnitary:
    try:
        values = [[complex(*_pair(entry)) for entry in row] for row in matrix]
    except (TypeError, OverflowError):
        raise InvalidSpec("matrix must be rows of [re, im] pairs") from None
    return GenericUnitary(values)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; InvalidSpec names a repeated key,
    which a plain dict would silently overwrite."""
    record = dict(pairs)
    if len(record) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise InvalidSpec(f"duplicate key {repeated!r}")
    return record


def _schema(place: str, required: tuple, optional: tuple, make) -> tuple:
    """(required keys, allowed keys, placing key, parameters, constructor)."""
    keys = frozenset({"type", place, *required})
    return keys, keys.union(optional), place, (*required, *optional), make


_CORNER_PHASES = ("phi_tl", "phi_bl", "phi_tr", "phi_br")
_LEG_PHASES = ("phi_r", "phi_t", "phi_0")

#: Record type, or ("bs", convention), -> its schema.  A record holds its
#: "type", its placing key and the constructor's keyword parameters; the
#: constructor checks every value, and `Circuit.add` the placing key.
_COMPONENTS = {
    ("bs", "h"): _schema("anchor", (), ("convention", "theta", *_CORNER_PHASES), BeamSplitter),
    ("bs", "rx"): _schema("anchor", (), ("convention", "theta", *_CORNER_PHASES), BeamSplitter),
    ("bs", "ry"): _schema("anchor", (), ("convention", "theta"), BeamSplitter),
    **{("bs", c): _schema("anchor", ("convention", "theta"), _LEG_PHASES, BeamSplitter)
       for c in ("bs1", "bs2", "bs3")},
    "ps": _schema("mode", ("phi",), (), PhaseShifter),
    "perm": _schema("anchor", ("target",), (), Permutation),
    "wp": _schema("mode", ("delta", "xi"), (), WavePlate),
    "hwp": _schema("mode", ("xi",), (), half_wave_plate),
    "pr": _schema("mode", ("theta",), (), PolarizationRotator),
    "pbs": _schema("anchor", (), (), PolarizingBeamSplitter),
    "unitary": _schema("anchor", ("matrix",), (), _matrix_block),
}


def _component(record) -> tuple:
    """One component record -> (placing key's value, component)."""
    if not isinstance(record, dict) or "type" not in record:
        raise InvalidSpec("expected an object with a 'type' key")
    kind = record["type"]
    key = ("bs", record.get("convention", "h")) if kind == "bs" else kind
    try:
        required, allowed, place, params, make = _COMPONENTS[key]
    except (KeyError, TypeError):  # TypeError: a list or object as the key
        what = f"bs convention {key[1]!r}" if kind == "bs" else f"component type {kind!r}"
        raise InvalidSpec(f"unknown {what}") from None
    _require_keys(record, required, allowed)
    return record[place], make(**{k: record[k] for k in params if k in record})


_GATE_KEYS = frozenset({"name", "qubits"})

#: Gate name -> (qubit count, keys beside "name" and "qubits", call with the
#: sequence, the name, the qubits and those keys); `GateSequence` checks
#: every value.
_GATES = {
    **dict.fromkeys(("X", "Y", "Z", "H", "S", "SDAG", "T", "TDAG", "RX", "RY", "RZ", "SWAP"),
                    (1, frozenset({"theta"}), GateSequence.gate)),
    "CX": (2, frozenset(), lambda seq, name, c, t: seq.cnot(c, t, "postselected")),
    "HCX": (2, frozenset(), lambda seq, name, c, t: seq.cnot(c, t, "heralded")),
    **dict.fromkeys(("CZ", "CY"), (2, frozenset({"cnot"}), GateSequence.controlled_pauli)),
    "CCX": (3, frozenset(), lambda seq, name, *qubits: seq.toffoli(*qubits)),
}


def _apply_gate(seq: GateSequence, record):
    if not isinstance(record, dict) or "name" not in record:
        raise InvalidSpec("expected an object with a 'name' key")
    name = str(record["name"]).strip().upper()
    if name not in _GATES:
        raise InvalidSpec(f"unknown gate {record['name']!r}")
    arity, options, apply = _GATES[name]
    if "cnot" in record and "cnot" not in options:
        raise InvalidSpec("'cnot' only applies to CZ/CY")
    _require_keys(record, _GATE_KEYS, _GATE_KEYS | options)
    qubits = record["qubits"]
    if not isinstance(qubits, list) or len(qubits) != arity:
        raise InvalidSpec(f"{name} takes a list of {arity} qubit(s), got {qubits!r}")
    apply(seq, name, *qubits, **{k: record[k] for k in options if k in record})


def load_circuit_file(path: str) -> LoadedCircuit:
    """Read, validate and build a circuit file.  Unknown keys are rejected.
    A SimulatorError keeps its type; its message starts with the record it
    comes from (`components[i]`, `gates[i]`), or else with `path`."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InvalidSpec(f"{path}: not valid JSON ({exc})") from None
        except InvalidSpec as exc:
            raise InvalidSpec(f"{path}: {exc}") from None
    where = path
    try:
        if not isinstance(document, dict):
            raise InvalidSpec("top level must be an object")
        _require_keys(document, frozenset({"modes"}),
                      frozenset({"modes", "polarized", "components", "gates"}))
        circuit = Circuit(document["modes"], document.get("polarized", False))
        modes = circuit.modes
        components = document.get("components", [])
        gates = document.get("gates", [])
        if not isinstance(components, list) or not isinstance(gates, list):
            raise InvalidSpec("components and gates must be lists")
        build = None
        if gates:
            if circuit.polarized:
                raise InvalidSpec("gates need an unpolarized register")
            if modes % 2:
                raise InvalidSpec("gates need an even number of modes")
            seq = GateSequence(modes // 2)
            for i, record in enumerate(gates):
                where = f"gates[{i}]"
                _apply_gate(seq, record)
            where = path
            build = seq.build()
            circuit = Circuit(build.circuit.modes)
        for i, record in enumerate(components):
            where = f"components[{i}]"
            circuit = circuit.add(*_component(record))
    except SimulatorError as exc:
        exc.args = (f"{where}: {exc}",)
        raise
    if build is not None:
        circuit = circuit.compose(build.circuit)
    return LoadedCircuit(circuit, modes, build.herald_input if build else ())


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
        print(_dumps({"modes": loaded.circuit.modes, "unitary": payload}))
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
            print(_dumps(payload))
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
        print(_dumps(payload))
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
        print(_dumps(payload))
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
        print(_dumps(payload))
    else:
        for label in labels:
            print(f"{label}: {result.probabilities[label]!r}")
        if args.shots:
            print("counts:")
            for label in labels:
                print(f"{label}: {result.counts[label]}")
    return 0


def _dumps(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for values whose dict
    keys are strs, without the pure-Python encoder that `indent` selects;
    `pad` leads each line of the text past its first."""
    if isinstance(value, float) and math.isfinite(value):  # np.float64 too
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)) and value:
        return f"[{inner}{(',' + inner).join([_dumps(item, inner) for item in value])}{pad}]"
    if isinstance(value, dict) and value:
        items = [f"{encode_basestring_ascii(key)}: {_dumps(item, inner)}"
                 for key, item in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    return json.dumps(value)  # [], {}, NaN and ±inf as json prints them; TypeError for the rest


def _fail(code: int, exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and {command: (its subparser, its handler)},
    shared by every `main` call: a parse returns a fresh namespace each time
    and every default is an immutable scalar, so no call sees another's flags."""
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
    return parser, {"unitary": (unitary, _cmd_unitary), "simulate": (simulate, _cmd_simulate),
                    "sample": (sample_cmd, _cmd_sample), "grover": (grover, _cmd_grover)}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    `main` can be called repeatedly in one process.  The argument parsers
    are built on the first call and reused; each call parses `argv` (default
    `sys.argv[1:]`) afresh, straight into its command's subparser, and
    writes to the current `sys.stdout` and `sys.stderr`.  When the reader
    of stdout closes it before the output ends, the command stops without a
    traceback and returns 1; the process's stdout file descriptor then
    stays pointed at devnull, so later output to it in the same process is
    dropped.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in commands:
            # What `parser.parse_args` does for a command, less its own pass.
            args, extra = commands[argv[0]][0].parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
        else:  # help, usage errors and any other argv
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = commands[args.command][1](args)
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
