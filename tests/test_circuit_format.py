"""Circuit files against docs/circuit_format.md: every record example there
loads to the same matrix as the API-built component, and every malformed
document exits 2 with its record's location and no traceback."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from photonsim.circuit import Circuit
from photonsim.cli import load_circuit_file, main
from photonsim.components import (
    BeamSplitter,
    GenericUnitary,
    Permutation,
    PhaseShifter,
    PolarizationRotator,
    PolarizingBeamSplitter,
    WavePlate,
    half_wave_plate,
)
from photonsim.errors import InvalidSpec
from photonsim.qubits import GateSequence

FORMAT = Path(__file__).parent.parent / "docs" / "circuit_format.md"
HUGE = "1" + "0" * 400  # an integer literal no float can hold


def _doc_records(key: str) -> list[dict]:
    """Every JSON object in the format reference's json blocks that has `key`."""
    records = []
    for block in re.findall(r"```json\n(.*?)```", FORMAT.read_text(encoding="utf-8"), re.S):
        try:
            candidates = [json.loads(block)]
        except ValueError:
            candidates = [json.loads(line) for line in block.splitlines() if line.startswith('{"')]
        records += [r for r in candidates if isinstance(r, dict) and key in r]
    return records


# The format reference's component examples, in order, as the API builds them.
DOC_COMPONENTS = [
    (0, BeamSplitter.h(math.pi / 2)),
    (2, PhaseShifter(math.pi / 2)),
    (0, Permutation((2, 0, 1))),
    (1, WavePlate(math.pi / 2, math.pi / 8)),
    (1, half_wave_plate(math.pi / 4)),
    (0, PolarizationRotator(math.pi / 2)),
    (0, PolarizingBeamSplitter()),
    (1, GenericUnitary([[0, 1], [1, 0]])),
]


def _load(tmp_path, document: dict):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(document))
    return load_circuit_file(str(path))


def test_every_component_example_builds_its_api_component(tmp_path):
    records = _doc_records("type")
    assert len(records) == len(DOC_COMPONENTS)
    for record, (anchor, component) in zip(records, DOC_COMPONENTS):
        polarized = record["type"] in ("wp", "hwp", "pr", "pbs")
        loaded = _load(tmp_path, {"modes": 3, "polarized": polarized, "components": [record]})
        want = Circuit(3, polarized).add(anchor, component)
        assert loaded.circuit.placements == want.placements, record
        assert np.array_equal(loaded.circuit.compile(), want.compile()), record


def test_every_gate_example_builds_its_api_gate(tmp_path):
    records = _doc_records("name")
    want = (
        GateSequence(3)
        .gate("H", 0)
        .gate("RZ", 1, math.pi / 2)
        .cnot(0, 1, "postselected")
        .controlled_pauli("CZ", 0, 1, "heralded")
        .toffoli(0, 1, 2)
        .build()
    )
    assert [r["name"] for r in records] == ["H", "RZ", "CX", "CZ", "CCX"]
    loaded = _load(tmp_path, {"modes": 6, "gates": records})
    assert loaded.herald_input == want.herald_input
    assert loaded.circuit.placements == want.circuit.placements
    assert np.array_equal(loaded.circuit.compile(), want.circuit.compile())


# (id, document text, location the error must name; None for the file path)
MALFORMED = [
    ("top-level-list", "[]", None),
    ("missing-modes", "{}", None),
    ("unknown-top-key", '{"modes": 2, "junk": true}', None),
    ("modes-float", '{"modes": 2.5}', None),
    ("modes-string", '{"modes": "4"}', None),
    ("modes-bool", '{"modes": true}', None),
    ("modes-zero", '{"modes": 0}', None),
    ("polarized-string", '{"modes": 2, "polarized": "yes"}', None),
    ("polarized-int", '{"modes": 2, "polarized": 1}', None),
    ("components-object", '{"modes": 2, "components": {}}', None),
    ("gates-string", '{"modes": 2, "gates": "H"}', None),
    ("gates-odd-modes", '{"modes": 3, "gates": [{"name": "X", "qubits": [0]}]}', None),
    ("gates-polarized", '{"modes": 2, "polarized": true, "gates": [{"name": "X", "qubits": [0]}]}', None),
    ("record-number", '{"modes": 2, "components": [5]}', "components[0]"),
    ("record-no-type", '{"modes": 2, "components": [{"anchor": 0}]}', "components[0]"),
    ("unknown-type", '{"modes": 2, "components": [{"type": "mirror", "anchor": 0}]}', "components[0]"),
    ("type-list", '{"modes": 2, "components": [{"type": ["bs"], "anchor": 0}]}', "components[0]"),
    ("bs-convention", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "convention": "bs9"}]}', "components[0]"),
    ("bs-convention-list", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "convention": ["h"]}]}', "components[0]"),
    ("bs-convention-null", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "convention": null}]}', "components[0]"),
    ("bs-no-anchor", '{"modes": 2, "components": [{"type": "bs"}]}', "components[0]"),
    ("bs1-no-theta", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "convention": "bs1"}]}', "components[0]"),
    ("h-leg-phase", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "phi_r": 0.1}]}', "components[0]"),
    ("ry-corner-phase", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "convention": "ry", "phi_tl": 0.1}]}', "components[0]"),
    ("bs2-corner-phase", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "convention": "bs2", "theta": 1, "phi_tl": 0.1}]}', "components[0]"),
    ("anchor-float", '{"modes": 3, "components": [{"type": "bs", "anchor": 1.5}]}', "components[0]"),
    ("anchor-integral-float", '{"modes": 3, "components": [{"type": "bs", "anchor": 1.0}]}', "components[0]"),
    ("anchor-bool", '{"modes": 3, "components": [{"type": "bs", "anchor": true}]}', "components[0]"),
    ("anchor-string", '{"modes": 3, "components": [{"type": "bs", "anchor": "0"}]}', "components[0]"),
    ("anchor-list", '{"modes": 3, "components": [{"type": "bs", "anchor": [0, 2]}]}', "components[0]"),
    ("anchor-null", '{"modes": 3, "components": [{"type": "bs", "anchor": null}]}', "components[0]"),
    ("anchor-out-of-range", '{"modes": 3, "components": [{"type": "bs", "anchor": 2}]}', "components[0]"),
    ("anchor-huge", f'{{"modes": 3, "components": [{{"type": "bs", "anchor": {HUGE}}}]}}', "components[0]"),
    ("theta-string", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "theta": "1.0"}]}', "components[0]"),
    ("theta-bool", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "theta": true}]}', "components[0]"),
    ("theta-huge", f'{{"modes": 2, "components": [{{"type": "bs", "anchor": 0, "theta": {HUGE}}}]}}', "components[0]"),
    ("theta-nan", '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "theta": NaN}]}', "components[0]"),
    ("phase-huge", f'{{"modes": 2, "components": [{{"type": "bs", "anchor": 0, "phi_br": -{HUGE}}}]}}', "components[0]"),
    ("ps-phi-null", '{"modes": 2, "components": [{"type": "ps", "mode": 0, "phi": null}]}', "components[0]"),
    ("ps-phi-huge", f'{{"modes": 2, "components": [{{"type": "ps", "mode": 0, "phi": {HUGE}}}]}}', "components[0]"),
    ("ps-mode-negative", '{"modes": 2, "components": [{"type": "ps", "mode": -1, "phi": 0}]}', "components[0]"),
    ("ps-anchor-key", '{"modes": 2, "components": [{"type": "ps", "anchor": 0, "phi": 0}]}', "components[0]"),
    ("ps-convention-key", '{"modes": 2, "components": [{"type": "ps", "mode": 0, "phi": 0, "convention": "h"}]}', "components[0]"),
    ("perm-target-number", '{"modes": 2, "components": [{"type": "perm", "anchor": 0, "target": 5}]}', "components[0]"),
    ("perm-target-floats", '{"modes": 2, "components": [{"type": "perm", "anchor": 0, "target": [0.0, 1.7]}]}', "components[0]"),
    ("perm-target-strings", '{"modes": 2, "components": [{"type": "perm", "anchor": 0, "target": ["1", "0"]}]}', "components[0]"),
    ("perm-target-string", '{"modes": 2, "components": [{"type": "perm", "anchor": 0, "target": "10"}]}', "components[0]"),
    ("perm-target-bools", '{"modes": 2, "components": [{"type": "perm", "anchor": 0, "target": [true, false]}]}', "components[0]"),
    ("perm-not-a-permutation", '{"modes": 2, "components": [{"type": "perm", "anchor": 0, "target": [0, 0]}]}', "components[0]"),
    ("wp-no-xi", '{"modes": 2, "polarized": true, "components": [{"type": "wp", "mode": 0, "delta": 1}]}', "components[0]"),
    ("hwp-unpolarized", '{"modes": 2, "components": [{"type": "hwp", "mode": 0, "xi": 1}]}', "components[0]"),
    ("pr-infinite", '{"modes": 2, "polarized": true, "components": [{"type": "pr", "mode": 0, "theta": Infinity}]}', "components[0]"),
    ("pbs-unknown-key", '{"modes": 2, "polarized": true, "components": [{"type": "pbs", "anchor": 0, "theta": 1}]}', "components[0]"),
    ("matrix-not-pairs", '{"modes": 2, "components": [{"type": "unitary", "anchor": 0, "matrix": [[1, 0], [0, 1]]}]}', "components[0]"),
    ("matrix-number", '{"modes": 2, "components": [{"type": "unitary", "anchor": 0, "matrix": 5}]}', "components[0]"),
    ("matrix-object-entry", '{"modes": 1, "components": [{"type": "unitary", "anchor": 0, "matrix": [[{"0": 1, "1": 0}]]}]}', "components[0]"),
    ("matrix-three-number-entry", '{"modes": 1, "components": [{"type": "unitary", "anchor": 0, "matrix": [[[1, 0, 5]]]}]}', "components[0]"),
    ("matrix-bool-entry", '{"modes": 1, "components": [{"type": "unitary", "anchor": 0, "matrix": [[[true, 0]]]}]}', "components[0]"),
    ("matrix-bool-imaginary", '{"modes": 1, "components": [{"type": "unitary", "anchor": 0, "matrix": [[[1, false]]]}]}', "components[0]"),
    ("matrix-string-entry", '{"modes": 1, "components": [{"type": "unitary", "anchor": 0, "matrix": [[["1", 0]]]}]}', "components[0]"),
    ("matrix-ragged", '{"modes": 2, "components": [{"type": "unitary", "anchor": 0, "matrix": [[[1, 0]], [[0, 0], [1, 0]]]}]}', "components[0]"),
    ("matrix-huge-entry", f'{{"modes": 1, "components": [{{"type": "unitary", "anchor": 0, "matrix": [[[{HUGE}, 0]]]}}]}}', "components[0]"),
    ("matrix-not-square", '{"modes": 2, "components": [{"type": "unitary", "anchor": 0, "matrix": [[[1, 0], [0, 0]]]}]}', "components[0]"),
    ("matrix-not-unitary", '{"modes": 2, "components": [{"type": "unitary", "anchor": 0, "matrix": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}]}', "components[0]"),
    ("second-record", '{"modes": 2, "components": [{"type": "ps", "mode": 0, "phi": 0}, {"type": "ps", "mode": 2, "phi": 0}]}', "components[1]"),
    ("gate-string", '{"modes": 2, "gates": ["H"]}', "gates[0]"),
    ("gate-no-name", '{"modes": 2, "gates": [{"qubits": [0]}]}', "gates[0]"),
    ("gate-no-qubits", '{"modes": 2, "gates": [{"name": "H"}]}', "gates[0]"),
    ("gate-unknown-key", '{"modes": 2, "gates": [{"name": "H", "qubits": [0], "junk": 1}]}', "gates[0]"),
    ("gate-unknown-name", '{"modes": 2, "gates": [{"name": "FREDKIN", "qubits": [0]}]}', "gates[0]"),
    ("gate-name-number", '{"modes": 2, "gates": [{"name": 5, "qubits": [0]}]}', "gates[0]"),
    ("qubits-number", '{"modes": 2, "gates": [{"name": "X", "qubits": 0}]}', "gates[0]"),
    ("qubit-float", '{"modes": 4, "gates": [{"name": "X", "qubits": [0.5]}]}', "gates[0]"),
    ("qubit-bool", '{"modes": 4, "gates": [{"name": "X", "qubits": [true]}]}', "gates[0]"),
    ("qubit-out-of-range", '{"modes": 4, "gates": [{"name": "X", "qubits": [2]}]}', "gates[0]"),
    ("swap-on-last-qubit", '{"modes": 4, "gates": [{"name": "SWAP", "qubits": [1]}]}', "gates[0]"),
    ("one-qubit-arity", '{"modes": 4, "gates": [{"name": "H", "qubits": [0, 1]}]}', "gates[0]"),
    ("two-qubit-arity", '{"modes": 4, "gates": [{"name": "CX", "qubits": [0]}]}', "gates[0]"),
    ("cz-arity", '{"modes": 4, "gates": [{"name": "CZ", "qubits": [0, 1, 0]}]}', "gates[0]"),
    ("three-qubit-arity", '{"modes": 6, "gates": [{"name": "CCX", "qubits": [0, 1]}]}', "gates[0]"),
    ("cx-float-control", '{"modes": 4, "gates": [{"name": "CX", "qubits": [0.0, 1]}]}', "gates[0]"),
    ("cx-same-qubits", '{"modes": 4, "gates": [{"name": "CX", "qubits": [1, 1]}]}', "gates[0]"),
    ("ccx-repeated-qubit", '{"modes": 6, "gates": [{"name": "CCX", "qubits": [0, 0, 1]}]}', "gates[0]"),
    ("cnot-flavour", '{"modes": 4, "gates": [{"name": "CZ", "qubits": [0, 1], "cnot": "lossy"}]}', "gates[0]"),
    ("cnot-on-cx", '{"modes": 4, "gates": [{"name": "CX", "qubits": [0, 1], "cnot": "heralded"}]}', "gates[0]"),
    ("cnot-on-h", '{"modes": 4, "gates": [{"name": "H", "qubits": [0], "cnot": "heralded"}]}', "gates[0]"),
    ("theta-on-cx", '{"modes": 4, "gates": [{"name": "CX", "qubits": [0, 1], "theta": 1.0}]}', "gates[0]"),
    ("theta-on-cz", '{"modes": 4, "gates": [{"name": "CZ", "qubits": [0, 1], "theta": 1.0}]}', "gates[0]"),
    ("theta-on-ccx", '{"modes": 6, "gates": [{"name": "CCX", "qubits": [0, 1, 2], "theta": 1.0}]}', "gates[0]"),
    ("theta-null-on-h", '{"modes": 2, "gates": [{"name": "H", "qubits": [0], "theta": null}]}', "gates[0]"),
    ("cnot-null", '{"modes": 4, "gates": [{"name": "CZ", "qubits": [0, 1], "cnot": null}]}', "gates[0]"),
    ("theta-on-h", '{"modes": 2, "gates": [{"name": "H", "qubits": [0], "theta": 0.5}]}', "gates[0]"),
    ("rx-no-theta", '{"modes": 2, "gates": [{"name": "RX", "qubits": [0]}]}', "gates[0]"),
    ("rx-theta-string", '{"modes": 2, "gates": [{"name": "RX", "qubits": [0], "theta": "pi"}]}', "gates[0]"),
    ("rz-theta-huge", f'{{"modes": 2, "gates": [{{"name": "RZ", "qubits": [0], "theta": {HUGE}}}]}}', "gates[0]"),
    ("second-gate", '{"modes": 4, "gates": [{"name": "H", "qubits": [0]}, {"name": "H", "qubits": [5]}]}', "gates[1]"),
]


@pytest.mark.parametrize("text, location", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_document_exits_2_naming_its_record(capsys, tmp_path, text, location):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["unitary", "--circuit", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {location or path}: "), captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("text, key", [
    ('{"modes": 2, "components": [{"type": "bs", "anchor": 0}], "components": []}', "components"),
    ('{"modes": 2, "modes": 3}', "modes"),
    ('{"modes": 3, "components": [{"type": "bs", "anchor": 0, "anchor": 1}]}', "anchor"),
    ('{"modes": 4, "gates": [{"name": "X", "qubits": [0], "name": "Z"}]}', "name"),
], ids=["top-level", "modes", "component", "gate"])
def test_repeated_key_exits_2_naming_it(capsys, tmp_path, text, key):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InvalidSpec, match=f"^{re.escape(str(path))}: duplicate key '{key}'$"):
        load_circuit_file(str(path))
    code = main(["unitary", "--circuit", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {path}: duplicate key {key!r}\n"
