"""End-to-end checks of the command-line interface against the checked-in
circuit corpus: exit codes, text/JSON output agreement, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from photonsim import grover, simulate
from photonsim.cli import load_circuit_file, main
from photonsim.errors import InvalidSpec
from photonsim.qubits import controlled_pauli

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_files_all_compile():
    for path in sorted(DATA.glob("*.json")):
        loaded = load_circuit_file(str(path))
        u = loaded.circuit.compile()
        dim = loaded.circuit.channels
        assert u.shape == (dim, dim)
        assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-9), path.name


def test_unitary_text_output(capsys):
    code, out, err = run_cli(capsys, "unitary", "--circuit", str(DATA / "h.json"))
    assert code == 0 and err == ""
    rows = out.strip().split("\n")
    assert len(rows) == 4
    first = rows[0].split()
    assert first[0].startswith("0.707106781187")


def test_unitary_json_matches_compile(capsys):
    code, out, _ = run_cli(
        capsys, "unitary", "--circuit", str(DATA / "splitter_bench.json"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    got = np.array([[complex(re, im) for re, im in row] for row in payload["unitary"]])
    want = load_circuit_file(str(DATA / "splitter_bench.json")).circuit.compile()
    assert np.allclose(got, want, atol=1e-12)


def test_simulate_reports_bits_for_codewords(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--circuit", str(DATA / "x.json"), "--input", "|1,0,1,0>"
    )
    assert code == 0
    lines = dict()
    for line in out.strip().split("\n"):
        state, rest = line.split(" -> ")
        lines[state] = rest
    assert lines["|0,1,1,0>"].startswith("10 ")
    assert "(1+0j)" in lines["|0,1,1,0>"] or "(1-0j)" in lines["|0,1,1,0>"]


def test_simulate_json_amplitudes(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--circuit",
        str(DATA / "h.json"),
        "--input",
        "|1,0,1,0>",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    amps = {o["state"]: complex(*o["amplitude"]) for o in payload["outcomes"]}
    r = 1 / math.sqrt(2)
    assert abs(amps["|1,0,1,0>"] - r) < 1e-9
    assert abs(amps["|0,1,1,0>"] - r) < 1e-9
    bits = {o["state"]: o["bits"] for o in payload["outcomes"]}
    assert bits["|1,0,1,0>"] == "00"
    assert bits["|1,1,0,0>"] is None  # off the codeword subspace


def test_simulate_heralds_are_appended_automatically(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--circuit",
        str(DATA / "bell_pair.json"),
        "--input",
        "|1,0,1,0>",
        "--postselect",
        "[4]==1 & [5]==1",
        "--renormalize",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].startswith("success=")
    success = float(lines[-1].split("=")[1])
    assert abs(success - 2.0 / 27.0) < 1e-9
    probs = {}
    for line in lines[:-1]:
        state, rest = line.split(" -> ")
        bits, value = rest.split(" ", 1)
        probs[bits] = float(value)
    assert abs(probs["00"] - 0.5) < 1e-9
    assert abs(probs["11"] - 0.5) < 1e-9


def test_simulate_text_and_json_renormalize_agree(capsys):
    args = (
        "simulate",
        "--circuit",
        str(DATA / "bell_pair.json"),
        "--input",
        "|1,0,1,0>",
        "--postselect",
        "[4]==1 & [5]==1",
        "--renormalize",
    )
    _, text_out, _ = run_cli(capsys, *args)
    _, json_out, _ = run_cli(capsys, *args, "--json")
    payload = json.loads(json_out)
    text_success = float(text_out.strip().split("\n")[-1].split("=")[1])
    assert abs(payload["success"] - text_success) < 1e-12
    json_probs = {o["state"]: o["probability"] for o in payload["outcomes"]}
    for line in text_out.strip().split("\n")[:-1]:
        state, rest = line.split(" -> ")
        assert abs(json_probs[state] - float(rest.split(" ", 1)[1])) < 1e-12


def test_sample_is_deterministic(capsys):
    args = (
        "sample",
        "--circuit",
        str(DATA / "bell_pair.json"),
        "--input",
        "|1,0,1,0>",
        "--shots",
        "400",
        "--seed",
        "11",
        "--postselect",
        "[4]==1 & [5]==1",
    )
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    counts = {}
    for line in first.strip().split("\n"):
        state, count = line.rsplit(" ", 1)
        counts[state] = int(count)
    assert sum(counts.values()) == 400
    assert set(counts) == {"|1,0,1,0,1,1>", "|0,1,0,1,1,1>"}


def test_sample_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--circuit",
        str(DATA / "h.json"),
        "--input",
        "|1,0,0,0>",
        "--shots",
        "100",
        "--seed",
        "0",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["shots"] == 100 and payload["seed"] == 0
    assert sum(entry["count"] for entry in payload["counts"]) == 100


def test_grover_command(capsys):
    code, out, _ = run_cli(capsys, "grover", "--target", "01")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "00: 0.0"
    assert lines[1].startswith("01: ") and "1.0" in lines[1]


def test_grover_json_with_counts(capsys):
    code, out, _ = run_cli(
        capsys,
        "grover",
        "--target",
        "11",
        "--variant",
        "uniform",
        "--shots",
        "64",
        "--seed",
        "3",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["00", "01", "10", "11"]
    assert abs(payload["probabilities"][3] - 1.0) < 1e-9
    assert payload["counts"] == [0, 0, 0, 64]
    assert payload["variant"] == "uniform_PR0"


def test_grover_target11_component_file_routes_to_mode_0(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--circuit",
        str(DATA / "grover_target11.json"),
        "--input",
        "|0,{P:H},0,0>",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    found = {o["state"]: complex(*o["amplitude"]) for o in payload["outcomes"]}
    winners = [s for s, a in found.items() if abs(a) > 1e-9]
    assert len(winners) == 1
    assert winners[0].startswith("|1:")  # the photon exits in spatial mode 0


# --- failure modes ----------------------------------------------------------


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "unitary", "--circuit", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_unknown_schema_key_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"modes": 2, "junk": true}')
    code, _, err = run_cli(capsys, "unitary", "--circuit", str(bad))
    assert code == 2
    assert "junk" in err


def test_gates_need_even_unpolarized_register(capsys, tmp_path):
    odd = tmp_path / "odd.json"
    odd.write_text('{"modes": 3, "gates": [{"name": "X", "qubits": [0]}]}')
    code, _, _ = run_cli(capsys, "unitary", "--circuit", str(odd))
    assert code == 2
    polarized = tmp_path / "pol.json"
    polarized.write_text(
        '{"modes": 4, "polarized": true, "gates": [{"name": "X", "qubits": [0]}]}'
    )
    code, _, _ = run_cli(capsys, "unitary", "--circuit", str(polarized))
    assert code == 2


def test_bad_input_state_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--circuit", str(DATA / "h.json"), "--input", "|1,0"
    )
    assert code == 2
    assert "offset" in err


def test_simulate_over_the_work_bound_exits_3(capsys, monkeypatch):
    # |1,0,1,0> on h.json: 2 photons over the 4-channel sector.
    monkeypatch.setattr(simulate, "_MAX_WORK", 0)
    code, out, err = run_cli(
        capsys, "simulate", "--circuit", str(DATA / "h.json"), "--input", "|1,0,1,0>"
    )
    assert code == 3 and out == ""
    assert err.startswith("error: the sweep needs 2^2 x ") and "more than the 0 allowed" in err


def test_grover_rejects_negative_shots_first(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(grover, "run_grover", no_work)
    code, out, err = run_cli(capsys, "grover", "--target", "00", "--shots", "-1")
    assert (code, out, err) == (2, "", "error: shots must be >= 0, got -1\n")


def test_wrong_register_width_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--circuit", str(DATA / "h.json"), "--input", "|1,0>"
    )
    assert code == 2


def test_bad_predicate_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--circuit",
        str(DATA / "h.json"),
        "--input",
        "|1,0,0,0>",
        "--postselect",
        "[0,1==1",
    )
    assert code == 2
    assert "offset 4" in err


def test_predicate_out_of_range_exits_3(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--circuit",
        str(DATA / "h.json"),
        "--input",
        "|1,0,0,0>",
        "--postselect",
        "[9]==0",
    )
    assert code == 3
    assert "mode 9" in err


def test_predicate_is_checked_before_min_photons(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--circuit", str(DATA / "h.json"), "--input", "|1,0,1,0>",
        "--postselect", "[9]==0", "--min-photons", "5",
    )
    assert code == 3 and out == ""
    assert "mode 9" in err


@pytest.mark.parametrize("name", ["CZ", "CY"])
@pytest.mark.parametrize("flavour", [None, "postselected", "heralded"])
def test_controlled_pauli_gate_record_matches_api(tmp_path, name, flavour):
    record = {"name": name, "qubits": [1, 0]}
    if flavour is not None:
        record["cnot"] = flavour
    path = tmp_path / "cp.json"
    path.write_text(json.dumps({"modes": 4, "gates": [record]}))
    loaded = load_circuit_file(str(path))
    build = controlled_pauli(name, 1, 0, 2, flavour or "postselected")
    assert np.array_equal(loaded.circuit.compile(), build.circuit.compile())
    assert loaded.herald_input == build.herald_input


@pytest.mark.parametrize(
    "name, qubits, flavour",
    [("CX", [0, 1], "heralded"), ("HCX", [0, 1], "postselected"), ("CCX", [0, 1, 2], "postselected")],
)
def test_cnot_key_rejected_on_cnot_gates(tmp_path, name, qubits, flavour):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"modes": 6, "gates": [{"name": name, "qubits": qubits, "cnot": flavour}]}))
    with pytest.raises(InvalidSpec, match="'cnot' only applies to CZ/CY"):
        load_circuit_file(str(path))


def test_unknown_gate_in_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "gate.json"
    bad.write_text('{"modes": 4, "gates": [{"name": "FREDKIN", "qubits": [0]}]}')
    code, _, err = run_cli(capsys, "unitary", "--circuit", str(bad))
    assert code == 2
    assert "FREDKIN" in err


def test_non_unitary_matrix_exits_2(capsys, tmp_path):
    bad = tmp_path / "block.json"
    bad.write_text(
        '{"modes": 2, "components": ['
        '{"type": "unitary", "anchor": 0, "matrix": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}]}'
    )
    code, _, _ = run_cli(capsys, "unitary", "--circuit", str(bad))
    assert code == 2


def test_argparse_errors_return_2(capsys):
    assert main(["grover", "--target", "22"]) == 2
    assert main([]) == 2
    capsys.readouterr()
