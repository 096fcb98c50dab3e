"""End-to-end checks of the command-line interface against the checked-in
circuit corpus: exit codes, text/JSON output agreement, determinism."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsim import _kernels, _sectors, cli, grover
from photonsim.cli import _build_parser, load_circuit_file, main
from photonsim.errors import InvalidSpec, ParseError
from photonsim.notation import parse_state
from photonsim.postselect import parse_postselect
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


def test_repeated_main_calls_share_the_parser_but_no_flags(capsys):
    bell = ("sample", "--circuit", str(DATA / "bell_pair.json"), "--input", "|1,0,1,0>",
            "--shots", "400", "--postselect", "[4]==1 & [5]==1")
    first = run_cli(capsys, *bell)
    assert first[0] == 0 and run_cli(capsys, *bell) == first
    seeded = run_cli(capsys, *bell, "--seed", "5")
    assert seeded[0] == 0 and seeded[1] != first[1]
    assert run_cli(capsys, *bell) == first == run_cli(capsys, *bell, "--seed", "0")

    h = ("simulate", "--circuit", str(DATA / "h.json"), "--input", "|1,0,1,0>")
    plain = run_cli(capsys, *h)
    assert plain[0] == 0 and "success=" not in plain[1]
    assert "\nsuccess=" in run_cli(capsys, *h, "--renormalize")[1]
    assert run_cli(capsys, *h) == plain

    code, out, err = run_cli(capsys, "simulate", "--bogus")
    assert (code, out) == (2, "") and err.startswith("usage: photonsim simulate")
    assert run_cli(capsys, *h) == plain
    assert _build_parser() is _build_parser()


# --- failure modes ----------------------------------------------------------


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "unitary", "--circuit", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_unitary_of_a_billion_modes_exits_3(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text('{"modes": 1000000000, "components": []}')
    code, out, err = run_cli(capsys, "unitary", "--circuit", str(huge))
    assert code == 3 and out == ""
    assert err == ("error: the 1000000000-channel unitary needs 16000000000000000000 bytes, "
                   "more than the 1073741824 allowed\n")


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
    # |1,0,1,0> on h.json: 2 photons over the 4-channel sector, whose SLOS
    # tables hold 4 + 10 rows of 4 entries.
    monkeypatch.setattr(_kernels, "_MAX_WORK", 0)
    code, out, err = run_cli(
        capsys, "simulate", "--circuit", str(DATA / "h.json"), "--input", "|1,0,1,0>"
    )
    assert code == 3 and out == ""
    assert err == "error: the expansion needs 4 x 14 = 56 vector elements, more than the 0 allowed\n"


def test_simulate_of_171_photons_exits_3(capsys, tmp_path):
    circuit = tmp_path / "c.json"
    circuit.write_text(json.dumps({"modes": 3, "components": [
        {"type": "bs", "anchor": 0, "convention": "h"},
        {"type": "perm", "anchor": 1, "target": [1, 0]}]}))
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(circuit),
                             "--input", "|171,0,0>", "--postselect", "[0]==171")
    assert code == 3 and out == ""
    assert err.startswith("error: the stepwise evolution reaches ")


def test_simulate_past_the_enumeration_budget_exits_3(capsys, monkeypatch):
    # 86,493,225 outcomes keep [0]==0; the lowered budget refuses them early.
    monkeypatch.setattr(_sectors, "_ENUMERATION_BYTES", 1 << 20)
    code, out, err = run_cli(
        capsys, "simulate", "--circuit", str(DATA / "wide20.json"),
        "--input", "|" + ",".join(["1"] * 12 + ["0"] * 8) + ">", "--postselect", "[0]==0",
    )
    assert code == 3 and out == ""
    assert err.startswith("error: the outcome enumeration reaches ")


def test_enumeration_budget_counts_the_steps_it_keeps(capsys, monkeypatch):
    # 12 photons on 20 modes under [0]==0: channel 0 grows one row and
    # channel c >= 1 C(12 + c, c), each of 8 x (20 + 1 + 4) bytes, and every
    # step keeps 16 bytes a row.  At 1,250,000 bytes the step at channel 5
    # fits alone but not with the steps kept before it.
    rows = [1] + [math.comb(12 + c, c) for c in range(1, 19)]
    summed = [16 * sum(rows[:c]) + 200 * rows[c] for c in range(19)]
    for budget in (1 << 20, 1_250_000, 5 << 20):
        monkeypatch.setattr(_sectors, "_ENUMERATION_BYTES", budget)
        code, out, err = run_cli(
            capsys, "simulate", "--circuit", str(DATA / "wide20.json"),
            "--input", "|" + ",".join(["1"] * 12 + ["0"] * 8) + ">", "--postselect", "[0]==0",
        )
        assert code == 3 and out == ""
        refused = int(re.search(r"rows at channel (\d+) of 20, ", err).group(1))
        assert refused <= next(c for c, b in enumerate(summed) if b > budget)


def test_grover_rejects_negative_shots_first(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(grover, "run_grover", no_work)
    code, out, err = run_cli(capsys, "grover", "--target", "00", "--shots", "-1")
    assert (code, out, err) == (2, "", "error: shots must be >= 0, got -1\n")


@pytest.mark.parametrize("command, argv", [
    ("grover", ["--target", "01"]),
    ("sample", ["--circuit", str(DATA / "h.json"), "--input", "|1,0,1,0>"]),
])
def test_shots_past_int64_exit_2_before_any_work(command, argv, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(grover, "run_grover", no_work)
    monkeypatch.setattr(cli, "sample", no_work)
    code, out, err = run_cli(capsys, command, *argv, "--shots", str(2**63))
    assert (code, out, err) == (
        2, "", "error: shots must be at most 2^63 - 1, got 9223372036854775808\n")


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


@pytest.mark.parametrize(
    "document",
    [
        '{"modes": 2, "components": [{"type": "bs", "anchor": 0, "theta": NaN}]}',
        '{"modes": 1, "components": [{"type": "ps", "mode": 0, "phi": Infinity}]}',
        '{"modes": 2, "gates": [{"name": "RX", "qubits": [0], "theta": NaN}]}',
    ],
)
@pytest.mark.parametrize("command", ["unitary", "simulate", "sample"])
def test_non_finite_parameters_exit_2(capsys, tmp_path, document, command):
    path = tmp_path / "nonfinite.json"
    path.write_text(document)
    extra = {"unitary": [], "simulate": ["--input", "|1,0>"],
             "sample": ["--input", "|1,0>", "--shots", "5"]}[command]
    code, out, err = run_cli(capsys, command, "--circuit", str(path), *extra)
    assert (code, out) == (2, "")
    assert "must be a finite real number" in err


@pytest.mark.parametrize("theta", ["NaN", "0.5"])
@pytest.mark.parametrize("command", ["unitary", "simulate"])
def test_angle_on_a_fixed_gate_exits_2(capsys, tmp_path, theta, command):
    path = tmp_path / "angled.json"
    path.write_text(f'{{"modes": 2, "gates": [{{"name": "H", "qubits": [0], "theta": {theta}}}]}}')
    extra = ["--input", "|1,0>"] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, "--circuit", str(path), *extra)
    assert (code, out) == (2, "")
    assert "H takes no rotation angle" in err


def test_non_utf8_file_exits_2(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, "unitary", "--circuit", str(path))
    assert (code, out) == (2, "")
    assert "not valid JSON" in err


def test_sample_matches_golden_output_across_draw_chunks(capsys):
    # The golden file was written by the per-draw bisection sampler; 200,000
    # shots cross the 65,536-draw chunk boundary three times.
    code, out, err = run_cli(
        capsys, "sample", "--circuit", str(DATA / "bell_pair.json"), "--input", "|1,0,1,0>",
        "--postselect", "[4]==1 & [5]==1", "--shots", "200000", "--seed", "7", "--json",
    )
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "golden" / "bell_pair_sample_200k.json").read_bytes()


def test_unconditioned_sample_sorts_its_chunks_and_matches_golden_output(capsys):
    # 1,531 outcomes, so each chunk of draws is sorted; the golden file was
    # written before a chunk with few outcomes was counted without sorting.
    code, out, err = run_cli(
        capsys, "sample", "--circuit", str(DATA / "two_heralded_cnots.json"),
        "--input", "|1,0,1,0>", "--shots", "100000", "--seed", "5", "--json",
    )
    assert (code, err) == (0, "")
    golden = DATA / "golden" / "two_heralded_cnots_unconditioned_sample_100k.json"
    assert out.encode() == golden.read_bytes()


def test_sample_on_the_stepwise_route_matches_golden_output(capsys):
    # The first CNOT's heralds close before the last block, so the stepper
    # runs; the golden file was written before the route had one owner.
    code, out, err = run_cli(
        capsys, "sample", "--circuit", str(DATA / "two_heralded_cnots.json"),
        "--input", "|1,0,1,0>", "--postselect", "[4]==1 & [5]==1 & [6]==1 & [7]==1",
        "--shots", "100000", "--seed", "5", "--json",
    )
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "golden" / "two_heralded_cnots_sample_100k.json").read_bytes()


@pytest.mark.parametrize("golden, argv", [
    ("h_unitary.json", ["unitary", "--circuit", "h.json", "--json"]),
    ("bell_pair_renormalize.json", ["simulate", "--circuit", "bell_pair.json",
                                    "--input", "|1,0,1,0>", "--postselect", "[4]==1 & [5]==1",
                                    "--renormalize", "--json"]),
    ("grover_target11_simulate.json", ["simulate", "--circuit", "grover_target11.json",
                                       "--input", "|0,{P:H},0,0>", "--json"]),
    ("grover_01_1000.json", ["grover", "--target", "01", "--shots", "1000", "--seed", "7", "--json"]),
])
def test_json_output_matches_golden_bytes(capsys, golden, argv):
    # The golden files were printed by `json.dumps(payload, indent=2)`.
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "golden" / golden).read_bytes()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**100), 2**100)
    | st.floats() | st.floats().map(np.float64)
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308])
    | st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "\u00e9\u4e2d\U0001f600"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_JSON_VALUES)
def test_dumps_prints_what_json_dumps_indent_2_prints(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("bad", [np.int64(1), {1, 2}, object()])
def test_dumps_raises_type_error_where_json_dumps_does(bad):
    for value in (bad, {"a": [1.0, bad]}):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            cli._dumps(value)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["unitary"], ["unitary", "-h"],
    ["simulate", "--circuit", "h.json", "--input", "|1,0,1,0>", "--bogus", "x"],
    ["grover", "--target", "22"],
    ["sample", "--circuit", "h.json", "--input", "|1,0,1,0>", "--shots", "x"],
    ["simulate", "--circ", "h.json"],
])
def test_main_parses_as_the_full_parser_does(capsys, argv):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as full:
        _build_parser()[0].parse_args(argv)
    assert (code, out, err) == (full.value.code, *capsys.readouterr())


def test_main_hands_a_command_the_full_parsers_namespace(capsys, monkeypatch):
    argv = ["unitary", "--circ", str(DATA / "h.json")]
    seen = []
    parser, commands = _build_parser()
    monkeypatch.setitem(commands, "unitary",
                        (commands["unitary"][0], lambda args: seen.append(args) or 0))
    assert run_cli(capsys, *argv) == (0, "", "")
    assert seen == [parser.parse_args(argv)]


def test_sample_rejects_negative_shots(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--circuit", str(DATA / "h.json"), "--input", "|1,0,1,0>",
        "--shots", "-2",
    )
    assert (code, out, err) == (2, "", "error: shots must be >= 0, got -2\n")


@pytest.mark.parametrize("command, extra", [("simulate", []), ("sample", ["--shots", "5"])])
def test_negative_min_photons_exits_2(capsys, command, extra):
    code, out, err = run_cli(
        capsys, command, "--circuit", str(DATA / "h.json"), "--input", "|1,0,1,0>",
        "--min-photons", "-5", *extra,
    )
    assert (code, out, err) == (2, "", "error: minimum photon count must be >= 0, got -5\n")


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # 1,540 lines (~85 KB) pass a pipe's 64 KB, so the command is still
    # writing when the reader stops after the first line, as `| head -1` does.
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "photonsim", "simulate", "--circuit", str(DATA / "wide20.json"),
         "--input", "|1,1,1" + ",0" * 17 + ">"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"|3" + b",0" * 19 + b"> -> - 0j\n"
    assert err == b""


@pytest.mark.parametrize("option, text, offset", [
    ("--input", "|²,0,0,0>", 1),
    ("--input", "|١,0,0,0>", 1),
    ("--input", "|１,0,0,0>", 1),
    ("--input", "|1:H+²:V,0>", 5),
    ("--postselect", "[0]==²", 5),
    ("--postselect", "[٣]==1", 1),
])
def test_only_ascii_digits_are_numbers(capsys, option, text, offset):
    # str.isdigit() takes all of these; int() refuses '²' and reads the
    # others as 0-9.
    parse = parse_state if option == "--input" else parse_postselect
    with pytest.raises(ParseError, match="expected a number") as err:
        parse(text)
    assert err.value.offset == offset
    argv = {"--input": "|1,0,0,0>", option: text}
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(DATA / "h.json"),
                             *itertools.chain(*argv.items()))
    assert (code, out) == (2, "")
    assert err == f"error: expected a number, found {text[offset]!r} (at offset {offset})\n"


@pytest.mark.parametrize("argv, golden", [
    (["unitary", "--json"], "splitter_bench_unitary.json"),
    (["simulate", "--input", "|1,1,1>", "--json"], "splitter_bench_simulate_111.json"),
])
def test_splitter_bench_matches_golden_output(capsys, argv, golden):
    # The one corpus circuit with a `unitary` record.  Its numbers come out
    # of BLAS products, whose last bits may vary with the numpy build and
    # the CPU, so they are held to 1e-15 and everything else exactly.
    code, out, err = run_cli(capsys, argv[0], "--circuit", str(DATA / "splitter_bench.json"),
                             *argv[1:])
    assert (code, err) == (0, "")
    want = json.loads((DATA / "golden" / golden).read_text())
    assert same_within(json.loads(out), want, 1e-15)


def same_within(got, want, tol: float) -> bool:
    """Whether JSON values `got` and `want` are equal, keys in the same
    order, but for floats, which may differ by up to `tol`."""
    if isinstance(want, float):
        return type(got) is float and abs(got - want) <= tol
    if isinstance(want, list):
        return (type(got) is list and len(got) == len(want)
                and all(same_within(g, w, tol) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (type(got) is dict and list(got) == list(want)
                and all(same_within(got[k], w, tol) for k, w in want.items()))
    return type(got) is type(want) and got == want
