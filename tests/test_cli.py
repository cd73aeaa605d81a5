"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import pathlib
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_manifest import run

from qwitness import cli, scans, witness
from qwitness.cli import _build_parser, dumps, main
from qwitness.discord import classical_quantum_state
from qwitness.scans import run_scan
from qwitness.states import (
    make_density,
    random_density,
    random_pure,
    seeded_rng,
    state_from_json,
    state_to_json,
)
from qwitness.witness import witness_anticommutator

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
MIN_EIG_PAIR = (1.0 - np.sqrt(2.0)) / 2.0


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(dumps(state_to_json(make_density(matrix))) + "\n",
                    encoding="utf-8")
    return str(path)


# -------------------------------------------------------------- witness

def test_witness_inline_bloch_pair(capsys):
    code, out, _ = run_cli(capsys, "witness", "--states", "0,0,1", "1,0,0")
    assert code == 10
    obj = json.loads(out)
    assert obj["verdict"] == "NONPOSITIVE_WITNESSED"
    assert obj["min_eigenvalue"] == pytest.approx(MIN_EIG_PAIR, abs=1e-12)
    assert obj["purity_criterion"] == pytest.approx(1.5, abs=1e-12)
    assert obj["tolerances"] == {"witness": 1e-10, "null": 1e-10}


def test_witness_pure_first_state_agrees_with_swapped_pair(capsys, tmp_path):
    # a pure first state takes the closed-form route, the swapped pair the
    # eigen-analysis; both analyze one anticommutator
    verdicts = set()
    for d in (2, 3, 4):
        for t in range(4):
            rng = seeded_rng(89, d, t)
            psi = random_pure(d, rng)
            pure = write_state(tmp_path, "pure.json", np.outer(psi, psi.conj()))
            mixed = write_state(tmp_path, "mixed.json",
                                random_density(d, 1 + t % d, rng).matrix)
            runs = [run_cli(capsys, "witness", "--states", *pair)
                    for pair in ((pure, mixed), (mixed, pure))]
            (code1, out1, _), (code2, out2, _) = runs
            r1, r2 = json.loads(out1), json.loads(out2)
            assert code1 == code2 and r1["verdict"] == r2["verdict"]
            assert abs(r1["min_eigenvalue"] - r2["min_eigenvalue"]) <= 1e-12
            verdicts.add(r1["verdict"])
    assert "NONPOSITIVE_WITNESSED" in verdicts


def test_witness_commuting_pair(capsys):
    code, out, _ = run_cli(capsys, "witness", "--states", "0,0,0.5", "0,0,-0.5")
    assert code == 0
    assert json.loads(out)["verdict"] == "POSITIVE"


def test_witness_null_pair(capsys):
    code, out, _ = run_cli(capsys, "witness", "--states", "0,0,1", "0,0,-1")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "NULL_ANTICOMMUTATOR"
    assert obj["purity_criterion"] is None


def test_witness_state_files(capsys, tmp_path):
    # a path with two commas that is not a Bloch triple is a file
    f1 = write_state(tmp_path, "a,b,c.json", np.diag([1.0, 0.0]))
    f2 = write_state(tmp_path, "b.json", np.full((2, 2), 0.5))
    code, out, _ = run_cli(capsys, "witness", "--states", f1, f2)
    assert code == 10
    assert json.loads(out)["min_eigenvalue"] == pytest.approx(
        MIN_EIG_PAIR, abs=1e-12)


def test_witness_tolerance_override_flips_verdict(capsys):
    code, out, _ = run_cli(capsys, "witness", "--states", "0,0,1", "1,0,0",
                           "--tol", "witness=0.5")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "POSITIVE"
    assert obj["tolerances"]["witness"] == 0.5


def test_witness_rejects_csv_format(capsys):
    code, _, err = run_cli(capsys, "witness", "--states", "0,0,1", "1,0,0",
                           "--format", "csv")
    assert code == 2
    assert "unrecognized arguments: --format csv" in err


def test_bad_tolerance_flag(capsys):
    # identical states commute, so a negative tolerance must not get as
    # far as a witnessed verdict; a name the command does not read (comm
    # and f on witness, f on discord-demo) is rejected, not dropped
    argv = {"witness": ["--states", "0,0,1", "0,0,1"],
            "nested": ["--states", "0,0,1", "0,0,1", "--target", "0.05"],
            "discord-demo": ["--state", "bell", "--ops", "z,x",
                             "--outcomes", "0,+"]}
    for command, tol in (("witness", "fuzz=1"), ("witness", "witness=-0.5"),
                         ("witness", "null=inf"), ("nested", "comm=-inf"),
                         ("nested", "f=nan"), ("witness", "comm=5"),
                         ("witness", "f=0.4"), ("discord-demo", "f=0.49"),
                         ("witness", "witness=abc"), ("nested", "f=abc")):
        code, out, err = run_cli(capsys, command, *argv[command],
                                 "--tol", tol)
        assert code == 2, (command, tol)
        assert out == ""
        assert "bad --tol" in err


def test_witness_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "witness", "--states",
                           str(tmp_path / "nope.json"), "1,0,0")
    assert code == 2
    assert "error:" in err


def test_witness_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "witness", "--states", str(bad), "1,0,0")
    assert (code, out) == (2, "")
    # a syntax error names the file that holds it
    assert err.startswith(f"error: {bad}: Expecting property name")


def test_witness_invalid_state_payload(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "entries": [[[1, 0]]]}', encoding="utf-8")
    code, _, err = run_cli(capsys, "witness", "--states", str(bad), "1,0,0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("obj", [
    {"dim": 2, "entries": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]},
    {"dim": 2, "entries": [[[True, 0], [0, 0]], [[0, 0], [False, 0]]]},
    {"dim": 2, "entries": [[[0.5, None], [0, 0]], [[0, 0], [0.5, 0]]]},
    {"dim": 2, "entries": [[[10**400, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
    {"dim": True, "entries": [[[1, 0]]]},
    {"dim": "1", "entries": [[[1, 0]]]},
    {"dim": 1.0, "entries": [[[1, 0]]]},
])
def test_state_file_needs_json_numbers(capsys, tmp_path, obj):
    """Entries must be JSON numbers and ``dim`` a JSON integer: strings,
    booleans, null and integers beyond the float range are rejected."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run_cli(capsys, "amplify", "--state", str(bad),
                           "--target", "0.1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("rows,message", [
    ([[0.5, 1.7e308], [1.7e308, 0.5]],
     "state has eigenvalue -1.700e+308 below -1.0e-10"),
    ([[1e308, 0], [0, -1e308]],
     "state trace 0+0.000e+00j deviates from 1 by 1.000e+00 (margin 1.0e-10)"),
    ([[1e308, 0], [0, 1e308]],
     "state trace inf+0.000e+00j deviates from 1 by inf (margin 1.0e-10)"),
], ids=["eigenvalue", "zero-trace", "infinite-trace"])
def test_hermitian_state_with_huge_entries_exits_2_without_warnings(
        capsys, tmp_path, rows, message):
    # entries near the float maximum must not overflow the Hermitian part
    # or the trace; a numpy warning would raise here as an error
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({"dim": 2, "entries": [
        [[x, 0] for x in row] for row in rows]}), encoding="utf-8")
    assert run_cli(capsys, "witness", "--states", str(bad), "0,0,1") == \
        (2, "", f"error: {message}\n")


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000, encoding="utf-8")
    code, _, err = run_cli(capsys, "witness", "--states", str(bad), "1,0,0")
    assert code == 2
    assert "nests too deeply" in err


# --------------------------------------------------------------- nested

def mixed_pair_files(tmp_path):
    m = np.diag([0.7, 0.3])
    f1 = write_state(tmp_path, "s1.json", m)
    f2 = write_state(tmp_path, "s2.json", HADAMARD @ m @ HADAMARD)
    return f1, f2


def test_nested_witnesses_mixed_pair(capsys, tmp_path):
    f1, f2 = mixed_pair_files(tmp_path)
    code, out, _ = run_cli(capsys, "nested", "--states", f1, f2,
                           "--target", "0.05")
    assert code == 10
    obj = json.loads(out)
    assert obj["plan1"]["n"] == 4
    assert obj["plan2"]["n"] == 4
    assert obj["condition"]["met"] is True
    assert obj["condition"]["rhs"] == pytest.approx(0.25, abs=1e-12)
    assert obj["first_order_purity"] == pytest.approx(
        1.3845331432644337, abs=1e-12)
    assert obj["report"]["verdict"] == "NONPOSITIVE_WITNESSED"
    assert obj["report"]["min_eigenvalue"] == pytest.approx(
        -0.16095396146365437, abs=1e-10)


def test_nested_commuting_inputs_exit(capsys, tmp_path):
    f1 = write_state(tmp_path, "s1.json", np.diag([0.7, 0.3]))
    f2 = write_state(tmp_path, "s2.json", np.diag([0.2, 0.8]))
    code, out, err = run_cli(capsys, "nested", "--states", f1, f2,
                             "--target", "0.05")
    assert code == 11
    assert out == ""
    assert "commut" in err


def test_nested_degenerate_input_exit(capsys, tmp_path):
    f1 = write_state(tmp_path, "s1.json", np.eye(2) / 2)
    f2 = write_state(tmp_path, "s2.json",
                     HADAMARD @ np.diag([0.7, 0.3]) @ HADAMARD)
    code, _, err = run_cli(capsys, "nested", "--states", f1, f2,
                           "--target", "0.05")
    assert code == 12
    assert "degenerate" in err


def test_nested_boundary_overlap_exit(capsys, tmp_path):
    tail = np.zeros((3, 3))
    tail[1:, 1:] = HADAMARD @ np.diag([0.2, 0.1]) @ HADAMARD
    f1 = write_state(tmp_path, "s1.json", np.diag([0.8, 0.15, 0.05]))
    f2 = write_state(tmp_path, "s2.json", np.diag([0.7, 0.0, 0.0]) + tail)
    code, _, err = run_cli(capsys, "nested", "--states", f1, f2,
                           "--target", "0.05")
    assert code == 13
    assert "boundary" in err


def test_nested_dimension_mismatch_exit(capsys, tmp_path):
    # the same message as witness on the pair, not the internal stack shape
    q3 = write_state(tmp_path, "q3.json", np.diag([0.8, 0.0, 0.2]))
    for command in (("nested", "--target", "0.05"), ("witness",)):
        code, out, err = run_cli(capsys, command[0], "--states", "0.3,0,0.5",
                                 q3, *command[1:])
        assert (code, out, err) == (2, "", "error: dimension mismatch: 2 vs 3\n")


def test_witness_dimension_mismatch_message_is_the_same_on_both_routes(
        capsys, tmp_path):
    # a pure first state takes the closed-form route, a mixed one the
    # anticommutator of the pair
    one = write_state(tmp_path, "one.json", np.eye(1))
    for first in ("0,0,1", "0,0,0.5"):
        assert run_cli(capsys, "witness", "--states", first, one) == \
            (2, "", "error: dimension mismatch: 2 vs 1\n")
    assert run_cli(capsys, "witness", "--states", one, "0,0,1") == \
        (2, "", "error: dimension mismatch: 1 vs 2\n")


def test_nested_reports_a_vanishing_first_order_denominator_as_null(
        capsys, tmp_path):
    # |<0|v>| = 3e-6: at n = 12 both mixing weights are ~3.5e-12, so the
    # first-order denominator 2(|f|^2 + 2s) ~ 1.8e-11 vanishes while the
    # amplified anticommutator still has eigenvalue -3e-6
    v = np.array([3e-6, np.sqrt(1.0 - 9e-12)])
    v_perp = np.array([v[1], -v[0]])
    f1 = write_state(tmp_path, "s1.json", np.diag([0.9, 0.1]))
    f2 = write_state(tmp_path, "s2.json", 0.9 * np.outer(v, v)
                     + 0.1 * np.outer(v_perp, v_perp))
    code, out, _ = run_cli(capsys, "nested", "--states", f1, f2,
                           "--target", "1e-11")
    assert code == 10
    obj = json.loads(out)
    assert obj["first_order_purity"] is None
    assert (obj["plan1"]["n"], obj["plan2"]["n"]) == (12, 12)
    assert obj["condition"]["met"] is True
    assert obj["report"]["verdict"] == "NONPOSITIVE_WITNESSED"
    assert obj["report"]["min_eigenvalue"] == pytest.approx(-3.0e-6, rel=1e-3)


# -------------------------------------------------------------- amplify

def test_amplify_plan(capsys, tmp_path):
    f = write_state(tmp_path, "s.json", np.diag([0.6, 0.4]))
    code, out, _ = run_cli(capsys, "amplify", "--state", f, "--target", "0.05")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 8
    assert obj["degenerate"] is False
    assert obj["achieved_epsilon"] == pytest.approx(
        0.03755317588381989, abs=1e-15)


def test_amplify_plan_degenerate_exit(capsys, tmp_path):
    f = write_state(tmp_path, "s.json", np.eye(2) / 2)
    code, out, _ = run_cli(capsys, "amplify", "--state", f, "--target", "0.05")
    assert code == 12
    assert json.loads(out)["degenerate"] is True


def test_amplify_apply_writes_state(capsys, tmp_path):
    f = write_state(tmp_path, "s.json", np.diag([0.6, 0.4]))
    out_path = tmp_path / "sharp.json"
    code, out, _ = run_cli(capsys, "amplify", "--state", f, "--n", "2",
                           "--out", str(out_path))
    assert code == 0
    assert out == ""
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    assert obj["entries"][0][0] == pytest.approx([9 / 13, 0.0], abs=1e-15)
    # without --out the state goes to stdout
    code, out, _ = run_cli(capsys, "amplify", "--state", f, "--n", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 2


def test_amplify_rejects_bad_n(capsys, tmp_path):
    f = write_state(tmp_path, "s.json", np.diag([0.6, 0.4]))
    code, _, err = run_cli(capsys, "amplify", "--state", f, "--n", "0")
    assert code == 2
    assert "--n must be" in err
    # a nonpositive plan cap or an out-of-range target is malformed
    # input, not a capped-out plan, even on degenerate or commuting pairs;
    # so is the flag of the other amplify mode
    f1, f2 = mixed_pair_files(tmp_path)
    out_path = tmp_path / "o.json"
    for argv, message in (
            (("amplify", "--state", f, "--target", "0.05", "--out",
              str(out_path)), "--out is read only with --n"),
            (("amplify", "--state", f, "--n", "3", "--cap", "0"),
             "--cap is read only with --target"),
            (("amplify", "--state", "0,0,0.5", "--target", "0.01",
              "--cap", "-4"), "cap must be >= 1"),
            (("amplify", "--state", f, "--target", "0.05", "--cap", "0"),
             "cap must be >= 1"),
            (("nested", "--states", f1, f2, "--target", "0.05",
              "--cap", "0"), "cap must be >= 1"),
            (("nested", "--states", "0,0,0", "1,0,0", "--target", "0.05",
              "--cap", "0"), "cap must be >= 1"),
            (("nested", "--states", "0,0,0", "1,0,0", "--target", "1.5"),
             "target epsilon must lie in [0, 1)"),
            (("nested", "--states", "0,0,1", "0,0,0.5", "--target", "1.5"),
             "target epsilon must lie in [0, 1)")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert message in err
    assert not out_path.exists()


# -------------------------------------------------------------- circuit

def witness_report_file(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "witness", "--states", "0,0,1", "1,0,0")
    path = tmp_path / "report.json"
    path.write_text(out, encoding="utf-8")
    return str(path)


def test_circuit_exact_with_witness_probe(capsys, tmp_path):
    probe = witness_report_file(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "circuit", "--states", "0,0,1", "1,0,0",
                           "--probe", probe)
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["exact"]
    assert obj["exact"] == pytest.approx(MIN_EIG_PAIR / 2.0, abs=1e-12)


def test_circuit_sampled_run(capsys, tmp_path):
    probe = witness_report_file(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "circuit", "--states", "0,0,1", "1,0,0",
                           "--probe", probe, "--shots", "2307", "--seed", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["shots"] == 2307
    assert obj["seed"] == 5
    assert obj["shots_to_resolve"] == 2307
    assert abs(obj["estimate"] - obj["exact"]) <= 5.0 * obj["stderr"]
    assert "version" in obj


def test_circuit_seed_from_environment(capsys, tmp_path, monkeypatch):
    probe = witness_report_file(capsys, tmp_path)
    monkeypatch.setenv("QWITNESS_SEED", "7")
    code, out, _ = run_cli(capsys, "circuit", "--states", "0,0,1", "1,0,0",
                           "--probe", probe, "--shots", "100")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_circuit_probe_from_amplitudes(capsys, tmp_path):
    path = tmp_path / "probe.json"
    path.write_text('{"amplitudes": [[1, 0], [0, 0]]}', encoding="utf-8")
    code, out, _ = run_cli(capsys, "circuit", "--states", "0,0,1",
                           "--copies", "2", "--probe", str(path))
    assert code == 0
    assert json.loads(out)["exact"] == pytest.approx(1.0, abs=1e-12)


def test_circuit_probe_must_be_pure(capsys, tmp_path):
    probe = write_state(tmp_path, "mixed.json", np.diag([0.6, 0.4]))
    code, _, err = run_cli(capsys, "circuit", "--states", "0,0,1", "1,0,0",
                           "--probe", probe)
    assert code == 2
    assert "pure" in err


def test_circuit_copies_mismatch(capsys, tmp_path):
    probe = witness_report_file(capsys, tmp_path)
    for copies, message in (("3", "give exactly --copies states"),
                            ("0", "--copies must be >= 1")):
        code, out, err = run_cli(capsys, "circuit", "--states", "0,0,1",
                                 "1,0,0", "--copies", copies, "--probe", probe)
        assert code == 2
        assert out == ""
        assert message in err


def test_circuit_zero_readout_cannot_be_resolved(capsys, tmp_path):
    # <1|{|0><0|, |0><0|}|1>/2 = 0: no shot count separates it from zero
    probe = tmp_path / "probe.json"
    probe.write_text('{"amplitudes": [[0, 0], [1, 0]]}', encoding="utf-8")
    code, out, _ = run_cli(capsys, "circuit", "--states", "0,0,1", "0,0,1",
                           "--probe", str(probe), "--shots", "100")
    assert code == 0
    obj = json.loads(out)
    assert obj["exact"] == 0
    assert obj["shots_to_resolve"] is None


@pytest.mark.parametrize("amplitude,exact", [
    ("1e-160", 9.9998886718268301e-321),  # exact**2 underflows to 0
    ("3.1622776601683794e-78", 1e-155),  # 25/exact**2 overflows
    ("1e-76", 9.9999999999999985e-153),  # 25/exact**2 exceeds SHOTS_CAP
])
def test_circuit_tiny_readout_cannot_be_resolved(capsys, tmp_path,
                                                 amplitude, exact):
    probe = tmp_path / "probe.json"
    probe.write_text(f'{{"amplitudes": [[{amplitude}, 0], [1, 0]]}}',
                     encoding="utf-8")
    code, out, err = run_cli(capsys, "circuit", "--states", "0,0,1",
                             "0,0,1", "--probe", str(probe),
                             "--shots", "100", "--seed", "1")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["exact"] == exact
    assert obj["shots_to_resolve"] is None


def test_circuit_rejects_zero_shots(capsys, tmp_path):
    probe = witness_report_file(capsys, tmp_path)
    code, _, err = run_cli(capsys, "circuit", "--states", "0,0,1", "1,0,0",
                           "--probe", probe, "--shots", "0")
    assert code == 2
    assert "--shots" in err


def test_circuit_shots_bounded_by_a_64_bit_count(capsys, tmp_path):
    # numpy draws the count as a signed 64-bit integer; one past it is
    # malformed input, not a traceback
    probe = witness_report_file(capsys, tmp_path)
    argv = ["circuit", "--states", "0,0,1", "1,0,0", "--probe", probe,
            "--seed", "1", "--shots"]
    code, out, err = run_cli(capsys, *argv, str(2**63))
    assert code == 2
    assert out == ""
    assert err == f"error: --shots must be <= {2**63 - 1}, got {2**63}\n"
    code, out, _ = run_cli(capsys, *argv, str(2**63 - 1))
    assert code == 0
    assert json.loads(out)["shots"] == 2**63 - 1


def test_circuit_copies_over_cap_rejected_before_replicating(capsys,
                                                             tmp_path):
    # over the byte budget of the readout: the check runs before the
    # register list is replicated, let alone the gather allocated
    probe = witness_report_file(capsys, tmp_path)
    for copies in (40, 20_000_000):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "circuit", "--states", "0,0,1",
                                     "--copies", str(copies), "--probe", probe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert (f"a circuit of {copies + 1} registers of dimension 2 "
                "exceeds the 256 MiB budget of its readout") in err
        assert peak < 1 << 20


def test_circuit_register_count_bounded_in_one_dimension(capsys, tmp_path):
    # d**l never grows at d = 1; the register lists' bytes bound the
    # count on their own, so a billion registers exit 2 at once
    state = tmp_path / "one.json"
    state.write_text('{"dim": 1, "entries": [[[1, 0]]]}', encoding="utf-8")
    probe = tmp_path / "probe.json"
    probe.write_text('{"amplitudes": [[1, 0]]}', encoding="utf-8")
    argv = ["circuit", "--states", str(state), "--probe", str(probe)]
    for copies in ("9", "1000"):
        code, out, _ = run_cli(capsys, *argv, "--copies", copies)
        assert code == 0
        assert json.loads(out) == {"exact": 1}
    code, out, err = run_cli(capsys, *argv, "--copies", "1000000000")
    assert code == 2
    assert out == ""
    assert ("a circuit of 1000000001 registers of dimension 1 exceeds the "
            "256 MiB budget") in err


# --------------------------------------------------------- discord-demo

def test_discord_demo_bell(capsys):
    code, out, _ = run_cli(capsys, "discord-demo", "--state", "bell",
                           "--ops", "z,x", "--outcomes", "0,+")
    assert code == 10
    obj = json.loads(out)
    assert obj["probabilities"]["first"] == pytest.approx(0.5, abs=1e-12)
    assert obj["probabilities"]["second"] == pytest.approx(0.5, abs=1e-12)
    assert obj["conditionals"]["first"]["dim"] == 2
    assert obj["report"]["verdict"] == "NONPOSITIVE_WITNESSED"
    assert obj["report"]["min_eigenvalue"] == pytest.approx(
        MIN_EIG_PAIR, abs=1e-10)


def test_discord_demo_product_state_file(capsys, tmp_path):
    m = np.kron(np.full((2, 2), 0.5), np.diag([0.6, 0.4]))
    f = write_state(tmp_path, "prod.json", m)
    code, out, _ = run_cli(capsys, "discord-demo", "--state", f,
                           "--dims", "2,2", "--ops", "z,x",
                           "--outcomes", "0,+")
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "POSITIVE"


def test_discord_demo_outcomes_starting_with_a_dash(capsys):
    # argparse reads "-,1" after a space as a flag; the = form passes it
    code, out, _ = run_cli(capsys, "discord-demo", "--state", "bell",
                           "--ops", "x,z", "--outcomes=-,1")
    assert code == 10
    assert json.loads(out)["report"]["verdict"] == "NONPOSITIVE_WITNESSED"


def test_discord_demo_file_needs_dims(capsys, tmp_path):
    f = write_state(tmp_path, "prod.json", np.eye(4) / 4)
    code, _, err = run_cli(capsys, "discord-demo", "--state", f,
                           "--ops", "z,x", "--outcomes", "0,+")
    assert code == 2
    assert "--dims" in err


def test_discord_demo_rejects_bad_dims(capsys, tmp_path):
    f = write_state(tmp_path, "prod.json", np.eye(4) / 4)
    bell = ("--state", "bell")
    for state, dims, message in (
            (("--state", f), "a,b", "bad --dims 'a,b'"),
            (bell, "a,b", "bad --dims 'a,b'"),
            # a --dims the bell state would ignore is refused
            (bell, "3,3", "bad --dims '3,3'; the bell state is 2,2"),
            (bell, "1,4", "bad --dims '1,4'; the bell state is 2,2"),
            (("--state", f), "2,2,2", "bad --dims '2,2,2'; expected dA,dB")):
        code, out, err = run_cli(capsys, "discord-demo", *state,
                                 "--dims", dims, "--ops", "z,x",
                                 "--outcomes", "0,+")
        assert code == 2, (state, dims)
        assert out == ""
        assert message in err
    code, out, _ = run_cli(capsys, "discord-demo", *bell, "--ops", "z,x",
                           "--outcomes", "0,+")
    assert code == 10
    assert run_cli(capsys, "discord-demo", *bell, "--dims", "2,2",
                   "--ops", "z,x", "--outcomes", "0,+") == (10, out, "")


def test_discord_demo_unknown_outcome(capsys):
    code, _, err = run_cli(capsys, "discord-demo", "--state", "bell",
                           "--ops", "z,x", "--outcomes", "0,2")
    assert code == 2
    assert "unknown outcome" in err
    assert '"unknown outcome' not in err  # KeyError text is unwrapped


def test_discord_demo_unknown_measurement(capsys):
    code, _, err = run_cli(capsys, "discord-demo", "--state", "bell",
                           "--ops", "y,x", "--outcomes", "0,+")
    assert code == 2
    assert "unknown measurement" in err
    code, out, err = run_cli(capsys, "discord-demo", "--state", "bell",
                             "--ops", "z", "--outcomes", "0")
    assert code == 2
    assert out == ""
    assert "--ops and --outcomes each need two" in err


def test_discord_demo_degenerate_conditional_reports_direct(capsys, tmp_path):
    """(|0><0| (x) rho1 + |1><1| (x) rho2) / 2 with a tied leading
    eigenvalue in rho1: the exit code follows the direct verdict."""
    rho1 = make_density(np.diag([0.4, 0.4, 0.2]))
    rho2 = random_density(3, 3, seeded_rng(11))
    f = write_state(tmp_path, "cq.json",
                    classical_quantum_state([0.5, 0.5], [rho1, rho2]).state.matrix)
    code, out, _ = run_cli(capsys, "discord-demo", "--state", f,
                           "--dims", "2,3", "--ops", "z,z",
                           "--outcomes", "0,1")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["verdict"] == "POSITIVE"
    assert report["min_eigenvalue"] == pytest.approx(
        witness_anticommutator(rho1, rho2).min_eigenvalue, abs=1e-12)


def test_discord_demo_comm_override_reports_direct(capsys, tmp_path):
    """A --tol comm above the conditionals' commutator norm stops the
    nested route inside nested_witness, so a pair it witnesses by
    default gets the direct report; the golden manifest pins its bytes."""
    f = write_state(tmp_path, "ab.json",
                    random_density(4, 4, seeded_rng(0)).matrix)
    argv = ("discord-demo", "--state", f, "--dims", "2,2", "--ops", "z,x",
            "--outcomes", "0,+")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (10, "")
    assert json.loads(out)["report"]["min_eigenvalue"] < 0.0
    code, out, err = run_cli(capsys, *argv, "--tol", "comm=10")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    rho1, rho2 = (state_from_json(obj["conditionals"][which])
                  for which in ("first", "second"))
    assert obj["report"] == witness_anticommutator(rho1, rho2).to_dict()


def test_discord_demo_runs_above_the_eigensolver_cap(capsys, tmp_path):
    """A 2x130 state (dimension 260 > EIGEN_DIM_CAP) still validates;
    only its 130-dimensional conditionals are analyzed."""
    rng = seeded_rng(5)
    m = np.kron(random_density(2, 2, rng).matrix,
                random_density(130, 130, rng).matrix)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(state_to_json(make_density(m))),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "discord-demo", "--state", str(path),
                           "--dims", "2,130", "--ops", "z,x",
                           "--outcomes", "0,+")
    assert code == 0
    obj = json.loads(out)
    assert obj["conditionals"]["first"]["dim"] == 130
    assert obj["report"]["verdict"] == "POSITIVE"


# ----------------------------------------------------------------- scan

def test_scan_stdout_layout(capsys):
    code, out, err = run_cli(capsys, "scan", "--kind", "pure-mixed",
                             "--trials", "6", "--dims", "2", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    summary = json.loads(lines[-1])
    assert summary["kind"] == "pure-mixed"
    assert summary["counterexamples"] == 0
    assert "version" in summary
    assert "records in" in err  # timing stays on stderr
    for line in lines[:-1]:
        assert json.loads(line)["dim"] == 2


def test_scan_stdout_is_reproducible(capsys):
    args = ("scan", "--kind", "nested", "--trials", "4", "--dims", "2",
            "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    _, pooled, err = run_cli(capsys, *args, "--jobs", "3")
    assert first == second == pooled
    assert "scans run serially" in err


def test_scan_nested_skips_one_dimensional_trials(capsys):
    # a 1x1 pair always commutes: its trials are skipped, not fatal
    for dims, skipped in (("1", 4), ("1,2", 2)):
        code, out, _ = run_cli(capsys, "scan", "--kind", "nested",
                               "--trials", "4", "--dims", dims, "--seed", "0")
        assert code == 0, dims
        records = [json.loads(line) for line in out.splitlines()]
        summary = records.pop()
        assert summary["skipped"] == skipped
        assert summary["counterexamples"] == 0
        for r in records:
            assert r["skipped"] == (r["dim"] == 1)
            if r["skipped"]:
                assert r["reason"] == "CommutingInputsError"


def test_scan_seed_from_environment(capsys, monkeypatch):
    _, flagged, _ = run_cli(capsys, "scan", "--kind", "pure-mixed",
                            "--trials", "3", "--dims", "2", "--seed", "4")
    monkeypatch.setenv("QWITNESS_SEED", "4")
    _, from_env, _ = run_cli(capsys, "scan", "--kind", "pure-mixed",
                             "--trials", "3", "--dims", "2")
    assert flagged == from_env


def test_scan_csv_records_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--kind", "bloch", "--grid", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert "min_eigenvalue" in header
    assert len(lines) == 1 + 9 + 1  # header, 3x3 grid, summary json line
    json.loads(lines[-1])


def test_scan_summary_csv_file(capsys, tmp_path):
    # one header line and one row, as DictWriter writes the summary, the
    # dims list joined by ';'
    path = tmp_path / "summary.csv"
    code, out, _ = run_cli(capsys, "scan", "--kind", "null", "--trials",
                           "4", "--dims", "3,2", "--csv", str(path))
    assert code == 0
    rows = path.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2
    assert "counterexamples" in rows[0].split(",")
    assert rows[1].startswith("null,4,3;2,0,")
    summary = json.loads(out.splitlines()[-1])
    assert path.read_text(encoding="utf-8") == _dictwriter_csv([summary])


def test_scan_summary_csv_path_checked_before_the_first_trial(capsys,
                                                            tmp_path):
    code, out, err = run_cli(capsys, "scan", "--kind", "null", "--trials",
                             "3", "--dims", "2", "--seed", "1",
                             "--csv", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_scan_rejects_json_format(capsys):
    code, _, err = run_cli(capsys, "scan", "--kind", "bloch", "--grid", "3",
                           "--format", "json")
    assert code == 2
    assert "invalid choice: 'json'" in err


def test_scan_rejects_bad_trials(capsys, monkeypatch):
    for kind, flag, value, message in (
            ("bloch", "--trials", "0", "--trials must be >= 1"),
            ("bloch", "--grid", "0", "--grid must be >= 1"),
            ("bloch", "--grid", "-3", "--grid must be >= 1"),
            # the grid**2 records are bounded before any is allocated
            ("bloch", "--grid", "1001", "--grid must be <= 1000, got 1001"),
            ("bloch", "--grid", "100000",
             "--grid must be <= 1000, got 100000"),
            # every scan holds all its records; bounded before any runs
            ("pure-mixed", "--trials", "1000001",
             "--trials must be <= 1000000, got 1000001"),
            ("bloch", "--jobs", "0", "--jobs must be >= 1"),
            # every --dims entry is bounded before any trial runs, also
            # for the kinds that do not read it
            ("bloch", "--dims", "0", "--dims must be >= 1"),
            ("bloch", "--dims", "2,-1", "--dims must be >= 1"),
            ("bloch", "--dims", "257", "--dims entries must be <= 256, got 257"),
            ("null", "--dims", "2,x", "bad --dims '2,x'"),
            ("null", "--seed", "-1", "--seed must be >= 0, got -1")):
        code, out, err = run_cli(capsys, "scan", "--kind", kind, flag, value)
        assert code == 2, (flag, value)
        assert out == ""
        assert message in err
    for env, message in (("abc", "bad QWITNESS_SEED 'abc'"),
                         ("-2", "QWITNESS_SEED must be >= 0, got -2")):
        monkeypatch.setenv("QWITNESS_SEED", env)
        code, out, err = run_cli(capsys, "scan", "--kind", "null")
        assert code == 2, env
        assert out == ""
        assert message in err


def test_refused_allocation_exits_2(capsys, monkeypatch):
    # stands in for an allocation numpy refuses; none is attempted
    def refuse(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(scans, "run_scan", refuse)
    code, out, err = run_cli(capsys, "scan", "--kind", "bloch", "--grid", "3")
    assert code == 2
    assert out == ""
    assert err == "error: MemoryError\n"


def test_dumps_pins_every_encoded_type():
    # one isinstance chain: Python and numpy scalars print the same
    # bytes, and lists, tuples and dicts nest
    obj = {"f": np.float64(0.1), "b": np.bool_(True), "n": np.int64(-7),
           "nested": [1, (2.5, [False, None]), ()], "s": 'a "q"\\\n\u00e9',
           "none": None, "i": 3, "x": 1e-300, "t": True, 2: "int key"}
    assert dumps(obj) == (
        '{"f": 0.10000000000000001, "b": true, "n": -7, '
        '"nested": [1, [2.5, [false, null]], []], '
        '"s": "a \\"q\\"\\\\\\n\\u00e9", "none": null, "i": 3, '
        '"x": 1e-300, "t": true, "2": "int key"}')
    assert dumps([np.float32(0.5), (np.int32(1),)]) == "[0.5, [1]]"
    for bad in (float("nan"), np.float64("inf"), {"k": [float("-inf")]}):
        with pytest.raises(ValueError, match="non-finite"):
            dumps(bad)
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps({"k": {1}})


_RECORD_KEYS = st.sampled_from(
    ["trial", "dim", "reason", "%d", '"q"', "\u00e9"])
_RECORD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308]), st.text(max_size=8))


def _block(records, coded=()):
    """``records`` (dicts) as a scan's columns: one layout per key tuple,
    listed in reverse order of first appearance, so that a writer cannot
    take the order of the layouts for the order of the rows. A key of
    ``coded`` becomes a dictionary-encoded column, one entry per
    distinct (type, repr) of its values, so that repeats share an entry
    and 0.0 and -0.0 do not; any other key an array, typed where all its
    values are floats, bools or int64s. A row without a key holds one of
    its values."""
    layouts = list(dict.fromkeys(map(tuple, records)))[::-1]
    columns = {}
    for key in dict.fromkeys(k for layout in layouts for k in layout):
        fill = next(r[key] for r in records if key in r)
        values = [r.get(key, fill) for r in records]
        kinds = set(map(type, values))
        if key in coded:
            index = {}
            codes = [index.setdefault((type(v), repr(v)), (len(index), v))[0]
                     for v in values]
            columns[key] = scans.Coded([v for _, v in index.values()],
                                       np.array(codes, dtype=np.intp))
        elif kinds in ({float}, {bool}) or (
                kinds == {int} and all(abs(v) < 2**63 for v in values)):
            columns[key] = np.array(values, dtype=kinds.pop())
        else:
            columns[key] = np.empty(len(values), dtype=object)
            columns[key][:] = values
    which = np.array([layouts.index(tuple(r)) for r in records], dtype=np.intp)
    return scans.Records(len(records), columns, layouts, which)


@st.composite
def _record_runs(draw):
    """Records of a few key layouts, in any order, so that a layout
    changes mid-scan and a column can hold values of several types."""
    layouts = draw(st.lists(st.lists(_RECORD_KEYS, unique=True, max_size=4),
                            min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(layouts) - 1), max_size=30))
    return [{key: draw(_RECORD_VALUES) for key in layouts[k]} for k in picks]


@given(records=_record_runs(), chunk=st.integers(min_value=1, max_value=8),
       coded=st.sets(_RECORD_KEYS))
# a dictionary of repeated floats, 0.0 and -0.0 among them, beside one
# of bools, ints and strs
@example(records=[{"r": r, "dim": d} for r, d in
                  [(0.0, 1), (-0.0, 1), (0.5, "x"), (-0.0, True), (0.0, 1)]],
         chunk=4, coded={"r", "dim"})
@settings(max_examples=200, deadline=None)
def test_record_writer_prints_what_dumps_prints(records, chunk, coded):
    out = io.StringIO()
    with mock.patch.object(cli, "_WRITE_CHUNK", chunk):
        cli._write_records(_block(records, coded), out)
    assert out.getvalue() == "".join(dumps(r) + "\n" for r in records)


def _csv_text(value):
    """A CSV cell's text before quoting: empty for None, a bare string,
    a list's entries joined by ';', any other value as ``dumps`` prints
    it."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ";".join(map(_csv_text, value))
    return dumps(value)


def _dictwriter_csv(records):
    """``records`` (dicts) as ``csv.DictWriter`` writes them, under a
    header of their keys in order of first appearance."""
    header = list(dict.fromkeys(key for r in records for key in r))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=header, restval="",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: _csv_text(v) for k, v in r.items()} for r in records)
    return out.getvalue()


# keys and strs that the csv module quotes, or that a %-template or the
# ';' list rule could misread
_CSV_CHARS = ',"\n\r%;a \u00e9'
_CSV_KEYS = st.one_of(_RECORD_KEYS, st.text(_CSV_CHARS, max_size=3))
_CSV_VALUES = st.one_of(_RECORD_VALUES, st.text(_CSV_CHARS, max_size=6))


@st.composite
def _csv_runs(draw):
    """Records of a few key layouts, in any order (see
    :func:`_record_runs`), with keys and strs that need quoting."""
    layouts = draw(st.lists(st.lists(_CSV_KEYS, unique=True, max_size=4),
                            min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(layouts) - 1), max_size=30))
    return [{key: draw(_CSV_VALUES) for key in layouts[k]} for k in picks]


@given(records=_csv_runs(), chunk=st.integers(min_value=1, max_value=8),
       coded=st.sets(_CSV_KEYS))
# a one-column table, where DictWriter writes an empty row's only cell
# (a None, an empty str or a missing key) and an empty key as ""
@example(records=[{"k": None}, {"k": ""}, {}, {"k": "a\rb"}, {"k": 1.5}],
         chunk=2, coded={"k"})
@example(records=[{"": None}, {"": 'x,"y"'}], chunk=1, coded=set())
# two layouts of the same keys in different orders, and one of none
@example(records=[{"a": 1, "b": "%s"}, {"b": "\n", "a": 0.5}, {}],
         chunk=8, coded={"b"})
@settings(max_examples=200, deadline=None)
def test_csv_writer_prints_what_dictwriter_prints(records, chunk, coded):
    out = io.StringIO()
    with mock.patch.object(cli, "_WRITE_CHUNK", chunk):
        cli._write_csv(_block(records, coded), out)
    assert out.getvalue() == _dictwriter_csv(records)


def test_record_writer_follows_nested_skip_layouts():
    # at d = 1 every nested trial skips, so the skip and the witnessed
    # layouts alternate
    for seed in range(3):
        records, _ = run_scan("nested", trials=30, dims=(1, 2, 5), seed=seed)
        assert len({tuple(r) for r in records}) == 2
        out = io.StringIO()
        cli._write_records(records, out)
        assert out.getvalue() == "".join(dumps(r) + "\n" for r in records)


@pytest.mark.parametrize("kind", scans.SCAN_KINDS)
def test_jsonl_scan_builds_no_record_dict(capsys, monkeypatch, kind):
    # JSONL and CSV both print the columns: with the rows of the record
    # view and the members' witness reports refused, each kind prints
    # in each format what it prints unrefused. The record view's rows
    # are the reference: JSONL prints their dumps, and CSV what
    # DictWriter writes of them
    argv = ["scan", "--kind", kind, "--trials", "30", "--grid", "6",
            "--dims", "1,2,3", "--seed", "2"]
    code, jsonl, _ = run_cli(capsys, *argv)
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0

    def refuse(self, k):
        raise AssertionError(f"record {k} was built as a dict")

    def refuse_report(self, k):
        raise AssertionError(f"member {k} was built as a witness report")

    with monkeypatch.context() as patched:
        patched.setattr(scans.Records, "_row", refuse)
        patched.setattr(witness._Analysis, "__getitem__", refuse_report)
        assert run_cli(capsys, *argv)[:2] == (0, jsonl)
        assert run_cli(capsys, *argv, "--format", "csv")[:2] == (0, csv_out)
    records, _ = run_scan(kind, trials=30, dims=(1, 2, 3), seed=2, grid=6)
    *lines, summary = jsonl.splitlines()
    assert lines == [dumps(r) for r in records]
    assert csv_out == _dictwriter_csv(list(records)) + summary + "\n"


def test_jsonl_scan_leaves_csv_out(subprocess_env):
    # only a CSV scan, or a --csv summary file, loads the csv module
    code = ("import sys; from qwitness.cli import main; "
            "main(['scan', '--kind', 'nested', '--trials', '5', '--dims', "
            "'1,2']); print('csv' in sys.modules, file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, check=True,
                            env=subprocess_env)
    assert result.stderr.endswith(b"False\n")


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), {1}])
def test_scan_record_that_cannot_be_encoded_exits_2(capsys, monkeypatch, bad):
    # a later chunk fails: stdout holds the records before the bad one,
    # as the per-record loop prints them
    records = [{"trial": t, "x": 0.5 * t} for t in range(9)]
    records[6]["x"] = bad
    monkeypatch.setattr(cli, "_WRITE_CHUNK", 4)
    monkeypatch.setattr(scans, "run_scan",
                        lambda *a, **k: (_block(records), {}))
    code, out, err = run_cli(capsys, "scan", "--kind", "null")
    assert code == 2
    assert out == "".join(dumps(r) + "\n" for r in records[:6])
    assert err.startswith("error: ")
    assert ("non-finite" in err) == (bad != {1})


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), {1}])
def test_csv_scan_record_that_cannot_be_encoded_exits_2(capsys, monkeypatch,
                                                        bad):
    # rows go out as they are encoded: stdout holds the header and the
    # rows before the bad one
    records = [{"trial": t, "x": 0.5 * t} for t in range(9)]
    records[6]["x"] = bad
    monkeypatch.setattr(scans, "run_scan",
                        lambda *a, **k: (_block(records), {}))
    code, out, err = run_cli(capsys, "scan", "--kind", "null",
                             "--format", "csv")
    assert code == 2
    assert out == "trial,x\n" + "".join(f"{t},{dumps(0.5 * t)}\n"
                                        for t in range(6))
    assert err.startswith("error: ")
    assert ("non-finite" in err) == (bad != {1})


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_coded_record_that_cannot_be_encoded_exits_2(capsys, monkeypatch,
                                                     fmt):
    # a dictionary-encoded entry fails only the rows that use it: stdout
    # holds the rows before the first of them, in either format
    records = [{"trial": t, "x": 0.5 * t} for t in range(9)]
    records[6]["x"] = float("inf")
    monkeypatch.setattr(scans, "run_scan",
                        lambda *a, **k: (_block(records, {"x"}), {}))
    code, out, err = run_cli(capsys, "scan", "--kind", "null",
                             "--format", fmt)
    assert code == 2
    assert out == (_dictwriter_csv(records[:6]) if fmt == "csv" else
                   "".join(dumps(r) + "\n" for r in records[:6]))
    assert "non-finite" in err


# ------------------------------------------------------------- plumbing

def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("qwitness ")


def test_no_command_prints_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage:" in err


def test_unknown_flag(capsys):
    code, _, _ = run_cli(capsys, "witness", "--states", "0,0,1", "1,0,0",
                         "--frobnicate")
    assert code == 2


# one process's calls of main, which share one parser: each kind of
# command and of parse failure, and a valid call after each error
_PARSER_SEQUENCE = [
    "witness --states 0,0,1 1,0,0",
    "nested --states s1.json s2.json --target 0.05",
    "amplify --state s1.json --n 8",
    "amplify --state s1.json --target 0.01",
    "circuit --states 0,0,1 1,0,0 --probe probe.json --shots 100 --seed 3",
    "discord-demo --state bell --ops z,x --outcomes 0,+",
    "scan --kind bloch --grid 4 --seed 1",
    "--version",
    "witness --states 0,0,1 1,0,0",
    "-h",
    "nested --states s1.json s2.json --target 0.05",
    "",
    "amplify --state s1.json --target 0.01",
    "nested --states s1.json s2.json",
    "nested --states s1.json s2.json --target 0.05",
    "amplify --state s1.json --target 0.01 --n 8",
    "amplify --state s1.json --target 0.01",
    "circuit --states 0,0,1 1,0,0 --probe probe.json --frobnicate",
    "circuit --states 0,0,1 1,0,0 --probe probe.json --shots 100",
    "scan --kind bogus",
    "scan --kind bloch --grid 4",
]


def test_shared_parser_prints_what_a_fresh_process_prints(
        monkeypatch, golden_inputs, subprocess_env):
    # main builds its parser once per process, and parsing leaves it as
    # it was: each call prints what `python -m qwitness` prints
    assert _build_parser() is _build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to it
    env = {**subprocess_env, "COLUMNS": "80"}
    commands = list(dict.fromkeys(_PARSER_SEQUENCE))
    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = dict(zip(commands, pool.map(
            lambda command: run(command, golden_inputs, env), commands)))
    for command in _PARSER_SEQUENCE:
        assert run(command, golden_inputs) == fresh[command], command


# each subcommand takes only the flags it reads
_UNREAD_FLAGS = {
    "witness": ("--seed", "--jobs", "--format", "--cap"),
    "nested": ("--seed", "--jobs", "--format"),
    "amplify": ("--seed", "--tol", "--jobs", "--format"),
    "circuit": ("--tol", "--jobs", "--format", "--cap"),
    "discord-demo": ("--seed", "--jobs", "--format", "--cap"),
    "scan": ("--tol", "--cap"),
}
_FLAG_VALUES = {"--seed": "4", "--jobs": "1", "--format": "json",
                "--cap": "5", "--tol": "witness=0.1"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in _UNREAD_FLAGS.items()
    for flag in flags])
def test_unread_flag_rejected(capsys, tmp_path, command, flag):
    probe = tmp_path / "probe.json"
    probe.write_text('{"amplitudes": [[1, 0], [0, 0]]}', encoding="utf-8")
    argv = {
        "witness": ["--states", "0,0,1", "1,0,0"],
        "nested": ["--states", "0,0,0.5", "0.5,0,0", "--target", "0.05"],
        "amplify": ["--state", "0,0,0.5", "--target", "0.05"],
        "circuit": ["--states", "0,0,1", "1,0,0", "--probe", str(probe)],
        "discord-demo": ["--state", "bell", "--ops", "z,x",
                         "--outcomes", "0,+"],
        "scan": ["--kind", "bloch", "--grid", "2"],
    }[command]
    assert main([command, *argv]) in (0, 10)
    capsys.readouterr()
    code, out, err = run_cli(capsys, command, *argv, flag, _FLAG_VALUES[flag])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_readme_flags_table_matches_parser():
    # the Flags table in README.md lists exactly each subcommand's flags
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Flags\n")[1]
    section = section.split("\n## ")[0]
    documented = {}
    for row in re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", section, re.M):
        documented[row[0]] = set(re.findall(r"--[a-z][a-z-]*", row[1]))
    parser = _build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {name: {opt for action in sub._actions
                    for opt in action.option_strings
                    if opt.startswith("--") and opt != "--help"}
             for name, sub in subparsers.choices.items()}
    assert documented == flags


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    # the benchmark's command lines are part of the CLI contract
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    parser = _build_parser()
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, 0, str(tmp_path / name))
        assert ops, name
        for op in ops:
            args = parser.parse_args(op.argv)
            assert args.command == op.argv[0], op.argv


def test_import_leaves_dataclasses_out(subprocess_env):
    # the report types are NamedTuples; a one-shot run does not pay for
    # the dataclasses import
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, qwitness.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, check=True, env=subprocess_env)
    assert result.stdout == b"False\n"


def test_import_leaves_command_modules_out(subprocess_env):
    # scans, discord, interferometer and csv load with the commands that
    # use them, so that a witness run does not pay for them
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, qwitness.cli; print(sorted({'qwitness.scans', "
         "'qwitness.discord', 'qwitness.interferometer', 'csv'} "
         "& set(sys.modules)))"],
        capture_output=True, check=True, env=subprocess_env)
    assert result.stdout == b"[]\n"


def test_console_script_byte_identical(subprocess_env):
    cmd = [sys.executable, "-m", "qwitness.cli", "scan", "--kind", "bloch",
           "--grid", "4", "--seed", "1"]
    runs = [subprocess.run(cmd, capture_output=True, check=False,
                           env=subprocess_env)
            for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith(b"\n")
    assert b"records in" not in runs[0].stdout


@pytest.mark.parametrize("kind, trials, lines_read, extra", [
    # `| head -1`: the records overflow the buffer
    pytest.param("pure-mixed", 3000, 1, (), id="pure-mixed-3000-1"),
    # `| head -n 0`: only the final flush writes
    pytest.param("null", 5, 0, (), id="null-5-0"),
    # `| head -n 0`: the pipe closes while the CSV writer writes rows
    pytest.param("pure-mixed", 3000, 0, ("--format", "csv"),
                 id="pure-mixed-3000-0-csv"),
])
def test_closed_stdout_exits_141_without_a_message(subprocess_env, kind,
                                                   trials, lines_read, extra):
    env = dict(subprocess_env)
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
    proc = subprocess.Popen(
        [sys.executable, "-m", "qwitness.cli", "scan", "--kind", kind,
         "--trials", str(trials), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for trial in range(lines_read):
        assert json.loads(proc.stdout.readline())["trial"] == trial
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert b"error:" not in err
    assert b"Traceback" not in err
    assert b"Exception ignored" not in err


def test_console_script_witness_exit_code(subprocess_env):
    """Runs the ``[project.scripts]`` target the way the installed
    ``qwitness`` script would, so no install step is needed. The entry
    is read with a regex, since ``tomllib`` needs Python 3.11."""
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text(encoding="utf-8").split(
        "[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target, = re.findall(r'^qwitness\s*=\s*"([^"]+)"$', scripts, re.M)
    module, _, func = target.partition(":")
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    result = subprocess.run(
        [sys.executable, "-c", launcher, "witness", "--states", "0,0,1", "1,0,0"],
        capture_output=True, check=False, env=subprocess_env)
    assert result.returncode == 10
    assert json.loads(result.stdout)["verdict"] == "NONPOSITIVE_WITNESSED"


# ------------------------------------------------------ malformed input

_JSON_NON_NUMBERS = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
# not a positive integer dimension, or an integer that mismatches the rows
_BAD_DIMS = st.one_of(
    _JSON_NON_NUMBERS, st.floats(allow_nan=False),
    st.integers().filter(lambda d: d not in (2, 4)),
)
_BAD_CELLS = st.one_of(
    _JSON_NON_NUMBERS,
    st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=4)
    .filter(lambda cell: len(cell) != 2),
    st.tuples(st.integers(min_value=10**309, max_value=10**320),
              st.just(0)).map(list),
)


@st.composite
def _malformed_matrix_text(draw, valid: dict) -> str:
    """The JSON text of ``valid`` with one defect, or unparsable text."""
    obj = json.loads(json.dumps(valid))
    how = draw(st.sampled_from(["dim", "cell", "drop", "row", "text"]))
    if how == "dim":
        obj["dim"] = draw(_BAD_DIMS)
    elif how == "cell":
        d = valid["dim"]
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        cell = draw(_BAD_CELLS)
        # an integer pair breaks Hermiticity or the trace unless it equals
        # the cell it replaces, such as [0, 0] over [0.0, 0.0]
        assume(cell != obj["entries"][i][j])
        obj["entries"][i][j] = cell
    elif how == "drop":
        del obj[draw(st.sampled_from(["dim", "entries"]))]
    elif how == "row":
        obj["entries"][draw(st.integers(0, valid["dim"] - 1))] = draw(
            _JSON_NON_NUMBERS)
    else:
        return draw(st.sampled_from(["", "{", "[" * 50_000, "nul", "{'a': 1}",
                                     "[1, 2]", "3", '"state"', "{}"]))
    return json.dumps(obj)


@st.composite
def _malformed_probe_text(draw) -> str:
    obj = {"amplitudes": [[1, 0], [0, 0]]}
    how = draw(st.sampled_from(["cell", "list"]))
    if how == "cell":
        i, cell = draw(st.integers(0, 1)), draw(_BAD_CELLS)
        # the other amplitude is 0, so an integer pair keeps the probe a unit
        # vector when |cell|^2 is 1 at index 0 (a phase) or 0 at index 1
        assume(not (isinstance(cell, list) and len(cell) == 2
                    and all(type(x) is int for x in cell)
                    and cell[0] ** 2 + cell[1] ** 2 == 1 - i))
        obj["amplitudes"][i] = cell
    else:
        obj["amplitudes"] = draw(st.one_of(st.text(max_size=3), st.none(),
                                           st.integers(), st.just([])))
    return json.dumps(obj)


def _exit_code(path, text: str, argv: list[str]) -> int:
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code != 2 or err.getvalue().startswith("error:")
    return code


_STATE_JSON = state_to_json(make_density(np.diag([0.7, 0.3])))
_BIPARTITE_JSON = state_to_json(make_density(
    np.kron(np.full((2, 2), 0.5), np.diag([0.6, 0.4]))))
_FUZZ = settings(max_examples=150, deadline=None)


@given(text=_malformed_matrix_text(_STATE_JSON))
@_FUZZ
def test_fuzz_malformed_state_file_exits_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    assert _exit_code(path, text,
                      ["witness", "--states", str(path), "0,0,1"]) == 2


@given(text=_malformed_probe_text())
@_FUZZ
def test_fuzz_malformed_probe_file_exits_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "probe.json"
    assert _exit_code(path, text, ["circuit", "--states", "0,0,1", "1,0,0",
                                   "--probe", str(path)]) == 2


@given(text=_malformed_matrix_text(_BIPARTITE_JSON))
@_FUZZ
def test_fuzz_malformed_bipartite_file_exits_2(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "ab.json"
    assert _exit_code(path, text, ["discord-demo", "--state", str(path),
                                   "--dims", "2,2", "--ops", "z,x",
                                   "--outcomes", "0,+"]) == 2
