"""Output checks: corrupted outputs fail, and the command then exits nonzero."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
import worker
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _scan_stdout(argv):
    import contextlib
    import io

    import qwitness.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_bloch_check_catches_one_wrong_eigenvalue():
    rc, out = _scan_stdout(["scan", "--kind", "bloch", "--grid", "5", "--seed", "2"])
    assert workloads.check_scan("bloch", 25, 2, rc, out).failed == 0
    lines = out.splitlines()
    rec = json.loads(lines[7])
    rec["min_eigenvalue"] += 1e-6
    lines[7] = json.dumps(rec)
    outcome = workloads.check_scan("bloch", 25, 2, rc, "\n".join(lines) + "\n")
    assert outcome.failed == 1


def test_scan_check_fails_the_whole_batch_on_a_wrong_exit_code():
    rc, out = _scan_stdout(["scan", "--kind", "null", "--trials", "9", "--seed", "2"])
    assert workloads.check_scan("null", 9, 2, rc, out).failed == 0
    assert workloads.check_scan("null", 9, 2, 1, out).failed == 9


def test_circuit_check_recomputes_the_exact_value():
    rng = np.random.default_rng(0)
    mats = [workloads._ginibre_state(rng, 2) for _ in range(2)]
    probe = workloads._unit_vector(rng, 2)
    exact = float(np.vdot(probe, mats[0] @ mats[1] @ probe).real)
    out = {"exact": exact, "estimate": exact, "stderr": np.sqrt((1 - exact**2) / 100),
           "shots": 100, "seed": 5,
           "shots_to_resolve": int(np.floor(25 * (1 - exact * exact) / (exact * exact))) + 1}
    assert workloads.check_circuit(mats, probe, 100, 5, 0, json.dumps(out)).failed == 0
    out["exact"] = exact + 1e-8
    assert workloads.check_circuit(mats, probe, 100, 5, 0, json.dumps(out)).failed == 1


def test_end_to_end_times_each_command_at_its_best_repeat():
    ops = [workloads.Op(label=f"op{i}", argv=[], units=u, kind="null", oracle=None)
           for i, u in enumerate((10, 1, 1, 1, 1))]
    # seconds per repeat; the slow repeats stand for bursts of outside load
    per_op = [[0.5, 0.2, 0.9], [0.01, 0.03], [0.02, 0.05], [0.03, 0.03], [0.04, 0.1]]
    phase = {"per_op": per_op, "units": 24, "busy_s": sum(map(sum, per_op))}
    metrics, detail = worker.end_to_end(phase, ops, uses_children=False)
    assert worker.best_pass_s(phase) == pytest.approx(0.3)
    assert metrics["trials_per_s"] == pytest.approx(14 / 0.3)
    assert metrics["latency_p50_ms"] == pytest.approx(30.0)
    assert metrics["latency_p90_ms"] == pytest.approx(200.0)
    assert [c["samples"] for c in detail["commands"]] == [3, 2, 2, 2, 2]
    assert detail["all_samples"]["trials_per_s"] == pytest.approx(24 / phase["busy_s"])


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


def _checkout_copy(tmp_path, with_src=True):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(tmp_path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)


def test_corrupted_output_fails_and_exits_nonzero(tmp_path):
    _checkout_copy(tmp_path)
    cli_py = tmp_path / "src" / "qwitness" / "cli.py"
    source = cli_py.read_text(encoding="utf-8")
    assert 'format(x, ".17g")' in source
    cli_py.write_text(source.replace('format(x, ".17g")', 'format(x, ".6g")'),
                      encoding="utf-8")
    proc = _run(tmp_path, "--workload", "circuit-dense", "--seed", "1",
                "--seconds", "0.1", "--trace", "0")
    assert proc.returncode != 0
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    _checkout_copy(tmp_path, with_src=False)
    proc = _run(tmp_path, "--workload", "scan-mixed", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
