"""Seeded workloads for the qwitness benchmark and their output oracles.

A workload is one pass of operations, generated from the workload seed
and repeated for as long as a run lasts. An operation is one
``qwitness`` command line: a ``scan`` batch or a ``circuit`` call run in
process through ``qwitness.cli.main``, or a one-shot
``python -m qwitness.cli`` subprocess. Inputs are generated and never
filtered, so a defect that a generated input can reach still shows.

Each operation carries an oracle that reads the exit code and stdout
and returns how many of the operation's units (scan trials, or the one
invocation) failed: a wrong exit code, a counterexample, a failed
cross-check in the output, or a disagreement with an independent
numpy recomputation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("scan-mixed", "scan-grid", "cli-oneshot", "circuit-dense")

TOL = 1e-10          # the package's witness/null tolerance and agreement bound
EXIT_OK, EXIT_WITNESSED = 0, 10
WITNESSED = "NONPOSITIVE_WITNESSED"

# scan batch sizes: each batch of scan-mixed takes ~0.1 s on one core,
# so the three kinds weigh alike in a pass
MIXED_BATCHES = (("pure-mixed", 250), ("nested", 150), ("discord", 30))
MIXED_VARIANTS = 2
# scan-grid commands of ~0.1-0.3 s, so that each repeats ~40 times in a
# run and its best time is found between bursts of load on a shared host
BLOCH_GRID = 50
NULL_TRIALS = 500
NULL_BATCHES = 4
# one variant: six commands of ~0.2 s repeat ~20 times in a run
ONESHOT_VARIANTS = 1
DENSE_VARIANTS = 2
DENSE_SHOTS = 4096
ONESHOT_SHOTS = 2000


@dataclass
class Outcome:
    """What an oracle found in one operation's output."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)
    skipped: int = 0

    def fail(self, units: int, message: str) -> None:
        self.failed += units
        if len(self.problems) < 5:
            self.problems.append(message)


@dataclass
class Op:
    """One command line of a workload pass.

    ``units`` is the number of operations it counts for: the trials of
    a scan batch, or 1 for an invocation. ``kind`` names the scan kind
    or subcommand, which the per-layer bases use.
    """

    label: str
    argv: list[str]
    units: int
    kind: str
    oracle: Callable[[object, str], Outcome]
    subprocess: bool = False


# ------------------------------------------------------------ generation

def _ginibre_state(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / m.trace().real


def _unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")
    return path


def _matrix_json(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]),
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m]}


def _matrix_from_json(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj["entries"]])


def _vector_json(v: np.ndarray) -> dict:
    return {"amplitudes": [[float(z.real), float(z.imag)] for z in v]}


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def build(workload: str, seed: int, input_dir: str) -> list[Op]:
    """The operations of one pass of ``workload``, from ``seed``.

    Input files, where a workload needs them, are written to
    ``input_dir``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    os.makedirs(input_dir, exist_ok=True)
    if workload == "scan-mixed":
        return _scan_mixed(rng)
    if workload == "scan-grid":
        return _scan_grid(rng)
    if workload == "cli-oneshot":
        return _cli_oneshot(rng, input_dir)
    return _circuit_dense(rng, input_dir)


def _scan_op(kind: str, trials: int, scan_seed: int, extra: list[str]) -> Op:
    argv = ["scan", "--kind", kind, "--seed", str(scan_seed), "--jobs", "1", *extra]
    return Op(label=f"scan {kind} seed {scan_seed}", argv=argv, units=trials,
              kind=kind, oracle=lambda rc, out: check_scan(kind, trials, scan_seed, rc, out))


def _scan_mixed(rng) -> list[Op]:
    ops = []
    for _ in range(MIXED_VARIANTS):
        for (kind, trials), s in zip(MIXED_BATCHES, _seeds(rng, len(MIXED_BATCHES))):
            ops.append(_scan_op(kind, trials, s,
                                ["--trials", str(trials), "--dims", "2,3,4"]))
    return ops


def _scan_grid(rng) -> list[Op]:
    seeds = _seeds(rng, 1 + NULL_BATCHES)
    ops = [_scan_op("bloch", BLOCH_GRID**2, seeds[0], ["--grid", str(BLOCH_GRID)])]
    for s in seeds[1:]:
        ops.append(_scan_op("null", NULL_TRIALS, s,
                            ["--trials", str(NULL_TRIALS), "--dims", "2,3,4"]))
    return ops


def _cli_oneshot(rng, input_dir: str) -> list[Op]:
    ops = []
    for v in range(ONESHOT_VARIANTS):
        def path(name):
            return os.path.join(input_dir, f"v{v}-{name}.json")

        d = 3 + v
        pure = _ginibre_state(rng, d, rank=1)
        mixed = [_ginibre_state(rng, d) for _ in range(3)]
        files = {name: _write_json(path(name), _matrix_json(m)) for name, m in
                 (("pure", pure), ("mixed0", mixed[0]), ("mixed1", mixed[1]),
                  ("mixed2", mixed[2]))}
        ops.append(_oneshot(f"witness pure d={d}", "witness",
                            ["witness", "--states", files["pure"], files["mixed0"]],
                            lambda rc, out, a=pure, b=mixed[0]: check_witness(a, b, rc, out)))
        ops.append(_oneshot(f"witness mixed d={d}", "witness",
                            ["witness", "--states", files["mixed1"], files["mixed2"]],
                            lambda rc, out, a=mixed[1], b=mixed[2]: check_witness(a, b, rc, out)))
        target = 0.05
        ops.append(_oneshot(f"nested d={d}", "nested",
                            ["nested", "--states", files["mixed0"], files["mixed1"],
                             "--target", str(target)],
                            lambda rc, out, a=mixed[0], b=mixed[1], t=target:
                            check_nested(a, b, t, rc, out)))
        amp_target = 0.01
        ops.append(_oneshot(f"amplify d={d}", "amplify",
                            ["amplify", "--state", files["mixed2"], "--target", str(amp_target)],
                            lambda rc, out, a=mixed[2], t=amp_target: check_amplify(a, t, rc, out)))
        bip = _ginibre_state(rng, 4)
        bip_file = _write_json(path("bipartite"), _matrix_json(bip))
        ops.append(_oneshot("discord-demo 2x2", "discord-demo",
                            ["discord-demo", "--state", bip_file, "--dims", "2,2",
                             "--ops", "z,x", "--outcomes", "0,+"],
                            lambda rc, out, m=bip: check_discord(m, rc, out)))
        qubits = [_ginibre_state(rng, 2) for _ in range(2)]
        probe = _unit_vector(rng, 2)
        q_files = [_write_json(path(f"qubit{i}"), _matrix_json(m)) for i, m in enumerate(qubits)]
        probe_file = _write_json(path("probe"), _vector_json(probe))
        circuit_seed = _seeds(rng, 1)[0]
        ops.append(_oneshot("circuit d=2 l=2", "circuit",
                            ["circuit", "--states", *q_files, "--probe", probe_file,
                             "--shots", str(ONESHOT_SHOTS), "--seed", str(circuit_seed)],
                            lambda rc, out, ms=qubits, p=probe, s=circuit_seed:
                            check_circuit(ms, p, ONESHOT_SHOTS, s, rc, out)))
    return ops


def _oneshot(label, kind, argv, oracle) -> Op:
    return Op(label=label, argv=argv, units=1, kind=kind, oracle=oracle, subprocess=True)


def _circuit_dense(rng, input_dir: str) -> list[Op]:
    """Circuits at the package's total-dimension cap, 2 * d**(copies+1) = 512."""
    ops = []
    for v in range(DENSE_VARIANTS):
        for d, distinct, copies in ((4, 3, 3), (2, 1, 7)):
            mats = [_ginibre_state(rng, d) for _ in range(distinct)]
            probe = _unit_vector(rng, d)
            files = [_write_json(os.path.join(input_dir, f"v{v}-d{d}-s{i}.json"),
                                 _matrix_json(m)) for i, m in enumerate(mats)]
            probe_file = _write_json(os.path.join(input_dir, f"v{v}-d{d}-probe.json"),
                                     _vector_json(probe))
            s = _seeds(rng, 1)[0]
            registers = mats * (copies // distinct)
            ops.append(Op(
                label=f"circuit d={d} copies={copies}",
                argv=["circuit", "--states", *files, "--copies", str(copies),
                      "--probe", probe_file, "--shots", str(DENSE_SHOTS), "--seed", str(s)],
                units=1, kind="circuit",
                oracle=lambda rc, out, ms=registers, p=probe, s=s:
                check_circuit(ms, p, DENSE_SHOTS, s, rc, out)))
    return ops


# --------------------------------------------------------------- oracles

def _min_anticommutator_eig(a: np.ndarray, b: np.ndarray) -> float:
    anti = a @ b + b @ a
    return float(np.linalg.eigvalsh((anti + anti.conj().T) / 2).min())


def _one_json(out: str, result: Outcome):
    lines = out.splitlines()
    if len(lines) != 1:
        result.fail(1, f"expected one stdout line, got {len(lines)}")
        return None
    try:
        return json.loads(lines[0])
    except ValueError as exc:
        result.fail(1, f"stdout is not JSON: {exc}")
        return None


def _close(x, y, tol: float = TOL) -> bool:
    return x is not None and abs(float(x) - float(y)) <= tol


def _check_verdict_exit(report: dict, rc, result: Outcome) -> None:
    witnessed = report["verdict"] == WITNESSED
    if witnessed != (report["min_eigenvalue"] < -TOL):
        result.fail(1, "verdict disagrees with the minimum eigenvalue")
    if rc != (EXIT_WITNESSED if witnessed else EXIT_OK):
        result.fail(1, f"exit code {rc} for verdict {report['verdict']}")


def check_witness(a: np.ndarray, b: np.ndarray, rc, out: str) -> Outcome:
    result = Outcome()
    obj = _one_json(out, result)
    if obj is None:
        return result
    expected = _min_anticommutator_eig(a, b)
    if not _close(obj.get("min_eigenvalue"), expected):
        result.fail(1, f"witness min eigenvalue {obj.get('min_eigenvalue')} != {expected}")
        return result
    want_rc = EXIT_WITNESSED if expected < -TOL else EXIT_OK
    if rc != want_rc:
        result.fail(1, f"witness exit code {rc}, expected {want_rc}")
    elif (obj["verdict"] == WITNESSED) != (want_rc == EXIT_WITNESSED):
        result.fail(1, f"witness verdict {obj['verdict']} with exit code {rc}")
    return result


def _eps_at(lam: np.ndarray, n: int) -> float:
    s = float(np.sum((lam[1:] / lam[0]) ** n))
    return s / (1.0 + s)


def _check_plan(lam: np.ndarray, target: float, plan: dict, result: Outcome) -> None:
    n = plan["n"]
    if plan["degenerate"] or n < 1:
        result.fail(1, f"plan reports degenerate or n={n}")
        return
    if not (_eps_at(lam, n) <= target and (n == 1 or _eps_at(lam, n - 1) > target)):
        result.fail(1, f"plan n={n} is not the smallest reaching {target}")
    if not _close(plan["achieved_epsilon"], _eps_at(lam, n), 1e-12):
        result.fail(1, "plan achieved epsilon disagrees with the spectrum")


def _descending_eigh(m: np.ndarray):
    w, v = np.linalg.eigh(m)
    return np.clip(w[::-1], 0.0, None), v[:, ::-1]


def check_amplify(a: np.ndarray, target: float, rc, out: str) -> Outcome:
    result = Outcome()
    obj = _one_json(out, result)
    if obj is None:
        return result
    if rc != EXIT_OK:
        result.fail(1, f"amplify exit code {rc}")
        return result
    _check_plan(_descending_eigh(a)[0], target, obj, result)
    return result


def _amplified(m: np.ndarray, n: int) -> np.ndarray:
    lam, v = _descending_eigh(m)
    w = (lam / lam[0]) ** n
    return (v * (w / w.sum())) @ v.conj().T


def check_nested(a: np.ndarray, b: np.ndarray, target: float, rc, out: str) -> Outcome:
    result = Outcome()
    obj = _one_json(out, result)
    if obj is None:
        return result
    _check_plan(_descending_eigh(a)[0], target, obj["plan1"], result)
    _check_plan(_descending_eigh(b)[0], target, obj["plan2"], result)
    if result.failed:
        return result
    expected = _min_anticommutator_eig(_amplified(a, obj["plan1"]["n"]),
                                       _amplified(b, obj["plan2"]["n"]))
    report = obj["report"]
    if not _close(report["min_eigenvalue"], expected, 1e-9):
        result.fail(1, f"nested min eigenvalue {report['min_eigenvalue']} != {expected}")
        return result
    _check_verdict_exit(report, rc, result)
    return result


_KETS = {"0": np.array([1, 0], dtype=complex), "+": np.array([1, 1], dtype=complex) / math.sqrt(2)}


def check_discord(m: np.ndarray, rc, out: str) -> Outcome:
    """Conditional states of B after outcome 0 of z and + of x on A."""
    result = Outcome()
    obj = _one_json(out, result)
    if obj is None:
        return result
    r = m.reshape(2, 2, 2, 2)
    for key, outcome in (("first", "0"), ("second", "+")):
        k = _KETS[outcome]
        unnorm = np.einsum("i,ijkl,k->jl", k.conj(), r, k)
        prob = float(unnorm.trace().real)
        got = obj["conditionals"][key]
        if not _close(obj["probabilities"][key], prob, 1e-12) or got is None:
            result.fail(1, f"discord {key} probability {obj['probabilities'][key]} != {prob}")
            return result
        if np.abs(_matrix_from_json(got) - unnorm / prob).max() > TOL:
            result.fail(1, f"discord {key} conditional state disagrees")
            return result
    _check_verdict_exit(obj["report"], rc, result)
    return result


def check_circuit(mats: list[np.ndarray], probe: np.ndarray, shots: int, seed: int,
                  rc, out: str) -> Outcome:
    """``exact`` against Re tr[rho_1 ... rho_l |psi><psi|]; the sampled
    estimate within 6 sigma of it; the stderr and shot-count formulas."""
    result = Outcome()
    obj = _one_json(out, result)
    if obj is None:
        return result
    if rc != EXIT_OK:
        result.fail(1, f"circuit exit code {rc}")
        return result
    product = np.eye(mats[0].shape[0], dtype=complex)
    for m in mats:
        product = product @ m
    expected = float(np.vdot(probe, product @ probe).real)
    exact, est, err = obj.get("exact"), obj.get("estimate"), obj.get("stderr")
    if not _close(exact, expected):
        result.fail(1, f"circuit exact {exact} != {expected}")
        return result
    if obj.get("shots") != shots or obj.get("seed") != seed:
        result.fail(1, "circuit echoes the wrong shots or seed")
    sigma = math.sqrt(max(1.0 - expected**2, 0.0) / shots)
    if est is None or abs(est - expected) > 6.0 * sigma + 1e-12:
        result.fail(1, f"circuit estimate {est} is not within 6 sigma of {expected}")
    elif not _close(err, math.sqrt(max(1.0 - est * est, 0.0) / shots), 1e-12):
        result.fail(1, "circuit stderr disagrees with the estimate")
    got = obj.get("shots_to_resolve")
    if exact == 0 or abs(exact) >= 1:
        ok = got == (None if exact == 0 else 1)
    else:
        # 5-sigma resolution; one shot of slack for rounding at the floor
        want = math.floor(25.0 * (1.0 - exact * exact) / (exact * exact)) + 1
        ok = isinstance(got, int) and abs(got - want) <= 1
    if not ok:
        result.fail(1, f"shots_to_resolve {got} disagrees with exact {exact}")
    return result


def _bloch_min_eigs(rows: list[dict]) -> np.ndarray:
    """Minimum eigenvalue of {rho(b1), rho(b2)} rebuilt from r and theta."""
    def states(r, theta):
        x, z = r * np.sin(theta), r * np.cos(theta)
        m = np.empty((len(r), 2, 2), dtype=complex)
        m[:, 0, 0], m[:, 1, 1] = (1 + z) / 2, (1 - z) / 2
        m[:, 0, 1] = m[:, 1, 0] = x / 2
        return m

    col = {k: np.array([row[k] for row in rows], dtype=float)
           for k in ("r1", "theta1", "r2", "theta2")}
    a, b = states(col["r1"], col["theta1"]), states(col["r2"], col["theta2"])
    return np.linalg.eigvalsh(a @ b + b @ a).min(axis=1)


def check_scan(kind: str, trials: int, seed: int, rc, out: str) -> Outcome:
    """Exit code, record count and summary, per-record flags and, for
    ``bloch``, the minimum eigenvalue recomputed from the grid point."""
    result = Outcome()
    lines = out.splitlines()
    try:
        rows = [json.loads(line) for line in lines]
    except ValueError as exc:
        result.fail(trials, f"scan {kind}: stdout is not JSONL: {exc}")
        return result
    if len(rows) != trials + 1:
        result.fail(trials, f"scan {kind}: {len(rows)} lines for {trials} trials")
        return result
    records, summary = rows[:-1], rows[-1]
    if rc != EXIT_OK:
        result.fail(trials, f"scan {kind}: exit code {rc}")
        return result
    if (summary.get("kind") != kind or summary.get("trials") != trials
            or summary.get("seed") != seed or summary.get("counterexamples") != 0):
        result.fail(trials, f"scan {kind}: bad summary {summary}")
        return result
    bad = [False] * trials
    for t, rec in enumerate(records):
        if rec.get("counterexample") is not False:
            bad[t] = True
        elif kind == "pure-mixed":
            bad[t] = (rec["trial"] != t or rec["purity_deviation"] > TOL
                      or (rec["verdict"] == WITNESSED) != (rec["min_eigenvalue"] < -TOL))
        elif kind == "nested":
            if rec["skipped"]:
                result.skipped += 1
            else:
                bad[t] = (rec["verdict"] == WITNESSED) != (rec["min_eigenvalue"] < -TOL)
        elif kind == "discord":
            bad[t] = (rec["cq_noncommuting"] or rec["cq_verdict"] == WITNESSED
                      or rec["product_verdict"] == WITNESSED)
        elif kind == "null":
            bad[t] = rec["null"] != (rec["anticommutator_norm"] <= TOL)
    if kind == "pure-mixed" and summary.get("max_purity_deviation", 1.0) > TOL:
        result.fail(trials, "pure-mixed: closed-form purity cross-check failed")
        return result
    if kind == "bloch":
        side = math.isqrt(trials)
        for t, (rec, m) in enumerate(zip(records, _bloch_min_eigs(records))):
            if (rec["i"], rec["j"]) != divmod(t, side) or not _close(rec["min_eigenvalue"], m):
                bad[t] = True
    for t in (t for t, b in enumerate(bad) if b):
        result.fail(1, f"scan {kind} seed {seed}: trial {t} failed its check")
    return result
