"""Acceptance gate for the package.

Each test checks one headline property end to end and prints a single
``[PASS]``/``[FAIL]`` line to the real stdout so the gate is readable
straight off a captured pytest run.
"""

import hashlib
import json
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from io import StringIO

import numpy as np
import pytest

from qwitness.cli import dumps, main
from qwitness.interferometer import (
    _shift_trace,
    run_circuit_exact,
    sample_readout,
)
from qwitness.linalg import anticommutator
from qwitness.states import (
    PureDecomposition,
    make_density,
    pure_projector,
    random_density,
    random_pure,
    random_unitary,
    reconstruct_decomposition,
    seeded_rng,
    state_to_json,
)
from qwitness.scans import scan_bloch, scan_discord, scan_nested, scan_pure_mixed
from qwitness.witness import (
    DegenerateVerdict,
    OverlapData,
    Verdict,
    amplify,
    degenerate_case_analysis,
    first_order_purity,
    nonpositivity_condition,
    orthogonal_case_analysis,
    parallel_case_indicator,
    plan_amplification,
    pure_mixed_test,
)

_MODULE_T0 = time.monotonic()
_CACHE: dict = {}


@contextmanager
def criterion(num: int, label: str, cap):
    """Announce one acceptance check on the uncaptured terminal."""
    def announce(tag):
        with cap.disabled():
            print(f"\n[{tag}] criterion {num}: {label}", flush=True)

    try:
        yield
    except BaseException:
        announce("FAIL")
        raise
    announce("PASS")


def pure_mixed_corpus():
    if "pure_mixed" not in _CACHE:
        start = time.monotonic()
        records, summary = scan_pure_mixed(1000, [2, 3, 4, 5, 6], 11)
        _CACHE["pure_mixed"] = (records, summary, time.monotonic() - start)
    return _CACHE["pure_mixed"]


def test_criterion_1_verdict_equals_noncommutation(capsys):
    with criterion(1, "pure-vs-mixed verdict tracks noncommutation "
                      "(1000 pairs, d=2..6, <10s)", capsys):
        records, summary, elapsed = pure_mixed_corpus()
        assert len(records) == 1000
        assert summary["counterexamples"] == 0
        for r in records:
            witnessed = r["verdict"] == "NONPOSITIVE_WITNESSED"
            assert witnessed == (r["commutator_norm"] > 1e-10)
        assert elapsed < 10.0, f"corpus took {elapsed:.2f}s"


def test_criterion_2_closed_form_purity_agrees(capsys):
    with criterion(2, "closed-form purity deviates <= 1e-10 from the "
                      "eigen route on the same corpus", capsys):
        records, summary, _ = pure_mixed_corpus()
        deviations = [r["purity_deviation"] for r in records]
        assert max(deviations) <= 1e-10
        assert summary["max_purity_deviation"] <= 1e-10


def test_criterion_3_amplification_minimal_n_and_large_n(capsys):
    with criterion(3, "amplification reaches 0.95 leading weight at the "
                      "minimal n and stays valid at n=10^4", capsys):
        rho = make_density(np.diag([0.6, 0.4]))
        plan = plan_amplification(rho, 0.05)
        assert plan.n == 8
        top = float(amplify(rho, plan.n).spectrum.eigenvalues[0])
        assert top >= 0.95
        short = float(amplify(rho, plan.n - 1).spectrum.eigenvalues[0])
        assert short < 0.95
        for n in (10, 100, 10_000):
            sharp = amplify(rho, n)  # construction re-runs all invariants
            assert np.isfinite(sharp.matrix).all()
            assert float(sharp.matrix.trace().real) == pytest.approx(
                1.0, abs=1e-12)
        assert float(amplify(rho, 10_000).spectrum.eigenvalues[0]) == \
            pytest.approx(1.0, abs=1e-15)


def test_criterion_4_margin_condition_and_sign_identity(capsys):
    with criterion(4, "margin condition forces a negative eigenvalue "
                      "(1000 pairs); purity sign identity on 10^4 tuples", capsys):
        records, summary = scan_nested(1000, [2, 3, 4], 13)
        assert summary["counterexamples"] == 0
        met = [r for r in records if r["condition"]]
        assert len(met) > 0
        for r in met:
            assert r["min_eigenvalue"] < -1e-10
        rng = seeded_rng(29)
        checked = 0
        for _ in range(10_000):
            af2 = float(rng.uniform(1e-4, 1.0 - 1e-4))
            o = OverlapData(f=complex(np.sqrt(af2)),
                            g1=float(rng.uniform(0.0, 1.0)),
                            g2=float(rng.uniform(0.0, 1.0)),
                            eps1=float(rng.uniform(0.0, 0.5)),
                            eps2=float(rng.uniform(0.0, 0.5)))
            value = first_order_purity(o)
            s = o.eps1 * o.g1 + o.eps2 * o.g2
            # exact rearrangement: (value-1) * denom = 1 - |f|^2 - 2s
            assert abs((value - 1.0) * 2.0 * (af2 + 2.0 * s)
                       - (1.0 - af2 - 2.0 * s)) <= 1e-12
            if abs(value - 1.0) > 1e-9:
                assert (value > 1.0) == nonpositivity_condition(o)
                checked += 1
        assert checked > 9000


def test_criterion_5_bloch_grid_has_no_violations(capsys):
    with criterion(5, "100x100 qubit ball grid: condition true never meets "
                      "an eigenvalue below -1e-10", capsys):
        records, summary = scan_bloch(100)
        assert len(records) == 100 * 100
        assert summary["counterexamples"] == 0
        for r in records:
            if r["condition"]:
                assert r["min_eigenvalue"] >= -1e-10


def test_criterion_6_three_level_bracket_and_caveat(capsys):
    with criterion(6, "three-level bracket matches -(3+sin^2)sin^2 at five "
                      "angles; interior angles still dip negative", capsys):
        p1 = np.diag([1.0, 1.0, 0.0])
        angles = [0.0, np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2]
        for theta in angles:
            c, s = np.cos(theta), np.sin(theta)
            r = np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])
            p2 = r @ np.diag([0.0, 1.0, 1.0]) @ r.T
            report = degenerate_case_analysis(p1, 2, p2, 2, 1e-3, 1e-3)
            expected = -(3.0 + np.sin(theta) ** 2) * np.sin(theta) ** 2
            assert abs(report.bracket - expected) <= 1e-10
            if theta in (0.0, np.pi / 2):
                continue
            # a negative bracket leaves the test inconclusive, yet the
            # operator itself goes negative at small mixing weights
            assert report.verdict is DegenerateVerdict.NEGATIVE_INCONCLUSIVE
            assert report.direct_min_eigenvalue < 0.0


def low_rank_tail(psi, rng, d):
    basis = np.linalg.qr(
        np.column_stack([psi, random_unitary(d, rng)[:, 1:]]))[0]
    comp = basis[:, 1:]
    rank = int(rng.integers(1, d))
    inner = random_density(d - 1, rank, rng)
    m = comp @ inner.matrix @ comp.conj().T
    return make_density((m + m.conj().T) / 2)


def test_criterion_7_boundary_overlap_indicators(capsys):
    with criterion(7, "parallel-overlap indicator sits under 1e-12 + 20eps^3;"
                      " orthogonal-overlap verdicts match direct spectra", capsys):
        for eps in (1e-2, 1e-3):
            for t in range(50):
                rng = seeded_rng(59, t)
                u = random_unitary(4, rng)
                psi, comp = u[:, 0], u[:, 1:]
                decs = []
                for _ in range(2):
                    inner = random_density(3, int(rng.integers(1, 4)), rng)
                    m = comp @ inner.matrix @ comp.conj().T
                    decs.append(PureDecomposition(
                        epsilon=eps, psi=psi,
                        eta=make_density((m + m.conj().T) / 2)))
                value = parallel_case_indicator(decs[0], decs[1])
                assert value <= 1e-12 + 20.0 * eps**3
        witnessable = 0
        for k in range(100):
            rng = seeded_rng(7, k)
            u = random_unitary(4, rng)
            decs = []
            for col in (0, 1):
                psi = u[:, col]
                decs.append(PureDecomposition(
                    epsilon=1e-3, psi=psi, eta=low_rank_tail(psi, rng, 4)))
            report = orthogonal_case_analysis(decs[0], decs[1])
            if report.witnessable:
                anti = anticommutator(reconstruct_decomposition(decs[0]),
                                      reconstruct_decomposition(decs[1]))
                assert float(np.linalg.eigvalsh(anti).min()) < 0.0
                witnessable += 1
        assert witnessable >= 10


def test_criterion_8_shift_and_circuit_identities(capsys):
    with criterion(8, "shift trace and circuit visibility identities hold; "
                      "sampled runs land within 5 sigma in >=99/100", capsys):
        for t in range(100):
            rng = seeded_rng(67, t)
            l = 2 + t % 2
            d = 2 + t % 3
            states = [random_density(d, d, rng) for _ in range(l)]
            value = _shift_trace([s.matrix for s in states])
            direct = states[0].matrix
            for s in states[1:]:
                direct = direct @ s.matrix
            assert abs(value - complex(direct.trace())) <= 1e-10
        for t in range(100):
            rng = seeded_rng(71, t)
            d = 2 + t % 3
            rho1 = random_density(d, d, rng)
            rho2 = random_density(d, d, rng)
            psi = random_pure(d, rng)
            got = run_circuit_exact((rho1, rho2), psi)
            anti = anticommutator(rho1.matrix, rho2.matrix)
            want = float((psi.conj() @ anti @ psi).real) / 2.0
            assert abs(got - want) <= 1e-12
        probed = 0
        for t in range(60):
            rng = seeded_rng(73, t)
            d = 2 + t % 3
            psi = random_pure(d, rng)
            rho1 = make_density(pure_projector(psi))
            rho2 = random_density(d, d, rng)
            report = pure_mixed_test(psi, rho2)
            if report.verdict is not Verdict.NONPOSITIVE_WITNESSED:
                continue
            got = run_circuit_exact((rho1, rho2), report.witness_vector)
            assert abs(got - report.min_eigenvalue / 2.0) <= 1e-10
            probed += 1
        assert probed >= 30
        report = pure_mixed_test(np.array([1.0, 0.0], dtype=complex),
                                 make_density(np.full((2, 2), 0.5)))
        pair = (make_density(np.diag([1.0, 0.0])),
                make_density(np.full((2, 2), 0.5)))
        exact = run_circuit_exact(pair, report.witness_vector)
        hits = 0
        for seed in range(100):
            estimate, stderr = sample_readout(exact, 100_000, seed)
            if abs(estimate - exact) <= 5.0 * stderr:
                hits += 1
        assert hits >= 99


def test_criterion_9_discord_demo_and_zero_discord_corpora(capsys):
    with criterion(9, "Bell demo exits 10 at (1-sqrt 2)/2; zero-discord "
                      "corpora over 10^3 op pairs are never witnessed", capsys):
        buf = StringIO()
        with redirect_stdout(buf):
            code = main(["discord-demo", "--state", "bell",
                         "--ops", "z,x", "--outcomes", "0,+"])
        assert code == 10
        obj = json.loads(buf.getvalue())
        assert abs(obj["report"]["min_eigenvalue"]
                   - (1.0 - np.sqrt(2.0)) / 2.0) <= 1e-10
        records, summary = scan_discord(1000, 17)
        assert summary["counterexamples"] == 0
        for r in records:
            assert r["cq_verdict"] != "NONPOSITIVE_WITNESSED"
            assert r["product_verdict"] != "NONPOSITIVE_WITNESSED"
            assert not r["cq_noncommuting"]


QWITNESS = [sys.executable, "-m", "qwitness"]


def battery(tmp_path):
    state1 = tmp_path / "s1.json"
    state2 = tmp_path / "s2.json"
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    state1.write_text(
        dumps(state_to_json(make_density(np.diag([0.7, 0.3])))) + "\n",
        encoding="utf-8")
    state2.write_text(
        dumps(state_to_json(make_density(h @ np.diag([0.7, 0.3]) @ h))) + "\n",
        encoding="utf-8")
    probe = tmp_path / "probe.json"
    probe.write_text('{"amplitudes": [[1, 0], [0, 0]]}', encoding="utf-8")
    return [
        [*QWITNESS, "witness", "--states", "0,0,1", "1,0,0"],
        [*QWITNESS, "nested", "--states", str(state1), str(state2),
         "--target", "0.05"],
        [*QWITNESS, "amplify", "--state", str(state1), "--target", "0.01"],
        [*QWITNESS, "circuit", "--states", "0,0,1", "1,0,0",
         "--probe", str(probe), "--shots", "10000", "--seed", "3"],
        [*QWITNESS, "discord-demo", "--state", "bell", "--ops", "z,x",
         "--outcomes", "0,+"],
        [*QWITNESS, "scan", "--kind", "pure-mixed", "--trials", "60",
         "--dims", "2,3,4", "--seed", "1"],
        [*QWITNESS, "scan", "--kind", "nested", "--trials", "30",
         "--dims", "2,3", "--seed", "2"],
        [*QWITNESS, "scan", "--kind", "bloch", "--grid", "20"],
        [*QWITNESS, "scan", "--kind", "null", "--trials", "40",
         "--dims", "2,3,4", "--seed", "4"],
        [*QWITNESS, "scan", "--kind", "discord", "--trials", "20",
         "--seed", "5"],
    ]


# each battery command's exit code and stdout digest, in battery order;
# any changed byte fails
BATTERY = [
    (10, "089e1126cb2d5ab283fe00d8456db0d0df699f895495426799aea530d2861144"),
    (10, "7f13bd93ad157873344cb74282bfea6228da90b6bf1384af6e6c714a93f371b5"),
    (0, "eab365b87501edeabda513485698a5e7b6e22cb1bb252f31e05ef1eae327ab6a"),
    (0, "f2275869156767e1b69f05e6a4e2ac02bc9a532a53ae3c3d6d8e3b7eedfc677a"),
    (10, "4a9927645fd5faccd67114bbf9b0f033ad1a0acab75dbc68d99767c2a186e3e1"),
    (0, "48179190d270d4ac4f1a4a2523f70fea015cd7cd842fcf8a908fda40a68700a3"),
    (0, "315df563bd8cc577702f3f17c1290f6e8cca1b36ef5b174c52cd6dd6fd0f6d7b"),
    (0, "5e74bc2aacfb65d5f554e31895648d4c1a318e96988a381a6a3b6473e7ce14c8"),
    (0, "bc8ee56fbe56ffc19d034fb745cdf71c47b07a3efe3897c619a28c2c4efe01dd"),
    (0, "b5b6032bc86b6de0be02c44e9460ec89851f794eb19c31990ed10342823fe183"),
]

# the battery under OpenBLAS's AVX2 kernels (Haswell, Zen), recorded
# under OPENBLAS_CORETYPE=Haswell: the pure-mixed, nested and null scans
# print other bytes
BATTERY_AVX2 = [
    *BATTERY[:5],
    (0, "afc257f7993a84f65bc4ecd596d8520da21b46f2180a93645f677a1625bef87e"),
    (0, "dd8914197b38e347885e808308b385263738a63f9f110a146284497a69232906"),
    BATTERY[7],
    (0, "ea069a950cb64e455ec327bc6a8f00e3d16b01447bdf46cde8de016f9397392c"),
    BATTERY[9],
]
BATTERY_SETS = {"avx512": BATTERY, "avx2": BATTERY_AVX2}


def run_battery(cmds, env) -> list[tuple[int, bytes]]:
    results = []
    for cmd in cmds:
        result = subprocess.run(cmd, capture_output=True, check=False, env=env)
        assert result.returncode in (0, 10), (cmd, result.stderr)
        results.append((result.returncode, result.stdout))
    return results


def test_criterion_10_byte_identical_reruns(tmp_path, capsys, subprocess_env,
                                            kernel_family):
    with criterion(10, "reruns with identical seeds emit byte-identical "
                       "JSONL; acceptance module stays inside the budget", capsys):
        cmds = battery(tmp_path)
        start = time.monotonic()
        first = run_battery(cmds, subprocess_env)
        second = run_battery(cmds, subprocess_env)
        elapsed = time.monotonic() - start
        assert first == second
        assert [(code, hashlib.sha256(out).hexdigest())
                for code, out in first] == BATTERY_SETS[kernel_family]
        for _, out in first:
            for line in out.decode("utf-8").splitlines():
                json.loads(line)
        assert elapsed < 60.0
        assert time.monotonic() - _MODULE_T0 < 120.0
