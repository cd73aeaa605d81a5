"""Tests for the randomized property scans."""

import pytest

from qwitness.scans import (
    SCAN_KINDS,
    run_scan,
    scan_bloch,
    scan_discord,
    scan_nested,
    scan_null,
    scan_pure_mixed,
)


def test_pure_mixed_scan_small_corpus():
    records, summary = scan_pure_mixed(24, [2, 3, 4], 5)
    assert summary["counterexamples"] == 0
    assert summary["max_purity_deviation"] <= 1e-10
    assert len(records) == 24
    assert [r["dim"] for r in records[:3]] == [2, 3, 4]
    for r in records:
        assert r["verdict"] in ("POSITIVE", "NONPOSITIVE_WITNESSED",
                                "NULL_ANTICOMMUTATOR")
        assert not r["counterexample"]
    # generic pairs never commute, so every trial should be witnessed
    assert all(r["verdict"] == "NONPOSITIVE_WITNESSED" for r in records)


def test_nested_scan_small_corpus():
    records, summary = scan_nested(18, [2, 3], 7)
    assert summary["counterexamples"] == 0
    assert summary["skipped"] + len(records) - summary["skipped"] == 18
    ran = [r for r in records if not r["skipped"]]
    assert summary["condition_met"] == sum(r["condition"] for r in ran)
    for r in ran:
        assert r["n1"] >= 1 and r["n2"] >= 1
        assert 0.0 < r["overlap"] < 1.0
        if r["condition"]:
            assert r["verdict"] == "NONPOSITIVE_WITNESSED"


def test_scan_records_do_not_depend_on_trial_count():
    # each trial draws from its own substream, so a longer scan starts
    # with the records of a shorter one
    for kind in ("pure-mixed", "nested", "null", "discord"):
        short, _ = run_scan(kind, trials=5, dims=(2, 3), seed=3)
        long, _ = run_scan(kind, trials=12, dims=(2, 3), seed=3)
        assert long[:5] == short


def test_bloch_scan_grid():
    records, summary = scan_bloch(9)
    assert len(records) == 81
    assert summary["grid"] == 9
    assert summary["counterexamples"] == 0
    assert summary["converse_positive"] == sum(
        r["converse_positive"] for r in records)
    # the ball condition is sharp for qubits: condition false means the
    # operator really dips negative (boundary ties aside)
    for r in records:
        if not r["condition"]:
            assert r["min_eigenvalue"] < 1e-10
    corners = [r for r in records if r["i"] == r["j"]]
    for r in corners:
        assert (r["r1"], r["theta1"]) == (r["r2"], r["theta2"])
    # aligned pairs satisfy the condition and stay positive
    aligned = [r for r in records if r["theta1"] == r["theta2"]]
    assert aligned and all(r["condition"] for r in aligned)


def test_null_scan_constructed_pairs():
    records, summary = scan_null(20, [2, 3, 4], 1)
    assert summary["counterexamples"] == 0
    assert summary["null_pairs"] >= 10  # every even trial is null by design
    for r in records[::2]:
        assert r["null"]
        assert r["product_norm"] <= 1e-9


def test_discord_scan_zero_discord_inputs():
    records, summary = scan_discord(6, 2)
    assert summary["counterexamples"] == 0
    for r in records:
        assert not r["cq_noncommuting"]
        assert r["cq_verdict"] != "NONPOSITIVE_WITNESSED"
        assert r["product_verdict"] != "NONPOSITIVE_WITNESSED"


def test_run_scan_dispatch():
    assert set(SCAN_KINDS) == {"pure-mixed", "nested", "bloch", "null",
                               "discord"}
    records, summary = run_scan("bloch", grid=4, seed=0)
    assert summary["kind"] == "bloch"
    assert len(records) == 16
    with pytest.raises(ValueError, match="unknown scan kind"):
        run_scan("swap")
