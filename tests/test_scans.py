"""Tests for the randomized property scans."""

import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness import discord, scans, states
from qwitness.cli import dumps, main
from qwitness.discord import (
    BipartiteState,
    classical_quantum_state,
    compare_conditionals,
    conditional_state,
    measurement_from_unitary,
    witness_conditionals,
)
from qwitness.errors import (CommutingInputsError, ConditionUnreachableError,
                             DegenerateSpectrumError, DimensionError,
                             TraceError)
from qwitness.linalg import anticommutator, commutator, frobenius_norms
from qwitness.scans import (
    SCAN_KINDS,
    _bloch_axis,
    run_scan,
    scan_bloch,
    scan_discord,
    scan_nested,
    scan_null,
    scan_pure_mixed,
)
from qwitness.states import (
    DensityOperator,
    bloch_to_state,
    pure_projector,
    random_density,
    random_pure,
    random_unitary,
)
from qwitness.tolerances import TOL_COMM, TOL_NULL, TOL_WITNESS, TRIALS_CAP
from qwitness.witness import (
    Verdict,
    leading_overlap,
    nested_witness,
    pure_mixed_test,
    qubit_bloch_condition,
    safe_nested_target,
)


# ------------------------------------------------- per-trial references

def serial_scan_bloch(grid, seed=0):
    """The bloch scan one pair at a time, both states built per pair."""
    axis = _bloch_axis(grid)

    def vec(r, theta):
        return np.array([r * math.sin(theta), 0.0, r * math.cos(theta)])

    def one(t):
        i, j = divmod(t, len(axis))
        r1, a1 = axis[i]
        r2, a2 = axis[j]
        b1, b2 = vec(r1, a1), vec(r2, a2)
        condition = qubit_bloch_condition(b1, b2)
        anti = anticommutator(bloch_to_state(b1).matrix,
                              bloch_to_state(b2).matrix)
        min_eig = float(np.linalg.eigvalsh(anti).min())
        return {"i": i, "j": j, "r1": r1, "theta1": a1, "r2": r2,
                "theta2": a2, "condition": condition,
                "min_eigenvalue": min_eig,
                "counterexample": condition and min_eig < -TOL_WITNESS,
                "converse_positive": (not condition)
                and min_eig >= -TOL_WITNESS}

    records = [one(t) for t in range(len(axis) ** 2)]
    return records, {
        "kind": "bloch", "trials": len(records), "grid": len(axis),
        "seed": seed,
        "counterexamples": sum(r["counterexample"] for r in records),
        "converse_positive": sum(r["converse_positive"] for r in records)}


def serial_scan_null(trials, dims, seed):
    """The null scan one trial at a time, every state validated alone."""
    dims = list(dims)
    stream = scans._trial_streams(seed)

    def one(t):
        d = dims[t % len(dims)]
        rng = stream(t)
        # the constructed branch draws its rank before its normals
        rank = int(rng.integers(1, d)) if t % 2 == 0 and d > 1 else None
        psi = random_pure(d, rng)
        if rank is not None:
            basis = np.linalg.qr(
                np.column_stack([psi, random_unitary(d, rng)[:, 1:]]))[0]
            comp = basis[:, 1:]
            inner = random_density(d - 1, rank, rng)
            rho2 = DensityOperator(comp @ inner.matrix @ comp.conj().T)
        else:
            rho2 = random_density(d, d, rng)
        proj = pure_projector(psi)
        anti_norm = frobenius_norms(anticommutator(proj, rho2.matrix)[None])[0]
        product_norm = frobenius_norms((proj @ rho2.matrix)[None])[0]
        null = anti_norm <= TOL_NULL
        return {"trial": t, "dim": d, "anticommutator_norm": anti_norm,
                "product_norm": product_norm, "null": null,
                "counterexample": null and product_norm > 10.0 * TOL_NULL}

    records = [one(t) for t in range(trials)]
    return records, {
        "kind": "null", "trials": trials, "dims": dims, "seed": seed,
        "null_pairs": sum(bool(r["null"]) for r in records),
        "counterexamples": sum(r["counterexample"] for r in records)}


def serial_scan_pure_mixed(trials, dims, seed):
    """The pure-mixed scan one trial at a time, through pure_mixed_test."""
    dims = list(dims)
    stream = scans._trial_streams(seed)

    def one(t):
        d = dims[t % len(dims)]
        rng = stream(t)
        psi = random_pure(d, rng)
        rho2 = random_density(d, d, rng)
        report = pure_mixed_test(psi, rho2)
        comm_norm = frobenius_norms(
            commutator(pure_projector(psi), rho2.matrix)[None])[0]
        closed = report.closed_form_criterion
        deviation = (0.0 if closed is None
                     else abs(closed - report.purity_criterion))
        witnessed = report.verdict == Verdict.NONPOSITIVE_WITNESSED
        noncommuting = comm_norm > TOL_COMM
        return {"trial": t, "dim": d, "commutator_norm": comm_norm,
                "min_eigenvalue": report.min_eigenvalue,
                "purity_criterion": report.purity_criterion,
                "purity_deviation": deviation,
                "verdict": report.verdict.value,
                "counterexample": witnessed != noncommuting}

    records = [one(t) for t in range(trials)]
    return records, {
        "kind": "pure-mixed", "trials": trials, "dims": dims, "seed": seed,
        "counterexamples": sum(r["counterexample"] for r in records),
        "max_purity_deviation": max(
            (r["purity_deviation"] for r in records), default=0.0)}


def serial_scan_nested(trials, dims, seed):
    """The nested scan one trial at a time, through nested_witness."""
    dims = list(dims)
    stream = scans._trial_streams(seed)

    def one(t):
        d = dims[t % len(dims)]
        rng = stream(t)
        sigma1 = random_density(d, d, rng)
        sigma2 = random_density(d, d, rng)
        base = {"trial": t, "dim": d}
        target = safe_nested_target(leading_overlap(sigma1, sigma2))
        try:
            result = nested_witness(sigma1, sigma2, target)
        except (DegenerateSpectrumError, CommutingInputsError,
                ConditionUnreachableError) as exc:
            return {**base, "skipped": True, "reason": type(exc).__name__,
                    "condition": False, "min_eigenvalue": None,
                    "verdict": None, "counterexample": False}
        witnessed = result.report.verdict == Verdict.NONPOSITIVE_WITNESSED
        return {**base, "skipped": False, "reason": None,
                "n1": result.plan1.n, "n2": result.plan2.n,
                "eps1": result.overlap.eps1, "eps2": result.overlap.eps2,
                "overlap": abs(result.overlap.f),
                "condition": result.condition_met,
                "min_eigenvalue": result.report.min_eigenvalue,
                "verdict": result.report.verdict.value,
                "counterexample": result.condition_met and not witnessed}

    records = [one(t) for t in range(trials)]
    return records, {
        "kind": "nested", "trials": trials, "dims": dims, "seed": seed,
        "skipped": sum(bool(r.get("skipped")) for r in records),
        "condition_met": sum(bool(r["condition"]) for r in records),
        "counterexamples": sum(r["counterexample"] for r in records)}


def _conditionals(rho_ab, meas):
    """(probability, state) of every outcome, in sorted outcome order."""
    return [conditional_state(rho_ab, meas[key]) for key in sorted(meas)]


def _most_likely(conds):
    """State of the most likely outcome; ties go to the first."""
    return max((c for c in conds if c[1] is not None), key=lambda c: c[0])[1]


def serial_scan_discord(trials, seed):
    """The discord scan one trial at a time, every state validated alone."""
    stream = scans._trial_streams(seed)

    def one(t):
        rng = stream(t)
        # the Dirichlet weights come before the normals
        probs, *spectra = (rng.dirichlet(np.ones(2)) for _ in range(3))
        common = random_unitary(2, rng)
        bob = [DensityOperator((common * diag) @ common.conj().T)
               for diag in spectra]
        cc = classical_quantum_state(probs, bob)
        product = BipartiteState(
            state=DensityOperator(
                np.kron(random_density(2, 2, rng).matrix,
                        random_density(2, 2, rng).matrix)),
            dims=(2, 2))
        meas = [measurement_from_unitary(random_unitary(2, rng))
                for _ in range(2)]
        cc_conds, product_conds = ([_conditionals(state, m) for m in meas]
                                   for state in (cc, product))
        noncommuting = compare_conditionals(cc_conds[0] + cc_conds[1])
        verdicts = {
            name: witness_conditionals(
                _most_likely(first), _most_likely(second)).verdict
            for name, (first, second) in (("cq", cc_conds),
                                          ("product", product_conds))}
        witnessed = any(v == Verdict.NONPOSITIVE_WITNESSED
                        for v in verdicts.values())
        return {"trial": t, "cq_noncommuting": noncommuting,
                "cq_verdict": verdicts["cq"].value,
                "product_verdict": verdicts["product"].value,
                "counterexample": noncommuting or witnessed}

    records = [one(t) for t in range(trials)]
    return records, {
        "kind": "discord", "trials": trials, "seed": seed,
        "counterexamples": sum(r["counterexample"] for r in records)}


# discord draws qubit pairs whatever the dimensions
_SERIAL = {"pure-mixed": serial_scan_pure_mixed, "nested": serial_scan_nested,
           "discord": lambda trials, dims, seed: serial_scan_discord(trials, seed)}
_BATCHED = {"pure-mixed": scan_pure_mixed, "nested": scan_nested,
            "discord": lambda trials, dims, seed: scan_discord(trials, seed)}


def printed(result):
    records, summary = result
    return [dumps(r) for r in records] + [dumps(summary)]


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


@pytest.mark.parametrize("seed", [0, 3, 2**64 + 7])
def test_trial_streams_are_philox_counter_blocks(seed):
    # trial t draws from the Philox generator keyed from the seed, with
    # its counter at (0, 0, t, 0), whatever the trials before it drew
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    stream = scans._trial_streams(seed)
    for t in (123_456, 0, 5, TRIALS_CAP - 1, 5):
        fresh = np.random.Generator(
            np.random.Philox(key=key, counter=[0, 0, t, 0]))
        rng = stream(t)
        assert rng.integers(1, 9) == fresh.integers(1, 9)
        size = 3 + t % 7
        assert np.array_equal(rng.normal(size=size), fresh.normal(size=size))


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


def test_scans_of_zero_size_return_no_records_and_zero_counts():
    # the summary of each kind, key order included, with every count 0;
    # bloch sizes its blocks without reading an axis state
    heads = {"pure-mixed": [("dims", [2, 3])], "nested": [("dims", [2, 3])],
             "bloch": [("grid", 0)], "null": [("dims", [2, 3])],
             "discord": []}
    counts = {"pure-mixed": [("counterexamples", 0),
                             ("max_purity_deviation", 0.0)],
              "nested": [("skipped", 0), ("condition_met", 0),
                         ("counterexamples", 0)],
              "bloch": [("counterexamples", 0), ("converse_positive", 0)],
              "null": [("null_pairs", 0), ("counterexamples", 0)],
              "discord": [("counterexamples", 0)]}
    for kind in SCAN_KINDS:
        records, summary = run_scan(kind, trials=0, dims=(2, 3), seed=4,
                                    grid=0)
        expected = [("kind", kind), ("trials", 0), *heads[kind], ("seed", 4),
                    *counts[kind]]
        assert records == []
        assert list(summary.items()) == expected, kind
        assert list(map(type, summary.values())) == [
            type(value) for _, value in expected], kind


# ------------------------------------- batched scans against references

@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       dims=st.lists(st.integers(min_value=1, max_value=6),
                     min_size=1, max_size=4),
       trials=st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_null_scan_prints_what_the_per_trial_loop_prints(seed, dims, trials):
    assert printed(scan_null(trials, dims, seed)) == \
        printed(serial_scan_null(trials, dims, seed))


@given(grid=st.integers(min_value=1, max_value=15),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_bloch_scan_prints_what_the_per_pair_loop_prints(grid, seed):
    assert printed(scan_bloch(grid, seed=seed)) == \
        printed(serial_scan_bloch(grid, seed=seed))


def test_null_scan_blocks_cover_large_dimensions(monkeypatch):
    # a small budget splits the trials into many blocks, each holding
    # several dimension groups; a large d is alone in its block
    monkeypatch.setattr(scans, "_CHUNK_BYTES", 4096)
    for dims in ((2, 3, 4), (1, 9, 17), (40,)):
        assert printed(scan_null(24, dims, 11)) == \
            printed(serial_scan_null(24, dims, 11))


@pytest.mark.parametrize("kind", sorted(_SERIAL))
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       dims=st.lists(st.integers(min_value=1, max_value=9),
                     min_size=1, max_size=4),
       trials=st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_mixed_scans_print_what_the_per_trial_loop_prints(kind, seed, dims,
                                                         trials):
    assert printed(_BATCHED[kind](trials, dims, seed)) == \
        printed(_SERIAL[kind](trials, dims, seed))


@pytest.mark.parametrize("kind", sorted(_SERIAL))
def test_mixed_scan_blocks_cover_large_dimensions(monkeypatch, kind):
    # about seven small trials to a block, of several dimensions; a
    # trial at d = 17 shares its block with one other, one at d = 40
    # is alone
    monkeypatch.setattr(scans, "_CHUNK_BYTES", 16384)
    for dims in ((2, 3, 4), (1, 9, 17), (40,)):
        assert printed(_BATCHED[kind](24, dims, 11)) == \
            printed(_SERIAL[kind](24, dims, 11))


class _FlatDraws:
    """A trial's stream whose chosen 2-D normal blocks come back as the
    identity, and whose chosen Dirichlet draws as (1, 0, ...).
    ``shapes`` lists the complex arrays the trial draws, in order; each
    ``normal`` call draws the real and the imaginary block of the next
    few of them. ``flat`` counts the blocks of the 2-D arrays in order,
    the real and the imaginary part of each Ginibre matrix; flattening
    both parts of one matrix makes it (1+i)·I, whose state I/d has no
    gap and whose unitary is diagonal. ``certain`` counts the Dirichlet
    draws in order, a row of a sized draw each. Every draw still takes
    its numbers from the stream; ``sizes`` records each ``normal``
    call's size."""

    def __init__(self, rng, shapes, flat, certain=()):
        self._rng, self._shapes = rng, list(shapes)
        self._flat, self._certain = flat, certain
        self.drawn = self.dirichlets = 0
        self.sizes = []

    def normal(self, size=None):
        out = self._rng.normal(size=size)
        self.sizes.append(out.size)
        end = 0
        while end < out.size:
            shape = self._shapes.pop(0)
            block = math.prod(shape)
            for _ in range(2):
                if len(shape) == 2:
                    if self.drawn in self._flat:
                        out[end:end + block] = np.eye(*shape).ravel()
                    self.drawn += 1
                end += block
        return out

    def dirichlet(self, alpha, size=None):
        out = self._rng.dirichlet(alpha, size)
        for row in np.reshape(out, (-1, len(alpha))):
            if self.dirichlets in self._certain:
                row[:] = np.eye(len(alpha))[0]
            self.dirichlets += 1
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _flatten_draws(monkeypatch, trial, shapes, flat, certain=()):
    """Route trial ``trial``'s streams through _FlatDraws; returns the
    list of streams that trial opens."""
    opened = []
    real = scans._trial_streams

    def streams(seed):
        stream = real(seed)

        def flattened(t):
            rng = stream(t)
            if t != trial:
                return rng
            opened.append(_FlatDraws(rng, shapes, flat, certain))
            return opened[-1]

        return flattened

    monkeypatch.setattr(scans, "_trial_streams", streams)
    return opened


# (kind, flattened draws) with one flat state at trial 4 (d = 3): draws
# 0 and 1 make the first state (nested: sigma1), 2 and 3 nested's sigma2
_FLAT = [("nested", (0, 1)), ("nested", (2, 3)), ("pure-mixed", (0, 1))]
# the complex arrays a trial at d = 3 draws, in order
_SHAPES = {"pure-mixed": [(3,), (3, 3)], "nested": [(3, 3)] * 2,
           "discord": [(2, 2)] * 5}


@pytest.mark.parametrize("kind,flat", _FLAT)
def test_mixed_scans_keep_a_state_with_no_gap(monkeypatch, kind, flat):
    opened = _flatten_draws(monkeypatch, 4, _SHAPES[kind], set(flat))
    records, _ = _BATCHED[kind](8, (2, 3, 4), 0)
    # the trial keeps the flat state I/3: one Ginibre matrix per state,
    # two normal blocks each, all from one normal call
    kept = {"pure-mixed": 1, "nested": 2}[kind]
    assert [stream.drawn for stream in opened] == [2 * kept]
    assert [stream.sizes for stream in opened] == [
        [2 * sum(map(math.prod, _SHAPES[kind]))]]
    record = records[4]
    if kind == "pure-mixed":
        # {P, I/3} = 2P/3 is positive, and I/3 commutes with P
        assert record["verdict"] == "POSITIVE"
        assert record["commutator_norm"] == 0.0
        assert not record["counterexample"]
    else:
        assert record["skipped"]
        assert record["reason"] == "DegenerateSpectrumError"
    assert printed(_BATCHED[kind](8, (2, 3, 4), 0)) == \
        printed(_SERIAL[kind](8, (2, 3, 4), 0))
    assert [stream.drawn for stream in opened] == [2 * kept] * 3


def _spy(monkeypatch, module, name, seen):
    """Wrap module.name so that each call appends its arguments to
    ``seen``."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_discord_scan_drops_a_null_outcome(monkeypatch):
    # trial 4's pointer weights come back (1, 0), and the Ginibre
    # matrix of its first measurement basis flat (draws 6 and 7 after
    # the common basis and the two product factors), so that basis is
    # z: its outcome "1" has probability 0 on the classical-classical
    # state |0><0| (x) rho_0
    opened = _flatten_draws(monkeypatch, 4, _SHAPES["discord"], {6, 7},
                            certain={0})
    compared, witnessed = [], []
    _spy(monkeypatch, discord, "_noncommuting", compared)
    _spy(monkeypatch, discord, "_witness_conditionals", witnessed)
    batched = scan_discord(8, 0)
    assert [(s.drawn, s.dirichlets, s.sizes) for s in opened] == \
        [(10, 3, [40])]
    (cc_states, kept), = compared
    (first, second), = witnessed
    compared.clear()
    witnessed.clear()
    serial = serial_scan_discord(8, 0)
    assert printed(batched) == printed(serial)
    # the per-trial loop compares 3 states at trial 4 and 4 elsewhere;
    # the stacked comparison masks the null state out
    assert [len(states[0]) for states, _ in compared] == [4] * 4 + [3] + [4] * 3
    assert kept[4].tolist() == [True, False, True, True]
    assert np.delete(kept, 4, axis=0).all()
    assert np.isfinite(cc_states).all()
    # the first measurement's most likely state is that of outcome "0",
    # as the per-trial loop picks it; the same for every other pair
    alone = [pair[0].matrix[0] for pair in witnessed]
    assert len(alone) == 16
    for k in range(16):
        assert np.array_equal(first.matrix[k], alone[k])
    assert not batched[0][4]["cq_noncommuting"]


def _skew_large_draws(monkeypatch):
    """Push the trace of each state whose Ginibre matrix starts with a
    large entry off 1 by an amount unique to it, so that its TraceError
    message names the trial. Serial and batched draws see the same
    matrices."""
    real = states._density_from_ginibre

    def skewed(g):
        lead = np.abs(g[..., 0, 0].real)
        scale = np.where(lead > 1.5, 1.0 + 1e-6 * lead, 1.0)
        return real(g) * scale[..., None, None]

    monkeypatch.setattr(states, "_density_from_ginibre", skewed)
    monkeypatch.setattr(scans, "_density_from_ginibre", skewed)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 4), (4, 1), (2, 0)])
def test_null_scan_raises_the_error_the_serial_scan_meets_first(
        monkeypatch, dims):
    _skew_large_draws(monkeypatch)
    with pytest.raises((TraceError, DimensionError)) as serial:
        serial_scan_null(60, dims, 5)
    with pytest.raises(type(serial.value)) as batched:
        scan_null(60, dims, 5)
    assert str(batched.value) == str(serial.value)


@pytest.mark.parametrize("kind", sorted(_SERIAL))
# (2, 3, 4, 2, 0): a trial fails before trial 4 draws at d = 0
@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 4), (4, 1), (2, 3, 4, 2, 0)])
def test_mixed_scans_raise_the_error_the_serial_scan_meets_first(
        monkeypatch, kind, dims):
    _skew_large_draws(monkeypatch)
    with pytest.raises((TraceError, DimensionError)) as serial:
        _SERIAL[kind](60, dims, 5)
    with pytest.raises(type(serial.value)) as batched:
        _BATCHED[kind](60, dims, 5)
    assert str(batched.value) == str(serial.value)


@pytest.mark.parametrize("name", ["_density_from_ginibre",
                                  "_unitary_from_ginibre"])
def test_discord_scan_checks_each_state_it_builds(monkeypatch, name):
    # every product factor (or every unitary, and so Bob's states) is
    # off by a factor unique to its draw: the first state the per-trial
    # loop checks fails, and a product or a mixture of failing states
    # would fail with another trace
    real = getattr(states, name)

    def skewed(g):
        return real(g) * (1.0 + 1e-6 * np.abs(g[..., 0, 0].real))[..., None, None]

    for module in (states, scans):
        monkeypatch.setattr(module, name, skewed)
    with pytest.raises(TraceError) as serial:
        serial_scan_discord(5, 0)
    with pytest.raises(TraceError) as batched:
        scan_discord(5, 0)
    assert str(batched.value) == str(serial.value)


# ------------------------------------------------------ golden stdout

def _scan_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["scan", *argv])
    return code, out.getvalue()


def _scan_digest(*argv):
    code, out = _scan_stdout(*argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("kind", ["nested", "null", "pure-mixed"])
def test_scans_run_at_the_dimension_cap(kind):
    # Hilbert-Schmidt states at d = 256 always have some eigenvalue gap
    # below 1e-6; each trial keeps the state it draws
    code, out = _scan_stdout("--kind", kind, "--dims", "256",
                             "--trials", "2", "--seed", "0")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["counterexamples"] == 0


_SIZES = {"pure-mixed": ("--trials", "30"), "nested": ("--trials", "20"),
          "bloch": ("--grid", "7"), "null": ("--trials", "40"),
          "discord": ("--trials", "10")}
_WIDE = ("--dims", "1,2,5")  # d = 1 branches and a dimension above 4
_WIDE_CSV = (*_WIDE, "--format", "csv")  # nested leaves empty cells
_DEEP = ("--dims", "7,9,17")  # sums of 8 or more terms, and d > 16
_ONE = ("--dims", "1")  # every nested trial skips: its later stacks are empty
# sha256 of stdout; every scan kind must keep these bytes. The jsonl
# and null csv digests were recorded before the bloch and null scans
# were batched, the _WIDE_CSV ones while CSV cells had their own
# scalar encoding, the _DEEP and _ONE ones before the pure-mixed and
# nested scans were batched
_GOLDEN = {
    (0, "pure-mixed", ()):
        "624895a2ed151302f4028cc3826af3a848863d967e8b57d3c8651eb5e33bd31d",
    (0, "nested", ()):
        "4b38b5f1f7eb958852945414c4e653c1297a7cee30d8dd38020726a9087aa6ed",
    (0, "bloch", ()):
        "2697be1dbc68e56e32508d8a1596024e1f54251686641c4b3be11fe727d6e9ee",
    (0, "null", ()):
        "8b284477e7d4dad9c6f54166ed8f6d0aea33a8672f0ec6355b54db8a1139c2ee",
    (0, "discord", ()):
        "b79950b70b02d920445ca1432479235d232a4f9a2ce7f60d600acb013e953e96",
    (0, "pure-mixed", _WIDE):
        "1965373fb1a2556c8108aac2360fb655f0238486b75b6d733ce2fc944513ff19",
    (0, "nested", _WIDE):
        "553d83df0a577455b5a280beed6e8fb354400b54a3dd9d5b23c40a16783f3cb8",
    (0, "null", _WIDE):
        "7eb492fa5f7b8fedd16c8a6f35252d77d629f0f6eaf5867c3e294cc256a4ee7d",
    (0, "null", ("--format", "csv")):
        "67f34eb93c2457d23ea1dacb76f8f6f4f06d164d6cbd2f44224211a137ba5ad8",
    (1, "pure-mixed", ()):
        "2cc7a703762dbf16c92c9b49504d6412f3db6e81e5622b56dbdc20e966b98c22",
    (1, "nested", ()):
        "1465ba32c24689355112b114e629bd5ee4af2d5e400a847a78baa5c348687307",
    (1, "bloch", ()):
        "8216d3dafdc42688bdef2d1c86241ca3d79ed8d51629ae1c716005e0a822dad6",
    (1, "null", ()):
        "df7e8f4b21f6bd3a4fde26629174ed2d8c3d09a114a16fb9982b417d56f1b21a",
    (1, "discord", ()):
        "3d8a6e52678cf06665829ca344ca8cd954b45f441fee740233a293a30479da33",
    (1, "pure-mixed", _WIDE):
        "8ca3cb857176880c27dc68feb30870e04f816ced01418ba414656caf6d2c87e0",
    (1, "nested", _WIDE):
        "61fba938065c3f4eb1f30fbf84ecc5e86019cab81d9d6977aa83967f75c4aae9",
    (1, "null", _WIDE):
        "64f127bdb4be329ca98e4452ffa7518ab13f209d497f5320b570986478cdb060",
    (1, "null", ("--format", "csv")):
        "fc81af5641a6497e0892fd3c62ec255bd52779009b7359c968c4022b68bc5fe4",
    (2, "pure-mixed", ()):
        "9f9ba87ae3f96c035d6e7adb1e6f1abf8b83d075b08d44c7a0e60f998eaaaa3a",
    (2, "nested", ()):
        "c55eab25d78a9f84db0d3cca5721ffc8721c8ba1e40389946615ee813c47d22f",
    (2, "bloch", ()):
        "204d18cbc87c5d87ccd3ae965e95fc3ae6cf6b4b6585a07b87ad5fe5a8dc92be",
    (2, "null", ()):
        "e403e96c3a43356f6eb2bf69cbcf750fd7e1b61cd7251461ded9eb1631a721b4",
    (2, "discord", ()):
        "fe0f93f3c7dc641a20b678ade03317490872d85208b38072a8ff5c35a32fec8f",
    (2, "pure-mixed", _WIDE):
        "f986202579ea329faf5409a0454b4805223c76460e4df78f0d575c76b31c3ff2",
    (2, "nested", _WIDE):
        "c76f06cc4bd15f1127dcdf4c58d9803a55db05841e9a86806e24957ae2dbed8d",
    (2, "null", _WIDE):
        "c87215b0be1fe1f6d23affad15d06d01498482f30547c413cb9cf0ddba81fb4b",
    (2, "null", ("--format", "csv")):
        "a7232db4bd8ba44b3dab3f52db7411a95e11fa37e99a3f38cf1d3db4b2508f81",
    (0, "bloch", _WIDE_CSV):
        "28e64df2902b1a6993a304925a7d2f19b8d541144b21f525f888568aad15891d",
    (0, "discord", _WIDE_CSV):
        "c80f9519b7a6a7eea4679795967bef62e73eb435ac7c67dab9ec275430d43437",
    (0, "nested", _WIDE_CSV):
        "c58414e014d9a600df338b0c3aad0f017b0047df5735dbcda191a850f92127f8",
    (0, "null", _WIDE_CSV):
        "1dadba00dcb9c0da03505b305d7475e447c4eda718195b8a3c2cce2b91b69061",
    (0, "pure-mixed", _WIDE_CSV):
        "1ff205ccd2c377431037253f4ec82469cca7ac6b9766571356d6443c4300a893",
    (1, "bloch", _WIDE_CSV):
        "b89b190324ae17262b95adb53b9bbeaf90f709cdc084919b9fdbe1c7583ad155",
    (1, "discord", _WIDE_CSV):
        "32697c0ed87512a68e062d36d97bc1b5ca15b7b9e51c15fed904fce40855d1fd",
    (1, "nested", _WIDE_CSV):
        "ad1bc18a5e85d4a21f25da7c5bc2a592731c3b422c34ff208c946200238dd225",
    (1, "null", _WIDE_CSV):
        "3f11f62883aa9bb0d0483b3216392e72f785c1a4f90dedc0095d3e0e1e40850f",
    (1, "pure-mixed", _WIDE_CSV):
        "9f50c754814183175df439cd90fa9f353358b33542e0fde58bab6efc8e8a0e3a",
    (2, "bloch", _WIDE_CSV):
        "09240fc72512c9be0f9dc52132a9e46a396dd8c7de4893a3273b8a5d1addeb8f",
    (2, "discord", _WIDE_CSV):
        "30a020cf8068bdf5cac8bc626e491053874b69e05ca553175ead3000c63fb3ba",
    (2, "nested", _WIDE_CSV):
        "a51969237f2a7f4389be9dc2eb447a701a4a39707697d801f15bcd5c3139dfbb",
    (2, "null", _WIDE_CSV):
        "cf58b5b67d94a7799ecd95c0f6aeefba3d6459bd01aa2a975594621592435e5d",
    (2, "pure-mixed", _WIDE_CSV):
        "5ae695254f8238cbb63bc41c463709debe5dee88dfb0b29230ec8da2be279336",
    (0, "pure-mixed", _DEEP):
        "6ef9b94f7a51d6940b3bcde8ecf27f0968336ecd8696ca4de0b6474c33d9f50a",
    (0, "nested", _DEEP):
        "be7eec8ecbb3add75b6f3cd3cbf3e5af1d97446cd364157c77e33f974dd4e6d3",
    (1, "pure-mixed", _DEEP):
        "9666aa7bb751a2559ae7b924d67da1f11d0c597001f74980b3f463aac52fbaec",
    (1, "nested", _DEEP):
        "44d11c22104dded90ee06616541b45315404691b0003c31735913f84e42baf50",
    (2, "pure-mixed", _DEEP):
        "c2a48f27196ed1b354336400dbb74ef700ff6203957304f2fc9f75f7b79b468e",
    (2, "nested", _DEEP):
        "2dfcf7eb39c71eac83a5c5e22287140bcf6c7d16254f5c76c69c5f98b834e82f",
    (0, "nested", _ONE):
        "e1ccccd659477c31fde2f019527e03a224607edc40b3f9a9f32f0802ee648c4b",
    (1, "nested", _ONE):
        "2003c56284277d3a257f07e534ee75163879fd8d964cddc11c77c9a4b9b5cd8d",
    (2, "nested", _ONE):
        "7ad48c44c42cba971b1ad4467a6568fd48b4a2fb34fa3d06868b17a795051423",
}


# the digests that OpenBLAS's AVX2 kernels (Haswell, Zen) print apart
# from the AVX-512 ones above, recorded under OPENBLAS_CORETYPE=Haswell;
# the bloch and discord scans, and nested scans whose trials all skip,
# print the same bytes under both
_GOLDEN_AVX2 = {
    **_GOLDEN,
    (0, "pure-mixed", ()):
        "64061e6063ff7d8548613187204107102f8d313e85de2eaec92d698c9daecb91",
    (0, "nested", ()):
        "34b9c0cc76d4ae1b800dfc3a013566e8eb8780d01a531a9cc6a4e59f694f18e5",
    (0, "null", ()):
        "38991fc2b113a6c7ff96a9f6ec021ad0f2baea07d9d277ee8667734ee471eee1",
    (0, "pure-mixed", _WIDE):
        "82386c03ac79222423a30dbb91706f8b02c9e6e5761b4a9b27b232e7c8fe5296",
    (0, "nested", _WIDE):
        "59821176006525ca7abbd8b99cdb92832f4315af9d2f8dd3e24b87ca052992ab",
    (0, "null", _WIDE):
        "2d74de3b07431f37460ca2e258a251294b6c52c7ebeb428335e2039dfe6d2477",
    (0, "null", ("--format", "csv")):
        "a870d2e897909cd90803506b59932aeeed8cdd1730e027af645ec08fe9f14eaa",
    (1, "pure-mixed", ()):
        "f25fff72f84f9dc295244884dbf5b256cadbc98746d612a095c4709ca8e354d6",
    (1, "nested", ()):
        "b477cc50ee1a1c389fd96be9f7240aaf0324bafc5d4c1007f45463b39808b826",
    (1, "null", ()):
        "2d165d5a66ef781ee5a0857c0ce6bdda64e726c3e9e23ffe631d00d94b24fd4b",
    (1, "pure-mixed", _WIDE):
        "1a4300a9072cc0a71cf5faaa111fdfeb1c7cbf778c2c50dfc40784a4ad2e895d",
    (1, "nested", _WIDE):
        "e89f35243bf87fa33af82cbd9d1968de64c754cc34325041d398b5df9ac37020",
    (1, "null", _WIDE):
        "4a6d8d03cee957ba20fd8699dc7f57b1ed3c2521ae7af78a4b321840abfa30c8",
    (1, "null", ("--format", "csv")):
        "625e9ace22a1791c2a31b6c9cd2a4c754294f5170ab84001e959e0f50d7f941b",
    (2, "pure-mixed", ()):
        "b860c2902c6243f4f86b2923ced6509628cd125430962e960a8ea8b03c2275e2",
    (2, "nested", ()):
        "4dff0c6cf006ea67b4107f5c9338a8ca271abad9605356b55994dbf29511aa4b",
    (2, "null", ()):
        "722d21dc995ef6a43b9e9724f5bdfde8e43b770241cb5aa6f27adff8a55f8d69",
    (2, "pure-mixed", _WIDE):
        "77f4b0e38ac9aec95ff04aa9c706182193664195bbd0083e40b68b49f5a10e2d",
    (2, "nested", _WIDE):
        "be21af1268bd70d1706a4498b45e8567b23776426b3862882301f8fb5631e45d",
    (2, "null", _WIDE):
        "ba1dc1002b853dcc13eb907ada08547c3723360d07a933cfcbed3871d0724b55",
    (2, "null", ("--format", "csv")):
        "13bd7988d2add6418bec7524c58887b6e76afdce0a7edad39b2b72deba4fd388",
    (0, "nested", _WIDE_CSV):
        "8c3456a54c7ddc099bc987df96d33905fa349896ae20e962f2fa8132cdc14d3d",
    (0, "null", _WIDE_CSV):
        "9208be038e8b6de4f339722e4bf92a79e1f8921c2c8637eb815b7ef69e98a3f6",
    (0, "pure-mixed", _WIDE_CSV):
        "33d58b1e054820979c1c0bc5f921668063f57acbce672d71a74a2690d044b22f",
    (1, "nested", _WIDE_CSV):
        "e49fba0445dddb114e0b7135c86933f08d9393dbf4b6101306939363fbc239db",
    (1, "null", _WIDE_CSV):
        "0350ce442312d41b4090e0970c9e47a1fcb6271472a4185fb0424144e0aba58c",
    (1, "pure-mixed", _WIDE_CSV):
        "b0aeaf69ed072e5e7e21b7b82272dc49bad745d22400dd4aae2752b2f623f068",
    (2, "nested", _WIDE_CSV):
        "aaf5105399231bc798ea3fa44dda70dd071835834fdee0b6fdbc50d037981fe5",
    (2, "null", _WIDE_CSV):
        "e38eabf0541c4bdba75b7bcb19ee3af01b437dddf813699f26ca637ca3b93ca5",
    (2, "pure-mixed", _WIDE_CSV):
        "69ad6bd7d20aef80471795db254ed849392d7dfaaede6f7e2f735aafcc7a735a",
    (0, "pure-mixed", _DEEP):
        "779a193748b0634de800d69de1379c9df4c732ba70cb42e8d2d768053aa44e6a",
    (0, "nested", _DEEP):
        "0ed6a9c2ca6a0f7235a0fcfe58303d25030e8c1b42d804dba061b8e9546d9f76",
    (1, "pure-mixed", _DEEP):
        "01c06757de8bfcccdb92170a611b128a122ba8886ea39a08edcb664f923ab906",
    (1, "nested", _DEEP):
        "9d3c22dc9009a8a679d616dad3be536271895a2af1c00d6ed4c0d3baf4985f03",
    (2, "pure-mixed", _DEEP):
        "6031f7add8081572e884e590fc84d7e341e3c473a8d033e493b8ce0ec322abc1",
    (2, "nested", _DEEP):
        "9eb7acd56066a10541904133ebcf757d55c0468aa9659fccd04f8943602fae01",
}
_GOLDEN_SETS = {"avx512": _GOLDEN, "avx2": _GOLDEN_AVX2}


# later additions sort after the cases before them, so that the older
# cases keep their ids
_ADDED = {_WIDE_CSV: 1, _DEEP: 2, _ONE: 2}


@pytest.mark.parametrize("seed,kind,extra", sorted(
    _GOLDEN, key=lambda case: (_ADDED.get(case[2], 0), str(case))))
def test_scan_stdout_matches_golden_digest(seed, kind, extra, kernel_family):
    code, digest = _scan_digest("--kind", kind, *_SIZES[kind], *extra,
                                "--seed", str(seed))
    assert code == 0
    assert digest == _GOLDEN_SETS[kernel_family][seed, kind, extra]


# sha256 of the --csv summary file at seed 0, recorded with _GOLDEN's
# CSV digests
_GOLDEN_SUMMARY_CSV = {
    "bloch": "4395e33daad6faf96112af3b86e628b3491f9a52055cb7c4decbe9669530037b",
    "discord": "33554b7db9b9341591728c1aaf2854335cb0f62f0358f66ab138123188a2550e",
    "nested": "741496afc8d2b15b781d9bd8b1dae0c9eb7491e12b3c19bd5f92d8bd8ad62192",
    "null": "4bb02d65794c8aff727ea55ff7e9851f2903d4593d9060f7ef898128b7b41792",
    "pure-mixed": "d9d98e1bfbf6b4700481505863f6053b5856a55b4f19c66c129c34aa16456d4b",
}

_GOLDEN_SUMMARY_CSV_SETS = {
    "avx512": _GOLDEN_SUMMARY_CSV,
    "avx2": {**_GOLDEN_SUMMARY_CSV, "pure-mixed":
             "2274bafbde2caaa4fa3b8ab6191d1efcb1b102a9be49e6e74139f1405774c96d"},
}


@pytest.mark.parametrize("kind", sorted(_GOLDEN_SUMMARY_CSV))
def test_scan_summary_csv_file_matches_golden_digest(kind, tmp_path,
                                                     kernel_family):
    path = tmp_path / "summary.csv"
    code, _ = _scan_digest("--kind", kind, *_SIZES[kind], *_WIDE,
                           "--seed", "0", "--csv", str(path))
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _GOLDEN_SUMMARY_CSV_SETS[kernel_family][kind]
