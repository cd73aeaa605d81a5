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
    seeded_rng,
)
from qwitness.tolerances import TOL_COMM, TOL_NULL, TOL_WITNESS
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

    def one(t):
        d = dims[t % len(dims)]
        rng = seeded_rng(seed, t)
        psi = random_pure(d, rng)
        if t % 2 == 0 and d > 1:
            basis = np.linalg.qr(
                np.column_stack([psi, random_unitary(d, rng)[:, 1:]]))[0]
            comp = basis[:, 1:]
            inner = random_density(d - 1, int(rng.integers(1, d)), rng)
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

    def one(t):
        d = dims[t % len(dims)]
        rng = scans.seeded_rng(seed, t)
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

    def one(t):
        d = dims[t % len(dims)]
        rng = scans.seeded_rng(seed, t)
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

    def one(t):
        rng = scans.seeded_rng(seed, t)
        probs = rng.dirichlet(np.ones(2))
        common = random_unitary(2, rng)
        bob = []
        for _ in range(2):
            diag = rng.dirichlet(np.ones(2))
            bob.append(DensityOperator((common * diag) @ common.conj().T))
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
    """A trial's stream whose chosen 2-D normal draws come back as the
    identity, and whose chosen Dirichlet draws as (1, 0, ...). ``flat``
    counts the 2-D draws in order, the real and the imaginary part of
    each Ginibre matrix; flattening both parts of one matrix makes it
    (1+i)·I, whose state I/d has no gap and whose unitary is diagonal.
    ``certain`` counts the Dirichlet draws in order. Every draw still
    takes its numbers from the stream."""

    def __init__(self, rng, flat, certain=()):
        self._rng, self._flat, self._certain = rng, flat, certain
        self.drawn = self.dirichlets = 0

    def normal(self, size=None):
        out = self._rng.normal(size=size)
        if np.ndim(out) == 2:
            if self.drawn in self._flat:
                out = np.eye(*out.shape)
            self.drawn += 1
        return out

    def dirichlet(self, alpha):
        out = self._rng.dirichlet(alpha)
        if self.dirichlets in self._certain:
            out = np.eye(len(out))[0]
        self.dirichlets += 1
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _flatten_draws(monkeypatch, trial, flat, certain=()):
    """Route trial ``trial``'s streams through _FlatDraws; returns the
    list of streams that trial opens."""
    opened = []
    real = scans.seeded_rng

    def seeded(seed, *stream):
        rng = real(seed, *stream)
        if stream != (trial,):
            return rng
        opened.append(_FlatDraws(rng, flat, certain))
        return opened[-1]

    monkeypatch.setattr(scans, "seeded_rng", seeded)
    return opened


# (kind, flattened draws) with one flat state at trial 4 (d = 3): draws
# 0 and 1 make the first state (nested: sigma1), 2 and 3 nested's sigma2
_FLAT = [("nested", (0, 1)), ("nested", (2, 3)), ("pure-mixed", (0, 1))]


@pytest.mark.parametrize("kind,flat", _FLAT)
def test_mixed_scans_keep_a_state_with_no_gap(monkeypatch, kind, flat):
    opened = _flatten_draws(monkeypatch, 4, set(flat))
    records, _ = _BATCHED[kind](8, (2, 3, 4), 0)
    # the trial keeps the flat state I/3: one Ginibre matrix per state,
    # two normal draws each
    kept = {"pure-mixed": 1, "nested": 2}[kind]
    assert [stream.drawn for stream in opened] == [2 * kept]
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
    opened = _flatten_draws(monkeypatch, 4, {6, 7}, certain={0})
    compared, witnessed = [], []
    _spy(monkeypatch, discord, "_noncommuting", compared)
    _spy(monkeypatch, discord, "_witness_conditionals", witnessed)
    batched = scan_discord(8, 0)
    assert [(s.drawn, s.dirichlets) for s in opened] == [(10, 3)]
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
        "b3e29dc8a01fcbb4ddc549dec8586d6f1fe00988b98476dfbd4da1223c75bb26",
    (0, "nested", ()):
        "8ed6171d49231309bc0b5a5e4c101eaaa7bb5e7fdc8f6a7f5d8e538ad5bd8b03",
    (0, "bloch", ()):
        "2697be1dbc68e56e32508d8a1596024e1f54251686641c4b3be11fe727d6e9ee",
    (0, "null", ()):
        "5fa590d444ffa93caae13b5f5f5efca518bf98dfb1a069ed269ea20dc69fbfba",
    (0, "discord", ()):
        "b79950b70b02d920445ca1432479235d232a4f9a2ce7f60d600acb013e953e96",
    (0, "pure-mixed", _WIDE):
        "eb4962a5e0346aae5356d1861213ee94b9d2af3fed9cebde2dceeae3a9e5b99f",
    (0, "nested", _WIDE):
        "2f3d732b613ba5c91c8e44f7638e203f9cda32c398fe84a9fd582b0491c9d614",
    (0, "null", _WIDE):
        "64a082ccd0595052de87bec275227c4ef4b4e35146032b8847033253e507665d",
    (0, "null", ("--format", "csv")):
        "8c843593bea24447f892cb434276207495eb8e6bddcd23ccba6e11eab7cb6b8e",
    (1, "pure-mixed", ()):
        "a63ff683bccb09f4060b2678627606c0793a63efd87f60851e07b447c7958b0f",
    (1, "nested", ()):
        "c2eafac970315e8332231eb69b94e767c7f659388c4bb52bdedf6bc3feb2c1a3",
    (1, "bloch", ()):
        "8216d3dafdc42688bdef2d1c86241ca3d79ed8d51629ae1c716005e0a822dad6",
    (1, "null", ()):
        "8e2b375df9475b0fde19b6f13cd202ff6fc187b00746c48eea4061b31c4122a6",
    (1, "discord", ()):
        "3d8a6e52678cf06665829ca344ca8cd954b45f441fee740233a293a30479da33",
    (1, "pure-mixed", _WIDE):
        "60b34b45d3c5a052cd549dad2831dbe2fea349f7f8392fe895b896cfe42a2e3c",
    (1, "nested", _WIDE):
        "a802c84052ef974202f251b0181c69ba9cd24cccf8ef5a9c5dc1fdba2b277251",
    (1, "null", _WIDE):
        "b95e73ae381eae693656e3f0aa013e52831f29040b8e893771937c3b2d14d78a",
    (1, "null", ("--format", "csv")):
        "010052cd9ba413e9e0de4e99523d732616eee1d7413e5aee543a0847ab6a9309",
    (2, "pure-mixed", ()):
        "58c61e0d591a1dc6b4a533641c78ea0a56f1cf48d903685980ed83e8f476dd93",
    (2, "nested", ()):
        "a973080b0504fe1a6b385f542b40fa7592eb0897638430fcaf43cf41b4f8ba58",
    (2, "bloch", ()):
        "204d18cbc87c5d87ccd3ae965e95fc3ae6cf6b4b6585a07b87ad5fe5a8dc92be",
    (2, "null", ()):
        "7777476282969a444eade79cf53a297b3a9eca7b395dcbeede792225bccbf5bf",
    (2, "discord", ()):
        "fe0f93f3c7dc641a20b678ade03317490872d85208b38072a8ff5c35a32fec8f",
    (2, "pure-mixed", _WIDE):
        "2f5174f1c63c0b2d46ea41865a74a1e0bec973d0fbea0e7832cb4484b89230f7",
    (2, "nested", _WIDE):
        "165821d3d6eb1b42151a4b96109684be0c0aff0866a94349f8abf75c7c5f8c9f",
    (2, "null", _WIDE):
        "dd265188ef2fbe9326ad371f4c034aa5527cce8f816970baa49b374d1d730e90",
    (2, "null", ("--format", "csv")):
        "f5778d6dd8e2aefefe68fdef324f8c693e4d08184dffd07d5b143558c26aa07a",
    (0, "bloch", _WIDE_CSV):
        "28e64df2902b1a6993a304925a7d2f19b8d541144b21f525f888568aad15891d",
    (0, "discord", _WIDE_CSV):
        "c80f9519b7a6a7eea4679795967bef62e73eb435ac7c67dab9ec275430d43437",
    (0, "nested", _WIDE_CSV):
        "f49d4d6461d3b54a6cd92b81b53eb7581ee4a27175edeb4d7dde21215ab4bb6d",
    (0, "null", _WIDE_CSV):
        "7dbea3bf64e26dbd76fcef231c46b71b9ca04373f4928946ed6ff5f2eaeff17d",
    (0, "pure-mixed", _WIDE_CSV):
        "26cdfedbe9d0ed2d5f65d05a1d1b89246c99edddbbd1602b642a0e306c4e16d9",
    (1, "bloch", _WIDE_CSV):
        "b89b190324ae17262b95adb53b9bbeaf90f709cdc084919b9fdbe1c7583ad155",
    (1, "discord", _WIDE_CSV):
        "32697c0ed87512a68e062d36d97bc1b5ca15b7b9e51c15fed904fce40855d1fd",
    (1, "nested", _WIDE_CSV):
        "0c473094772b4bc85689b15d665ed41800e171cbc98f2bb496cc1e7145aec4f2",
    (1, "null", _WIDE_CSV):
        "47a21a0210e108c110946ff34a4ba5a4fc7ff18b68e09885f1856a30f4deba5b",
    (1, "pure-mixed", _WIDE_CSV):
        "0497b048e0366d0004856c8354781da2f71495b0c24293f2aabce0512ae7ffe8",
    (2, "bloch", _WIDE_CSV):
        "09240fc72512c9be0f9dc52132a9e46a396dd8c7de4893a3273b8a5d1addeb8f",
    (2, "discord", _WIDE_CSV):
        "30a020cf8068bdf5cac8bc626e491053874b69e05ca553175ead3000c63fb3ba",
    (2, "nested", _WIDE_CSV):
        "586851ed606968d65a1c0dc49cd981290e186e7a38e51ff0d6bb0a2ee359a89d",
    (2, "null", _WIDE_CSV):
        "3992b35c64d9b5614fe5bc5f979b1bbca0e6c7a8bb3e9fa058dd974fe798e3a9",
    (2, "pure-mixed", _WIDE_CSV):
        "424aa6549fe4999a597a9b5b2841066690ba6cb9d24ad0301b23d3a8c8ebd4dc",
    (0, "pure-mixed", _DEEP):
        "482b2eb14e426d229d3d930dab27f3cd8cb36960d94e6d452e541f58b02182e2",
    (0, "nested", _DEEP):
        "d7de40dd9bc32d669eeac11e49ef9e909760ac0db7384261bb86bd04e102d959",
    (1, "pure-mixed", _DEEP):
        "305e455b7e4d9c7060b1eb632915b5f09f7a837b358b88b7f2f59b459de7358d",
    (1, "nested", _DEEP):
        "03ac80176896f31fe47e20ee92174096d98cd241abb6fc5eb808bd6fcb06f194",
    (2, "pure-mixed", _DEEP):
        "073ae5b8fe9c90564992d0519f86bba81a53b7de7cefabc2356305ad5ac32878",
    (2, "nested", _DEEP):
        "aa8aed6915c5882e11c727003f3fe37763f4c75bbf0ea3bdbdd19e8b0a170b6c",
    (0, "nested", _ONE):
        "e1ccccd659477c31fde2f019527e03a224607edc40b3f9a9f32f0802ee648c4b",
    (1, "nested", _ONE):
        "2003c56284277d3a257f07e534ee75163879fd8d964cddc11c77c9a4b9b5cd8d",
    (2, "nested", _ONE):
        "7ad48c44c42cba971b1ad4467a6568fd48b4a2fb34fa3d06868b17a795051423",
}


# later additions sort after the cases before them, so that the older
# cases keep their ids
_ADDED = {_WIDE_CSV: 1, _DEEP: 2, _ONE: 2}


@pytest.mark.parametrize("seed,kind,extra", sorted(
    _GOLDEN, key=lambda case: (_ADDED.get(case[2], 0), str(case))))
def test_scan_stdout_matches_golden_digest(seed, kind, extra):
    code, digest = _scan_digest("--kind", kind, *_SIZES[kind], *extra,
                                "--seed", str(seed))
    assert code == 0
    assert digest == _GOLDEN[seed, kind, extra]


# sha256 of the --csv summary file at seed 0, recorded with _GOLDEN's
# CSV digests
_GOLDEN_SUMMARY_CSV = {
    "bloch": "4395e33daad6faf96112af3b86e628b3491f9a52055cb7c4decbe9669530037b",
    "discord": "33554b7db9b9341591728c1aaf2854335cb0f62f0358f66ab138123188a2550e",
    "nested": "741496afc8d2b15b781d9bd8b1dae0c9eb7491e12b3c19bd5f92d8bd8ad62192",
    "null": "4bb02d65794c8aff727ea55ff7e9851f2903d4593d9060f7ef898128b7b41792",
    "pure-mixed": "2274bafbde2caaa4fa3b8ab6191d1efcb1b102a9be49e6e74139f1405774c96d",
}


@pytest.mark.parametrize("kind", sorted(_GOLDEN_SUMMARY_CSV))
def test_scan_summary_csv_file_matches_golden_digest(kind, tmp_path):
    path = tmp_path / "summary.csv"
    code, _ = _scan_digest("--kind", kind, *_SIZES[kind], *_WIDE,
                           "--seed", "0", "--csv", str(path))
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _GOLDEN_SUMMARY_CSV[kind]
