"""Tests for the randomized property scans."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_manifest import check

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


def _philox_state(bits):
    """A Philox generator's state as plain values, buffer and all."""
    state = bits.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


# trials 0..10**4 at seeds 0-2: the draws every scan's records rest on
_DRAW_SEEDS, _DRAW_TRIALS = (0, 1, 2), range(10**4 + 1)


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
def test_trial_stream_resets_give_the_state_of_a_fresh_philox(seed):
    # a reset to a state of Python ints leaves the generator as a fresh
    # Philox at counter (0, 0, t, 0) starts: its buffer emptied and its
    # spare 32-bit half (which integers() leaves) dropped
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    stream = scans._trial_streams(seed)
    for t in _DRAW_TRIALS:
        fresh = np.random.Philox(key=key, counter=[0, 0, t, 0])
        rng = stream(t)
        assert _philox_state(rng.bit_generator) == _philox_state(fresh), t
        assert rng.integers(1, 9) == np.random.Generator(fresh).integers(1, 9)
        assert rng.bit_generator.random_raw(3).tolist() == \
            fresh.random_raw(3).tolist()


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
def test_normal_drawer_rows_hold_the_bits_of_one_normal_call(seed):
    # a drawer fills its row with standard_normal(out=...), which draws
    # the numbers of normal(size=...), bit for bit
    stream, fresh = scans._trial_streams(seed), scans._trial_streams(seed)
    drawers = [scans._normal_drawer([(d,), (d, rank)])
               for d in range(1, 6) for rank in range(1, d + 1)]
    for t in _DRAW_TRIALS:
        (layout,), drawer = drawers[t % len(drawers)]
        row = np.empty(layout[0])
        assert drawer(t, row, stream(t)) == 0
        assert row.tobytes() == fresh(t).normal(size=row.size).tobytes(), t


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
def test_dirichlet_rows_from_exponentials_hold_the_bits_of_dirichlet(seed):
    # discord's three Dirichlet(1, 1) rows per trial, normalized from six
    # standard exponential numbers, are those of dirichlet(ones(2), 3)
    stream, fresh = scans._trial_streams(seed), scans._trial_streams(seed)
    exponentials = np.empty((len(_DRAW_TRIALS), 6))
    for t, row in zip(_DRAW_TRIALS, exponentials):
        stream(t).standard_exponential(out=row)
    expected = np.array([fresh(t).dirichlet(np.ones(2), size=3)
                         for t in _DRAW_TRIALS])
    weights = scans._dirichlet_rows(exponentials.reshape(-1, 3, 2))
    assert weights.shape == expected.shape
    assert weights.tobytes() == expected.tobytes()


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
    ``normal`` or ``standard_normal`` call draws the real and the
    imaginary block of the next few of them. ``flat`` counts the blocks
    of the 2-D arrays in order, the real and the imaginary part of each
    Ginibre matrix; flattening both parts of one matrix makes it
    (1+i)·I, whose state I/d has no gap and whose unitary is diagonal.
    ``certain`` counts the Dirichlet draws in order, a row of a sized
    ``dirichlet`` draw each, or a pair of ``standard_exponential``
    numbers, the gamma draws of one Dirichlet(1, 1) row: a certain pair
    comes back as (1, 0), whose weights are (1, 0) too. Every draw
    still takes its numbers from the stream; ``sizes`` records each
    normal call's size."""

    def __init__(self, rng, shapes, flat, certain=()):
        self._rng, self._shapes = rng, list(shapes)
        self._flat, self._certain = flat, certain
        self.drawn = self.dirichlets = 0
        self.sizes = []

    def normal(self, size=None):
        return self._flattened(self._rng.normal(size=size))

    def standard_normal(self, size=None, out=None):
        return self._flattened(self._rng.standard_normal(size=size, out=out))

    def _flattened(self, out):
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
        return self._made_certain(self._rng.dirichlet(alpha, size),
                                  len(alpha))

    def standard_exponential(self, size=None, out=None):
        return self._made_certain(
            self._rng.standard_exponential(size=size, out=out), 2)

    def _made_certain(self, out, width):
        for row in np.reshape(out, (-1, width)):
            if self.dirichlets in self._certain:
                row[:] = np.eye(width)[0]
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


def test_discord_scan_counts_a_trial_with_one_witnessed_pair(monkeypatch):
    # zero-discord states never give a witnessed verdict, so a witnessed
    # pick is forced: of trial 3, the product state's pair of conditionals
    # reads as witnessed and the classical-classical state's does not,
    # and that one pair makes the trial a counterexample
    real = discord._witness_conditionals

    def one_witnessed(first, second):
        analysis = real(first, second)
        analysis.witnessed = np.arange(len(analysis)) == 2 * 3 + 1
        return analysis

    monkeypatch.setattr(discord, "_witness_conditionals", one_witnessed)
    records, summary = scan_discord(8, 0)
    assert not any(record["cq_noncommuting"] for record in records)
    assert [record["counterexample"] for record in records] == \
        [k == 3 for k in range(8)]
    assert summary["counterexamples"] == 1


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


# ------------------------------------------------------------ CLI scans

def _scan_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["scan", *argv])
    return code, out.getvalue()


@pytest.mark.parametrize("kind", ["nested", "null", "pure-mixed"])
def test_scans_run_at_the_dimension_cap(kind):
    # Hilbert-Schmidt states at d = 256 always have some eigenvalue gap
    # below 1e-6; each trial keeps the state it draws
    code, out = _scan_stdout("--kind", kind, "--dims", "256",
                             "--trials", "2", "--seed", "0")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["counterexamples"] == 0


# the scan rows of manifest.txt, under the ids they had before the
# manifest held them: "seed-kind-extraN", N counting the cases group by
# group in the order the groups were added, each group sorted by text.
# test_manifest.test_row checks the same rows; these views only keep
# the recorded test ids of the two former golden tests
_SIZES = {"pure-mixed": "--trials 30", "nested": "--trials 20",
          "bloch": "--grid 7", "null": "--trials 40", "discord": "--trials 10"}
_WIDE = ("--dims", "1,2,5")
_GOLDEN_GROUPS = [
    [((), sorted(_SIZES)), (_WIDE, ["nested", "null", "pure-mixed"]),
     (("--format", "csv"), ["null"])],
    [((*_WIDE, "--format", "csv"), sorted(_SIZES))],
    [(("--dims", "7,9,17"), ["nested", "pure-mixed"]),
     (("--dims", "1"), ["nested"])],
]
_GOLDEN_CASES = [case for group in _GOLDEN_GROUPS for case in sorted(
    ((seed, kind, extra) for extra, kinds in group for kind in kinds
     for seed in (0, 1, 2)), key=str)]


@pytest.mark.parametrize("seed,kind,extra", _GOLDEN_CASES)
def test_scan_stdout_matches_golden_digest(seed, kind, extra, golden_inputs,
                                           kernel_family):
    command = " ".join(["scan", "--kind", kind, _SIZES[kind], *extra,
                        "--seed", str(seed)])
    check(command, golden_inputs, kernel_family)


@pytest.mark.parametrize("kind", sorted(_SIZES))
def test_scan_summary_csv_file_matches_golden_digest(kind, golden_inputs,
                                                     kernel_family):
    command = (f"scan --kind {kind} {_SIZES[kind]} {' '.join(_WIDE)} "
               f"--seed 0 --csv out.csv")
    check(command, golden_inputs, kernel_family)
