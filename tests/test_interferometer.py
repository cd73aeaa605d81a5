"""Tests for the controlled-shift interferometer simulation."""

import json
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from test_manifest import ROWS, check

from qwitness.cli import main
from qwitness.errors import CapacityError, DimensionError, UnresolvableError
from qwitness.interferometer import (
    _shift_trace,
    check_circuit_size,
    run_circuit_exact,
    sample_readout,
    shots_to_resolve,
)
from qwitness.states import (
    bloch_to_state,
    make_density,
    pure_projector,
    random_density,
    random_pure,
    seeded_rng,
)
from qwitness.tolerances import CIRCUIT_BYTES, SHOTS_CAP
from qwitness.witness import witness_anticommutator

P0 = make_density(np.diag([1.0, 0.0]))
PLUS = bloch_to_state([1.0, 0.0, 0.0])


def shift_operator(d: int, l: int) -> np.ndarray:
    """Dense cyclic shift on l registers of dimension d, built from its
    action on basis states: |i_1 i_2 ... i_l> -> |i_2 ... i_l i_1>."""
    shape = (d,) * l
    digits = np.unravel_index(np.arange(d**l), shape)
    image = np.ravel_multi_index(digits[1:] + digits[:1], shape)
    s = np.zeros((d**l, d**l), dtype=np.complex128)
    s[image, np.arange(d**l)] = 1.0
    return s


def dense_circuit_reference(copies, probe) -> float:
    """Control-qubit sigma_z after evolving the full density matrix
    through dense H, controlled-shift and H gates on 2 * d**l."""
    d = copies[0].dim
    l = len(copies) + 1
    regs = reduce(np.kron, [s.matrix for s in copies] + [pure_projector(probe)])
    eye = np.eye(regs.shape[0])
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    hadamard = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0), eye)
    controlled = np.kron(p0, eye) + np.kron(p1, shift_operator(d, l))
    state = np.kron(p0, regs)
    for u in (hadamard, controlled, hadamard):
        state = u @ state @ u.conj().T
    return float(np.trace(np.kron(np.diag([1.0, -1.0]), eye) @ state).real)


def test_shift_two_registers_is_swap():
    s = shift_operator(2, 2)
    swap = np.array([[1, 0, 0, 0],
                     [0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1]], dtype=complex)
    np.testing.assert_array_equal(s, swap)


def test_shift_cycles_product_vectors():
    rng = seeded_rng(3)
    d, l = 3, 3
    vs = [random_pure(d, rng) for _ in range(l)]
    s = shift_operator(d, l)
    lhs = s @ np.kron(np.kron(vs[0], vs[1]), vs[2])
    rhs = np.kron(np.kron(vs[1], vs[2]), vs[0])
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_shift_is_a_permutation():
    s = shift_operator(2, 3)
    np.testing.assert_allclose(s @ s.conj().T, np.eye(8), atol=1e-15)
    assert set(np.abs(s).sum(axis=0)) == {1.0}


def tensor_route_trace(mats) -> complex:
    """tr[S R] read off the built register product R: the entry R[x, y]
    for each column x of S and the row y = S(x) that holds its one."""
    d, l = mats[0].shape[0], len(mats)
    image = shift_operator(d, l).argmax(axis=0)
    return complex(reduce(np.kron, mats)[np.arange(d**l), image].sum())


# every register count with 2 * d**l within 512, the circuit dimension
# the dense evolution was once capped at; for d = 1, up to 10 registers
_CAPPED_SHAPES = [(d, l) for d in (1, 2, 3, 4) for l in range(1, 11)
                  if 2 * d**l <= 512]


@pytest.mark.parametrize("d,l", _CAPPED_SHAPES)
def test_shift_trace_equals_tensor_route_exactly(d, l):
    # the gather multiplies and sums the same entries in the same order
    # as the built product, so not one bit may move
    for t in range(4):
        rng = seeded_rng(60, d, l, t)
        mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                for _ in range(l)]
        assert _shift_trace(mats) == tensor_route_trace(mats)


def direct_product_trace(states) -> complex:
    direct = states[0].matrix
    for s in states[1:]:
        direct = direct @ s.matrix
    return complex(direct.trace())


def shift_trace(states) -> complex:
    return _shift_trace([s.matrix for s in states])


@pytest.mark.parametrize("l", [2, 3])
def test_trace_product_matches_direct(l):
    for t in range(10):
        rng = seeded_rng(61, l, t)
        states = [random_density(3, 3, rng) for _ in range(l)]
        assert shift_trace(states) == pytest.approx(
            direct_product_trace(states), abs=1e-12)


def test_trace_product_single_state_is_unit():
    rng = seeded_rng(62)
    assert shift_trace([random_density(4, 4, rng)]) == \
        pytest.approx(1.0, abs=1e-12)


def test_trace_product_validation():
    rng = seeded_rng(63)
    # registers of different dimensions are rejected before the trace
    with pytest.raises(DimensionError, match="share one dimension"):
        run_circuit_exact((P0, random_density(3, 3, rng)), np.array([1.0, 0]))


def test_circuit_single_register_gives_fidelity():
    rng = seeded_rng(64)
    rho = random_density(3, 3, rng)
    psi = random_pure(3, rng)
    assert run_circuit_exact((rho,), psi) == pytest.approx(
        float((psi.conj() @ rho.matrix @ psi).real), abs=1e-12)


def test_circuit_pair_gives_half_anticommutator_form():
    for t in range(10):
        rng = seeded_rng(65, t)
        rho1 = random_density(3, 3, rng)
        rho2 = random_density(3, 3, rng)
        psi = random_pure(3, rng)
        got = run_circuit_exact((rho1, rho2), psi)
        anti = rho1.matrix @ rho2.matrix + rho2.matrix @ rho1.matrix
        assert got == pytest.approx(
            float((psi.conj() @ anti @ psi).real) / 2.0, abs=1e-12)


def test_circuit_matches_dense_reference():
    worst = 0.0
    for d in (2, 3, 4):
        for copies in (1, 2, 3):
            if 2 * d ** (copies + 1) > 128:
                continue
            for t in range(5):
                rng = seeded_rng(66, d, copies, t)
                regs = [random_density(d, d, rng) for _ in range(copies)]
                psi = random_pure(d, rng)
                worst = max(worst, abs(run_circuit_exact(regs, psi)
                                       - dense_circuit_reference(regs, psi)))
    assert worst <= 1e-10


def test_circuit_witness_probe_reads_negative_visibility():
    report = witness_anticommutator(P0, PLUS)
    value = run_circuit_exact((P0, PLUS), report.witness_vector)
    assert value == pytest.approx(report.min_eigenvalue / 2.0, abs=1e-12)
    assert value == pytest.approx((1.0 - np.sqrt(2.0)) / 4.0, abs=1e-12)
    assert value < 0.0


def test_circuit_validation():
    with pytest.raises(DimensionError):
        run_circuit_exact((), np.array([1.0, 0]))
    with pytest.raises(DimensionError):
        run_circuit_exact((P0,), np.array([1.0, 0, 0]))
    with pytest.raises(ValueError):
        run_circuit_exact((P0,), np.array([1.0, 1.0]))
    # 20 qubit registers are over the budget, checked before the gather
    with pytest.raises(CapacityError, match="20 registers of dimension 2"):
        run_circuit_exact((P0,) * 19, np.array([1.0, 0]))
    # a huge register count is rejected without computing d**l
    with pytest.raises(CapacityError, match="exceeds the 256 MiB budget"):
        check_circuit_size(2, 10**9)
    # a 1-dimensional register never grows d**l; the bytes per register
    # bound the count on their own
    for registers in (10**9, 10**18):
        with pytest.raises(CapacityError):
            check_circuit_size(1, registers)
    for d, most in ((1, 5_592_404), (2, 19), (3, 12), (4, 10), (256, 2)):
        check_circuit_size(d, most)
        with pytest.raises(CapacityError):
            check_circuit_size(d, most + 1)


# the circuit rows of manifest.txt over the seeded d = 1..4 inputs,
# under the ids they had before the manifest held them: the line after
# "circuit --states ". test_manifest.test_row checks the same rows; this
# view only keeps the recorded test ids of the former golden test
_CIRCUIT_GOLDEN = sorted(command.removeprefix("circuit --states ")
                         for command in ROWS
                         if command.startswith("circuit --states d"))


@pytest.mark.parametrize("line", _CIRCUIT_GOLDEN)
def test_circuit_stdout_matches_golden_digest(line, golden_inputs,
                                              kernel_family):
    check(f"circuit --states {line}", golden_inputs, kernel_family)


@pytest.mark.parametrize("d,copies", [(2, 7), (4, 3)])
def test_circuit_at_the_cap_builds_no_register_tensor(d, copies):
    # at 2 * d**l = 512, the old dimension cap, the (d**l)^2 register
    # product alone would take 1 MiB; the gathered readout holds a few
    # arrays of d**l entries
    rng = seeded_rng(68, d)
    regs = [random_density(d, d, rng) for _ in range(copies)]
    psi = random_pure(d, rng)
    assert 2 * d ** (copies + 1) == 512
    run_circuit_exact(regs, psi)
    tracemalloc.start()
    try:
        run_circuit_exact(regs, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def closed_form_readout(copies, probe) -> float:
    """Re <psi| rho_1 ... rho_l |psi>, the product taken directly."""
    product = reduce(np.matmul, [s.matrix for s in copies])
    return float((probe.conj() @ product @ probe).real)


@pytest.mark.parametrize("d,copies", [(2, 11), (2, 15), (3, 7), (4, 5)])
def test_circuit_above_the_old_cap_matches_closed_form(d, copies):
    # 2 * d**(copies + 1) from 2 048 to 65 536, past the old cap of 512
    for t in range(3):
        rng = seeded_rng(70, d, copies, t)
        regs = [random_density(d, d, rng) for _ in range(copies)]
        psi = random_pure(d, rng)
        assert run_circuit_exact(regs, psi) == pytest.approx(
            closed_form_readout(regs, psi), rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("d,l", [(1, 1000), (2, 16), (3, 10), (4, 8)])
def test_circuit_peak_fits_the_size_model(d, l):
    # check_circuit_size counts d**l * (16 l + 32) + 32 l bytes for a
    # readout; the traced peak stays within that plus fixed overhead
    rng = seeded_rng(71, d, l)
    regs = [random_density(d, d, rng)] * (l - 1)
    psi = random_pure(d, rng)
    tracemalloc.start()
    try:
        run_circuit_exact(regs, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    counted = d**l * (16 * l + 32) + 32 * l
    assert counted <= CIRCUIT_BYTES
    assert peak <= counted + 64 * 1024


def test_sampled_run_is_deterministic():
    report = witness_anticommutator(P0, PLUS)
    exact = run_circuit_exact((P0, PLUS), report.witness_vector)
    first = sample_readout(exact, 4000, 11)
    second = sample_readout(exact, 4000, 11)
    assert first == second
    estimate, stderr = first
    assert stderr == pytest.approx(
        np.sqrt((1.0 - estimate**2) / 4000.0), abs=1e-15)
    assert abs(estimate - exact) <= 5.0 * stderr


def test_sampled_run_deterministic_outcome_has_zero_stderr():
    exact = run_circuit_exact((P0,), np.array([1.0, 0.0]))
    assert sample_readout(exact, 50, 0) == (1.0, 0.0)


def test_sample_readout_matches_sampled_run(capsys, tmp_path):
    probe = tmp_path / "probe.json"
    probe.write_text('{"amplitudes": [[1, 0], [0, 0]]}', encoding="utf-8")
    for copies, states, shots, seed in (((P0, PLUS), ("0,0,1", "1,0,0"),
                                         4000, 11),
                                        ((P0,), ("0,0,1",), 50, 0)):
        exact = run_circuit_exact(copies, np.array([1.0, 0.0]))
        code = main(["circuit", "--states", *states, "--probe", str(probe),
                     "--shots", str(shots), "--seed", str(seed)])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["exact"] == exact
        assert (obj["estimate"], obj["stderr"]) == sample_readout(
            exact, shots, seed)


def test_sampled_run_validation():
    exact = run_circuit_exact((P0,), np.array([1.0, 0.0]))
    for shots, seed in ((None, 1), (0, 1), (-3, 1), (2**63, 1), (10, None)):
        with pytest.raises(ValueError):
            sample_readout(exact, shots, seed)


def test_shots_to_resolve_frozen_value():
    target = (1.0 - np.sqrt(2.0)) / 4.0
    assert shots_to_resolve(target, 5.0) == 2307


@pytest.mark.parametrize("target,sigmas", [(0.1, 3.0), (-0.25, 5.0),
                                           (0.02, 2.0)])
def test_shots_to_resolve_is_minimal(target, sigmas):
    n = shots_to_resolve(target, sigmas)
    bound = sigmas**2 * (1 - target**2) / target**2
    assert n - 1 <= bound < n


def test_shots_to_resolve_edges():
    assert shots_to_resolve(1.0, 5.0) == 1
    assert shots_to_resolve(-1.5, 5.0) == 1
    with pytest.raises(UnresolvableError):
        shots_to_resolve(0.0, 5.0)
    with pytest.raises(ValueError):
        shots_to_resolve(0.5, -1.0)
    # t*t underflows to 0 (1e-320, 1e-160), (1-t^2)/t^2 overflows
    # (1e-155) or the count exceeds SHOTS_CAP (1e-153)
    for target in (1e-320, -1e-320, 1e-160, 1e-155, 1e-153):
        with pytest.raises(UnresolvableError):
            shots_to_resolve(target, 5.0)


def test_shots_to_resolve_bounded_by_shots_cap():
    # 25 (1 - t^2) / t^2 crosses SHOTS_CAP at t0; a sampled run accepts
    # the count just above t0 and none just below it
    t0 = 5.0 / math.sqrt(SHOTS_CAP)
    n = shots_to_resolve(t0 * (1.0 + 1e-15), 5.0)
    assert SHOTS_CAP - 10**5 < n <= SHOTS_CAP
    with pytest.raises(UnresolvableError):
        shots_to_resolve(t0 * (1.0 - 1e-15), 5.0)
