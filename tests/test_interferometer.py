"""Tests for the controlled-shift interferometer simulation."""

import json

import numpy as np
import pytest

from qwitness.cli import main
from qwitness.errors import CapacityError, DimensionError, UnresolvableError
from qwitness.interferometer import (
    ShiftExperiment,
    check_circuit_dimension,
    run_circuit_exact,
    sample_readout,
    shift_operator,
    shots_to_resolve,
    trace_product_via_shift,
)
from qwitness.linalg import tensor_all
from qwitness.states import (
    bloch_to_state,
    make_density,
    pure_projector,
    random_density,
    random_pure,
    seeded_rng,
)
from qwitness.witness import witness_anticommutator

P0 = make_density(np.diag([1.0, 0.0]))
PLUS = bloch_to_state([1.0, 0.0, 0.0])


def dense_circuit_reference(e: ShiftExperiment) -> float:
    """Control-qubit sigma_z after evolving the full density matrix
    through dense H, controlled-shift and H gates on 2 * d**l."""
    d = e.copies[0].dim
    l = len(e.copies) + 1
    regs = tensor_all([s.matrix for s in e.copies] + [pure_projector(e.probe)])
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


def test_shift_validation():
    with pytest.raises(DimensionError):
        shift_operator(0, 2)
    with pytest.raises(DimensionError):
        shift_operator(2, 0)
    with pytest.raises(CapacityError):
        shift_operator(2, 10)


@pytest.mark.parametrize("l", [2, 3])
def test_trace_product_matches_direct(l):
    for t in range(10):
        rng = seeded_rng(61, l, t)
        states = [random_density(3, 3, rng) for _ in range(l)]
        value = trace_product_via_shift(states)
        direct = states[0].matrix
        for s in states[1:]:
            direct = direct @ s.matrix
        expected = complex(direct.trace())
        if l == 2:
            assert isinstance(value, float)
            assert value == pytest.approx(expected.real, abs=1e-12)
        else:
            assert isinstance(value, complex)
            assert value == pytest.approx(expected, abs=1e-12)


def test_trace_product_single_state_is_unit():
    rng = seeded_rng(62)
    assert trace_product_via_shift([random_density(4, 4, rng)]) == \
        pytest.approx(1.0, abs=1e-12)


def test_trace_product_validation():
    rng = seeded_rng(63)
    with pytest.raises(DimensionError):
        trace_product_via_shift([])
    with pytest.raises(DimensionError):
        trace_product_via_shift([random_density(2, 2, rng),
                                 random_density(3, 3, rng)])
    with pytest.raises(CapacityError):
        trace_product_via_shift([random_density(2, 2, rng)] * 3, cap=7)


def test_circuit_single_register_gives_fidelity():
    rng = seeded_rng(64)
    rho = random_density(3, 3, rng)
    psi = random_pure(3, rng)
    e = ShiftExperiment(copies=(rho,), probe=psi)
    assert run_circuit_exact(e) == pytest.approx(
        float((psi.conj() @ rho.matrix @ psi).real), abs=1e-12)


def test_circuit_pair_gives_half_anticommutator_form():
    for t in range(10):
        rng = seeded_rng(65, t)
        rho1 = random_density(3, 3, rng)
        rho2 = random_density(3, 3, rng)
        psi = random_pure(3, rng)
        got = run_circuit_exact(ShiftExperiment(copies=(rho1, rho2), probe=psi))
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
                e = ShiftExperiment(
                    copies=tuple(random_density(d, d, rng)
                                 for _ in range(copies)),
                    probe=random_pure(d, rng))
                worst = max(worst, abs(run_circuit_exact(e)
                                       - dense_circuit_reference(e)))
    assert worst <= 1e-10


def test_circuit_witness_probe_reads_negative_visibility():
    report = witness_anticommutator(P0, PLUS)
    e = ShiftExperiment(copies=(P0, PLUS), probe=report.witness_vector)
    value = run_circuit_exact(e)
    assert value == pytest.approx(report.min_eigenvalue / 2.0, abs=1e-12)
    assert value == pytest.approx((1.0 - np.sqrt(2.0)) / 4.0, abs=1e-12)
    assert value < 0.0


def test_circuit_validation():
    with pytest.raises(DimensionError):
        run_circuit_exact(ShiftExperiment(copies=(), probe=np.array([1.0, 0])))
    with pytest.raises(DimensionError):
        run_circuit_exact(ShiftExperiment(
            copies=(P0,), probe=np.array([1.0, 0, 0])))
    with pytest.raises(ValueError):
        run_circuit_exact(ShiftExperiment(
            copies=(P0,), probe=np.array([1.0, 1.0])))
    with pytest.raises(CapacityError):
        run_circuit_exact(ShiftExperiment(
            copies=(P0, P0), probe=np.array([1.0, 0])), cap=15)
    # a huge register count is rejected without building 2 * d**l
    with pytest.raises(CapacityError, match=r"2\*2\^1000000000 exceeds"):
        check_circuit_dimension(2, 10**9, 512)
    # a 1-dimensional register never grows 2 * d**l, so the register
    # count is bounded by itself, at cap's bit length
    with pytest.raises(CapacityError, match="10 that cap 512 allows"):
        check_circuit_dimension(1, 11, 512)
    with pytest.raises(CapacityError):
        check_circuit_dimension(1, 10**9, 2)
    check_circuit_dimension(1, 10, 512)
    check_circuit_dimension(2, 8, 512)
    with pytest.raises(CapacityError):
        check_circuit_dimension(2, 9, 512)


def test_sampled_run_is_deterministic():
    report = witness_anticommutator(P0, PLUS)
    exact = run_circuit_exact(
        ShiftExperiment(copies=(P0, PLUS), probe=report.witness_vector))
    first = sample_readout(exact, 4000, 11)
    second = sample_readout(exact, 4000, 11)
    assert first == second
    estimate, stderr = first
    assert stderr == pytest.approx(
        np.sqrt((1.0 - estimate**2) / 4000.0), abs=1e-15)
    assert abs(estimate - exact) <= 5.0 * stderr


def test_sampled_run_deterministic_outcome_has_zero_stderr():
    e = ShiftExperiment(copies=(P0,), probe=np.array([1.0, 0.0]))
    assert sample_readout(run_circuit_exact(e), 50, 0) == (1.0, 0.0)


def test_sample_readout_matches_sampled_run(capsys, tmp_path):
    probe = tmp_path / "probe.json"
    probe.write_text('{"amplitudes": [[1, 0], [0, 0]]}', encoding="utf-8")
    for copies, states, shots, seed in (((P0, PLUS), ("0,0,1", "1,0,0"),
                                         4000, 11),
                                        ((P0,), ("0,0,1",), 50, 0)):
        exact = run_circuit_exact(
            ShiftExperiment(copies=copies, probe=np.array([1.0, 0.0])))
        code = main(["circuit", "--states", *states, "--probe", str(probe),
                     "--shots", str(shots), "--seed", str(seed)])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["exact"] == exact
        assert (obj["estimate"], obj["stderr"]) == sample_readout(
            exact, shots, seed)


def test_sampled_run_validation():
    exact = run_circuit_exact(
        ShiftExperiment(copies=(P0,), probe=np.array([1.0, 0.0])))
    for shots, seed in ((None, 1), (0, 1), (-3, 1), (10, None)):
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
