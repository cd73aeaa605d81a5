"""Tests for the controlled-shift interferometer simulation."""

import numpy as np
import pytest

from qwitness.errors import CapacityError, DimensionError, UnresolvableError
from qwitness.interferometer import (
    ShiftExperiment,
    run_circuit_exact,
    run_circuit_sampled,
    sample_readout,
    shift_operator,
    shots_to_resolve,
    trace_product_via_shift,
)
from qwitness.states import (
    bloch_to_state,
    make_density,
    random_density,
    random_pure,
    seeded_rng,
)
from qwitness.witness import witness_anticommutator

P0 = make_density(np.diag([1.0, 0.0]))
PLUS = bloch_to_state([1.0, 0.0, 0.0])


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


def test_sampled_run_is_deterministic():
    report = witness_anticommutator(P0, PLUS)
    e = ShiftExperiment(copies=(P0, PLUS), probe=report.witness_vector,
                        shots=4000, seed=11)
    first = run_circuit_sampled(e)
    second = run_circuit_sampled(e)
    assert first == second
    estimate, stderr = first
    assert stderr == pytest.approx(
        np.sqrt((1.0 - estimate**2) / 4000.0), abs=1e-15)
    exact = run_circuit_exact(e)
    assert abs(estimate - exact) <= 5.0 * stderr


def test_sampled_run_deterministic_outcome_has_zero_stderr():
    e = ShiftExperiment(copies=(P0,), probe=np.array([1.0, 0.0]),
                        shots=50, seed=0)
    assert run_circuit_sampled(e) == (1.0, 0.0)


def test_sample_readout_matches_sampled_run():
    report = witness_anticommutator(P0, PLUS)
    for e in (ShiftExperiment(copies=(P0, PLUS), probe=report.witness_vector,
                              shots=4000, seed=11),
              ShiftExperiment(copies=(P0,), probe=np.array([1.0, 0.0]),
                              shots=50, seed=0)):
        assert sample_readout(run_circuit_exact(e), e.shots, e.seed) == (
            run_circuit_sampled(e))


def test_sampled_run_validation():
    e = ShiftExperiment(copies=(P0,), probe=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        run_circuit_sampled(e)
    with pytest.raises(ValueError):
        run_circuit_sampled(ShiftExperiment(
            copies=(P0,), probe=np.array([1.0, 0.0]), shots=0, seed=1))
    with pytest.raises(ValueError):
        run_circuit_sampled(ShiftExperiment(
            copies=(P0,), probe=np.array([1.0, 0.0]), shots=10))
    for shots, seed in ((None, 1), (0, 1), (-3, 1), (10, None)):
        with pytest.raises(ValueError):
            sample_readout(0.5, shots, seed)


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
