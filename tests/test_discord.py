"""Tests for the conditional-state discord protocol."""

import contextlib
import io
import json

import numpy as np
import pytest

from qwitness.cli import main
from qwitness.discord import (
    BipartiteState,
    bell_state,
    classical_quantum_state,
    compare_conditionals,
    conditional_state,
    LocalOperation,
    measurement_from_unitary,
    projector_operation,
    select_outcome,
    witness_conditionals,
    x_measurement,
    z_measurement,
)
from qwitness.errors import (
    DegenerateSpectrumError,
    DimensionError,
    NullOutcomeError,
    PositivityError,
)
from qwitness.linalg import tensor
from qwitness.states import (
    DensityOperator,
    bloch_to_state,
    make_density,
    random_density,
    random_unitary,
    seeded_rng,
)
from qwitness.witness import Verdict, nested_witness, witness_anticommutator

PLUS = bloch_to_state([1.0, 0.0, 0.0])


def product_state(rho_a, rho_b):
    return BipartiteState(
        state=make_density(tensor(rho_a.matrix, rho_b.matrix)),
        dims=(rho_a.dim, rho_b.dim))


def commutation_scan(rho_ab, ops):
    """The conditional states of B for each operation, compared pairwise
    as ``scan_discord`` compares them."""
    return compare_conditionals([conditional_state(rho_ab, op) for op in ops])


def protocol_demo(rho_ab, measurement1, measurement2, outcome1, outcome2):
    """The calls ``discord-demo`` makes: condition B on one outcome of
    each measurement, then witness the two conditional states."""
    _, rho1 = select_outcome(rho_ab, measurement1, outcome1, "first")
    _, rho2 = select_outcome(rho_ab, measurement2, outcome2, "second")
    return witness_conditionals(rho1, rho2)


def test_bell_state_matrix():
    bell = bell_state()
    assert bell.dims == (2, 2)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    np.testing.assert_allclose(bell.state.matrix, m, atol=1e-15)


def test_bipartite_state_dims_must_factor():
    with pytest.raises(DimensionError):
        BipartiteState(state=make_density(np.eye(4) / 4), dims=(3, 2))


def test_conditional_state_collapses_bell():
    bell = bell_state()
    prob, state = conditional_state(bell, z_measurement()["0"])
    assert prob == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(state.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    prob, state = conditional_state(bell, x_measurement()["+"])
    assert prob == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(state.matrix, PLUS.matrix, atol=1e-12)


def test_conditional_state_zero_probability_is_none():
    pure00 = BipartiteState(
        state=make_density(np.diag([1.0, 0.0, 0.0, 0.0])), dims=(2, 2))
    prob, state = conditional_state(pure00, z_measurement()["1"])
    assert prob == 0.0
    assert state is None


def test_conditional_state_dimension_check():
    with pytest.raises(DimensionError):
        conditional_state(bell_state(),
                          projector_operation(np.array([1.0, 0, 0])))


def test_classical_quantum_state_blocks():
    bobs = [make_density(np.diag([0.7, 0.3])), PLUS]
    cq = classical_quantum_state([0.25, 0.75], bobs)
    assert cq.dims == (2, 2)
    for i, meas in enumerate(z_measurement().values()):
        prob, state = conditional_state(cq, meas)
        assert prob == pytest.approx([0.25, 0.75][i], abs=1e-12)
        np.testing.assert_allclose(state.matrix, bobs[i].matrix, atol=1e-12)


def test_classical_quantum_state_validation():
    bob = make_density(np.diag([0.7, 0.3]))
    with pytest.raises(DimensionError):
        classical_quantum_state([1.0], [bob, bob])
    with pytest.raises(DimensionError):
        classical_quantum_state([], [])
    with pytest.raises(PositivityError):
        classical_quantum_state([0.7, 0.7], [bob, bob])
    with pytest.raises(PositivityError):
        classical_quantum_state([1.2, -0.2], [bob, bob])


def test_local_operation_validation():
    with pytest.raises(DimensionError):
        LocalOperation(kraus_ops=())
    with pytest.raises(PositivityError):
        LocalOperation(kraus_ops=(np.sqrt(1.2) * np.eye(2),))
    with pytest.raises(DimensionError):
        LocalOperation(kraus_ops=(np.eye(2), np.eye(3)))
    op = LocalOperation(kraus_ops=(np.eye(3) / 2,), label="damp")
    assert op.dim == 3 and op.label == "damp"


def test_projector_operation_requires_unit_vector():
    with pytest.raises(ValueError):
        projector_operation(np.array([1.0, 1.0]))


def test_measurement_from_unitary_is_complete():
    rng = seeded_rng(71)
    u = random_unitary(3, rng)
    meas = measurement_from_unitary(u)
    assert sorted(meas) == ["0", "1", "2"]
    total = sum(k.conj().T @ k for op in meas.values() for k in op.kraus_ops)
    np.testing.assert_allclose(total, np.eye(3), atol=1e-12)
    with pytest.raises(DimensionError):
        measurement_from_unitary(u, labels=["a", "b"])


def test_named_qubit_measurements():
    assert sorted(z_measurement()) == ["0", "1"]
    assert sorted(x_measurement()) == ["+", "-"]
    plus = x_measurement()["+"].kraus_ops[0]
    np.testing.assert_allclose(plus, np.full((2, 2), 0.5), atol=1e-12)


def test_commutation_scan_flags_bell():
    ops = list(z_measurement().values()) + list(x_measurement().values())
    ensemble = commutation_scan(bell_state(), ops)
    assert ensemble.noncommuting_found
    assert len(ensemble.states) == 4
    norms = ensemble.pairwise_commutator_norms
    np.testing.assert_allclose(norms, norms.T, atol=0)
    assert norms.max() > 0.1


def test_commutation_scan_passes_commuting_ensemble():
    bobs = [make_density(np.diag([0.7, 0.3])), make_density(np.diag([0.2, 0.8]))]
    cq = classical_quantum_state([0.5, 0.5], bobs)
    ops = list(z_measurement().values()) + list(x_measurement().values())
    ensemble = commutation_scan(cq, ops)
    assert not ensemble.noncommuting_found
    assert ensemble.pairwise_commutator_norms.max() < 1e-12


def test_commutation_scan_drops_null_outcomes():
    pure00 = BipartiteState(
        state=make_density(np.diag([1.0, 0.0, 0.0, 0.0])), dims=(2, 2))
    ensemble = commutation_scan(pure00, list(z_measurement().values()))
    assert len(ensemble.states) == 1
    assert not ensemble.noncommuting_found


def test_protocol_demo_bell_is_witnessed():
    report = protocol_demo(bell_state(), z_measurement(), x_measurement(),
                           "0", "+")
    assert report.verdict is Verdict.NONPOSITIVE_WITNESSED
    assert report.min_eigenvalue == pytest.approx(
        (1.0 - np.sqrt(2.0)) / 2.0, abs=1e-10)


def test_protocol_demo_product_state_is_positive():
    rho = product_state(PLUS, make_density(np.diag([0.6, 0.4])))
    report = protocol_demo(rho, z_measurement(), x_measurement(), "0", "+")
    assert report.verdict is Verdict.POSITIVE
    assert report.min_eigenvalue > 0.0


def test_protocol_demo_commuting_conditionals_short_circuit():
    bobs = [make_density(np.diag([0.7, 0.3])), make_density(np.diag([0.2, 0.8]))]
    cq = classical_quantum_state([0.5, 0.5], bobs)
    report = protocol_demo(cq, z_measurement(), z_measurement(), "0", "1")
    assert report.verdict is Verdict.POSITIVE


def test_protocol_demo_boundary_overlap_falls_back_to_direct():
    """Identical leading eigenvectors with noncommuting tails still yield
    an honest spectral report instead of an unreachable-condition error."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    tail = np.zeros((3, 3), dtype=complex)
    tail[1:, 1:] = h @ np.diag([0.2, 0.1]) @ h
    bobs = [make_density(np.diag([0.8, 0.15, 0.05])),
            make_density(np.diag([0.7, 0.0, 0.0]) + tail)]
    cq = classical_quantum_state([0.5, 0.5], bobs)
    meas = measurement_from_unitary(np.eye(2), labels=["0", "1"])
    report = protocol_demo(cq, meas, meas, "0", "1")
    assert report.verdict in (Verdict.POSITIVE, Verdict.NONPOSITIVE_WITNESSED)


def test_protocol_demo_unknown_outcome():
    with pytest.raises(KeyError, match="unknown outcome"):
        protocol_demo(bell_state(), z_measurement(), x_measurement(), "0", "2")


def test_protocol_demo_null_outcome():
    pure00 = BipartiteState(
        state=make_density(np.diag([1.0, 0.0, 0.0, 0.0])), dims=(2, 2))
    with pytest.raises(NullOutcomeError):
        protocol_demo(pure00, z_measurement(), z_measurement(), "0", "1")


def kron_conditional_state(rho_ab, op):
    """Reference route: sum_k (K (x) I) rho (K (x) I)^dagger on the full
    space, then the partial trace over A."""
    da, db = rho_ab.dims
    m = rho_ab.state.matrix
    out = sum(np.kron(k, np.eye(db)) @ m @ np.kron(k, np.eye(db)).conj().T
              for k in op.kraus_ops)
    prob = float(out.trace().real)
    return prob, np.einsum("ijil->jl", out.reshape(da, db, da, db)) / prob


def random_kraus(da, count, rng):
    """``count`` Kraus operators with sum K^dagger K = s I, s in [0.5, 1]."""
    g = rng.normal(size=(count * da, da)) + 1j * rng.normal(size=(count * da, da))
    q = np.linalg.qr(g)[0] * np.sqrt(rng.uniform(0.5, 1.0))
    return LocalOperation(kraus_ops=tuple(q[i * da:(i + 1) * da]
                                          for i in range(count)))


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_conditional_state_matches_kron_reference(da, db):
    for t in range(10):
        rng = seeded_rng(83, da, db, t)
        rho_ab = BipartiteState(
            state=random_density(da * db, int(rng.integers(1, da * db + 1)), rng),
            dims=(da, db))
        op = random_kraus(da, 1 + t % 3, rng)
        prob, state = conditional_state(rho_ab, op)
        ref_prob, ref = kron_conditional_state(rho_ab, op)
        assert abs(prob - ref_prob) <= 1e-14
        np.testing.assert_allclose(state.matrix, ref, rtol=0, atol=1e-14)


def test_protocol_demo_degenerate_conditional_falls_back_to_direct():
    """A tied leading eigenvalue leaves amplification nothing to sharpen;
    the report is then the direct spectrum of the conditional pair."""
    rho1 = make_density(np.diag([0.4, 0.4, 0.2]))
    rho2 = random_density(3, 3, seeded_rng(11))
    with pytest.raises(DegenerateSpectrumError):
        nested_witness(rho1, rho2, 0.01)
    cq = classical_quantum_state([0.5, 0.5], [rho1, rho2])
    report = protocol_demo(cq, z_measurement(), z_measurement(), "0", "1")
    direct = witness_anticommutator(rho1, rho2)
    assert report.verdict is direct.verdict is Verdict.POSITIVE
    assert report.min_eigenvalue == pytest.approx(direct.min_eigenvalue,
                                                  abs=1e-12)
    assert report.min_eigenvalue == pytest.approx(0.0171, abs=1e-4)


def test_witness_conditionals_takes_the_selected_states():
    bell = bell_state()
    prob1, rho1 = select_outcome(bell, z_measurement(), "0", "first")
    prob2, rho2 = select_outcome(bell, x_measurement(), "+", "second")
    assert prob1 == pytest.approx(0.5) and prob2 == pytest.approx(0.5)
    report = witness_conditionals(rho1, rho2)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["discord-demo", "--state", "bell", "--ops", "z,x",
                     "--outcomes", "0,+"])
    assert code == 10
    assert json.loads(buf.getvalue())["report"] == report.to_dict()
    with pytest.raises(KeyError, match="first measurement"):
        select_outcome(bell, z_measurement(), "+", "first")

