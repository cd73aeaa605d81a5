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
    measurement_from_unitary,
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
from qwitness.linalg import commutator
from qwitness.states import (
    DensityOperator,
    bloch_to_state,
    make_density,
    pure_projector,
    random_density,
    random_pure,
    random_unitary,
    seeded_rng,
)
from qwitness.tolerances import TOL_COMM
from qwitness.witness import Verdict, nested_witness, witness_anticommutator

PLUS = bloch_to_state([1.0, 0.0, 0.0])


def product_state(rho_a, rho_b):
    return BipartiteState(
        state=make_density(np.kron(rho_a.matrix, rho_b.matrix)),
        dims=(rho_a.dim, rho_b.dim))


def commutation_scan(rho_ab, projectors):
    """The conditional states of B for each outcome projector, compared
    pairwise as ``scan_discord`` compares them."""
    return compare_conditionals([conditional_state(rho_ab, p)
                                 for p in projectors])


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
        conditional_state(bell_state(), pure_projector([1.0, 0, 0]))


def test_classical_quantum_state_blocks():
    bobs = [make_density(np.diag([0.7, 0.3])), PLUS]
    cq = classical_quantum_state([0.25, 0.75], bobs)
    assert cq.dims == (2, 2)
    for i, projector in enumerate(z_measurement().values()):
        prob, state = conditional_state(cq, projector)
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
    with pytest.raises(DimensionError, match="share one dimension"):
        classical_quantum_state([0.5, 0.5],
                                [bob, make_density(np.eye(3) / 3)])


def test_measurement_from_unitary_requires_unit_columns():
    with pytest.raises(ValueError, match="norm"):
        measurement_from_unitary(np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_measurement_from_unitary_is_complete():
    rng = seeded_rng(71)
    u = random_unitary(3, rng)
    meas = measurement_from_unitary(u)
    assert sorted(meas) == ["0", "1", "2"]
    np.testing.assert_allclose(sum(meas.values()), np.eye(3), atol=1e-12)
    for p in meas.values():
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
    with pytest.raises(DimensionError):
        measurement_from_unitary(u, labels=["a", "b"])


def test_named_qubit_measurements():
    assert sorted(z_measurement()) == ["0", "1"]
    assert sorted(x_measurement()) == ["+", "-"]
    np.testing.assert_allclose(x_measurement()["+"], np.full((2, 2), 0.5),
                               atol=1e-12)


def test_commutation_scan_flags_bell():
    projectors = [*z_measurement().values(), *x_measurement().values()]
    assert commutation_scan(bell_state(), projectors) is True


def test_commutation_scan_passes_commuting_ensemble():
    bobs = [make_density(np.diag([0.7, 0.3])), make_density(np.diag([0.2, 0.8]))]
    cq = classical_quantum_state([0.5, 0.5], bobs)
    projectors = [*z_measurement().values(), *x_measurement().values()]
    assert commutation_scan(cq, projectors) is False


def test_commutation_scan_drops_null_outcomes():
    pure00 = BipartiteState(
        state=make_density(np.diag([1.0, 0.0, 0.0, 0.0])), dims=(2, 2))
    # the "1" outcome has probability 0; the one kept state has no pair
    assert commutation_scan(pure00, list(z_measurement().values())) is False


def test_conditional_norms_have_the_bits_of_each_pair_alone():
    # one stacked commutator over the pairs finds a noncommuting pair
    # exactly when np.linalg.norm of some pair's commutator alone
    # exceeds the tolerance; ensembles of 0 and 1 kept states have no
    # pairs
    rng = seeded_rng(43)
    for t in range(60):
        d = 1 + t % 5
        kept = [random_density(d, d, rng) for _ in range(t % 6)]
        found = compare_conditionals(
            [(0.0, None)] + [(1.0 / len(kept), rho) for rho in kept])
        want = np.zeros((len(kept), len(kept)))
        for i, a in enumerate(kept):
            for j, b in enumerate(kept[i + 1:], i + 1):
                want[i, j] = want[j, i] = np.linalg.norm(
                    commutator(a.matrix, b.matrix))
        assert found is bool((want > TOL_COMM).any())


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


def kron_conditional_state(rho_ab, projector):
    """Reference route: (P (x) I) rho (P (x) I)^dagger on the full space,
    then the partial trace over A."""
    da, db = rho_ab.dims
    lift = np.kron(projector, np.eye(db))
    out = lift @ rho_ab.state.matrix @ lift.conj().T
    prob = float(out.trace().real)
    return prob, np.einsum("ijil->jl", out.reshape(da, db, da, db)) / prob


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_conditional_state_matches_kron_reference(da, db):
    for t in range(10):
        rng = seeded_rng(83, da, db, t)
        rho_ab = BipartiteState(
            state=random_density(da * db, int(rng.integers(1, da * db + 1)), rng),
            dims=(da, db))
        projector = pure_projector(random_pure(da, rng))
        prob, state = conditional_state(rho_ab, projector)
        ref_prob, ref = kron_conditional_state(rho_ab, projector)
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

