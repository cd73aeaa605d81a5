"""Tests for the conditional-state discord protocol."""

import contextlib
import io
import json

import numpy as np
import pytest

from qwitness import discord
from qwitness.cli import main
from qwitness.discord import (
    BipartiteState,
    _conditional_states,
    _witness_conditionals,
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
    CapacityError,
    CommutingInputsError,
    ConditionUnreachableError,
    DegenerateSpectrumError,
    DimensionError,
    NullOutcomeError,
    PositivityError,
)
from qwitness.linalg import commutator
from qwitness.states import (
    DensityOperator,
    StateStack,
    bloch_to_state,
    make_density,
    pure_projector,
    random_density,
    random_pure,
    random_unitary,
    seeded_rng,
)
from qwitness.tolerances import TOL_COMM, TOL_F, TOL_TRACE
from qwitness.witness import (
    Verdict,
    _guard_overlap,
    leading_overlap,
    nested_witness,
    safe_nested_target,
    witness_anticommutator,
)

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



# ------------------------------------- stacked formulas against references

def single_conditional_state(rho_ab, projector):
    """conditional_state's formula on one projector, as one einsum."""
    da, db = rho_ab.dims
    r = rho_ab.state.matrix.reshape(da, db, da, db)
    reduced = np.einsum("ai,ibjc,aj->bc", projector, r, projector.conj())
    prob = float(reduced.trace().real)
    if prob <= TOL_TRACE:
        return max(prob, 0.0), None
    return prob, DensityOperator(reduced / prob)


def test_stacked_conditional_states_have_the_bits_of_each_member_alone():
    # one stack per (dA, dB): random states and projectors, with a
    # null outcome (a projector onto A's unused basis vector) in each
    rng = seeded_rng(29)
    for da, db in [(2, 2), (2, 3), (3, 2), (4, 4), (2, 16), (16, 2)]:
        members = []
        for k in range(8):
            rho_ab = BipartiteState(
                state=random_density(da * db, da * db, rng), dims=(da, db))
            members.append((rho_ab, pure_projector(random_pure(da, rng))))
        pointer = np.zeros(da)
        pointer[0] = 1.0
        members.append((classical_quantum_state(
            pointer, [random_density(db, db, rng)] * da),
            pure_projector(np.eye(da)[1])))
        probs, possible, states = _conditional_states(
            np.array([m[0].state.matrix for m in members]), (da, db),
            np.array([m[1] for m in members]))
        assert possible.tolist() == [True] * 8 + [False]
        for k, (rho_ab, projector) in enumerate(members):
            prob, state = single_conditional_state(rho_ab, projector)
            assert float(probs[k]) == prob
            if state is None:
                assert conditional_state(rho_ab, projector) == (prob, None)
                continue
            assert np.array_equal(states.matrix[k], state.matrix)
            assert np.array_equal(conditional_state(rho_ab, projector)[1].matrix,
                                  state.matrix)


def reference_witness_conditionals(rho1, rho2):
    """witness_conditionals one pair at a time: the overlap guard, then
    the nested witness, then the direct report for what they decline."""
    f = leading_overlap(rho1, rho2)
    try:
        _guard_overlap(f, TOL_F)
        return nested_witness(rho1, rho2, safe_nested_target(f)).report
    except (ConditionUnreachableError, CommutingInputsError,
            DegenerateSpectrumError):
        return witness_anticommutator(rho1, rho2)


def _route(rho1, rho2):
    """The error that sends a pair to the direct report, or None for
    the nested route."""
    try:
        _guard_overlap(leading_overlap(rho1, rho2), TOL_F)
        nested_witness(rho1, rho2,
                       safe_nested_target(leading_overlap(rho1, rho2)))
    except (ConditionUnreachableError, CommutingInputsError,
            DegenerateSpectrumError) as exc:
        return type(exc)
    return None


def _rotation(delta):
    """exp(-i delta sigma_y), a real rotation of the qubit."""
    return np.array([[np.cos(delta), -np.sin(delta)],
                     [np.sin(delta), np.cos(delta)]], dtype=complex)


def _pairs_of_every_route():
    """Qubit pairs, one stack per route, and a qutrit stack."""
    rng = seeded_rng(97)
    nested = [(random_density(2, 2, rng), random_density(2, 2, rng))
              for _ in range(12)]
    near = []  # |f| within TOL_F of 1: a tiny rotation of one state
    for delta in (1e-4, 1e-7):
        rho = random_density(2, 2, rng)
        u = _rotation(delta)
        near.append((rho, make_density(u @ rho.matrix @ u.conj().T)))
    same = []  # a state against itself: |f| rounds to 1 or just above
    for _ in range(4):
        rho = random_density(2, 2, rng)
        same.append((rho, rho))
    orthogonal = [(make_density(np.diag([0.7, 0.3])),
                   make_density(np.diag([0.2, 0.8])))]
    tied = [(make_density(np.eye(2) / 2), random_density(2, 2, rng))
            for _ in range(3)]
    # qutrits: orthogonal leading vectors with noncommuting tails
    # (|f| = 0), and a pair that commutes within TOL_COMM although
    # |f| = cos(0.01) and both top gaps pass
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    tail = np.zeros((3, 3), dtype=complex)
    tail[np.ix_([0, 2], [0, 2])] = h @ np.diag([0.2, 0.1]) @ h
    zero = (make_density(np.diag([0.8, 0.15, 0.05])),
            make_density(np.diag([0.0, 0.7, 0.0]) + tail))
    r = np.eye(3, dtype=complex)
    r[:2, :2] = _rotation(0.01)
    close = (make_density(np.diag([0.4 + 1e-8, 0.4 - 1e-8, 0.2])),
             make_density(r @ np.diag([0.5, 0.49, 0.01]) @ r.conj().T))
    return {"nested": nested, "near": near, "same": same,
            "orthogonal": orthogonal, "tied": tied,
            "qutrit": [zero, close]}


def test_pairs_take_the_routes_they_are_built_for():
    pairs = _pairs_of_every_route()
    assert [_route(*p) for p in pairs["nested"]] == [None] * 12
    for name in ("near", "orthogonal"):
        assert {_route(*p) for p in pairs[name]} == {ConditionUnreachableError}
    assert all(np.linalg.norm(commutator(a.matrix, b.matrix)) > TOL_COMM
               for a, b in pairs["near"] + pairs["qutrit"][:1])
    assert {_route(*p) for p in pairs["tied"]} == {DegenerateSpectrumError}
    assert [_route(*p) for p in pairs["qutrit"]] == [
        ConditionUnreachableError, CommutingInputsError]
    # some state's leading overlap with itself rounds above 1, where
    # the nested target would be negative
    assert any(leading_overlap(a, b) > 1.0 for a, b in pairs["same"])


def _same_report(a, b):
    return (a.min_eigenvalue == b.min_eigenvalue
            and np.array_equal(a.witness_vector, b.witness_vector)
            and a.purity_criterion == b.purity_criterion
            and a.anticommutator_trace == b.anticommutator_trace
            and a.verdict is b.verdict
            and (a.tol_witness, a.tol_null) == (b.tol_witness, b.tol_null)
            and a.closed_form_criterion == b.closed_form_criterion)


def test_stacked_witness_takes_each_members_route():
    # every route in one stack, interleaved, member by member against
    # the pair-at-a-time reference
    pairs = _pairs_of_every_route()
    qubits = [p for name in ("nested", "near", "same", "orthogonal", "tied")
              for p in pairs[name]]
    order = seeded_rng(5).permutation(len(qubits))
    for stack in ([qubits[k] for k in order], pairs["qutrit"]):
        first, second = (StateStack.check(np.array([p[i].matrix for p in stack]))
                         for i in (0, 1))
        reports = _witness_conditionals(first, second)
        assert len(reports) == len(stack)
        for (rho1, rho2), report in zip(stack, reports):
            assert _same_report(report, reference_witness_conditionals(rho1, rho2))
            assert _same_report(witness_conditionals(rho1, rho2), report)
    # the nested route's report is the amplified pair's, not the direct one
    rho1, rho2 = pairs["nested"][0]
    assert not _same_report(witness_conditionals(rho1, rho2),
                            witness_anticommutator(rho1, rho2))


def test_stacked_witness_raises_what_the_nested_witness_does_not_decline(
        monkeypatch):
    def refuse(first, second, targets, **kw):
        raise CapacityError("not a declined input")

    monkeypatch.setattr(discord, "_nested_columns", refuse)
    rho1, rho2 = _pairs_of_every_route()["nested"][0]
    with pytest.raises(CapacityError, match="not a declined input"):
        witness_conditionals(rho1, rho2)


def test_stacked_comparison_drops_the_states_of_null_outcomes():
    # row 0 keeps a pair that does not commute; row 1 drops one of its
    # states, so nothing is left to compare; row 2 keeps one commuting
    # pair beside the dropped state
    diag = np.diag([0.7, 0.3]).astype(complex)
    states = np.array([[diag, PLUS.matrix, diag],
                       [diag, PLUS.matrix, diag],
                       [diag, PLUS.matrix, diag / 2 + np.eye(2) / 4]])
    kept = np.array([[True, True, False], [True, False, True],
                     [True, False, True]])
    assert discord._noncommuting(states, kept).tolist() == [True, False, False]
