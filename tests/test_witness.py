"""Tests for the anticommutator witness and amplification planner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import (
    AgreementError,
    BoundaryError,
    CommutingInputsError,
    ConditionUnreachableError,
    DegenerateDenominatorError,
    DegenerateSpectrumError,
    DimensionError,
    PreconditionError,
    ProjectorError,
)
from qwitness.linalg import anticommutator, commutator, frobenius_norm
from qwitness.states import (
    PureDecomposition,
    bloch_to_state,
    make_density,
    pure_decompose,
    random_density,
    random_pure,
    random_unitary,
    reconstruct_decomposition,
    seeded_rng,
)
from qwitness.witness import (
    DegenerateVerdict,
    OverlapData,
    Verdict,
    amplify,
    closed_form_purity,
    degenerate_case_analysis,
    first_order_purity,
    nested_witness,
    nonpositivity_condition,
    orthogonal_case_analysis,
    overlap_data,
    parallel_case_indicator,
    plan_amplification,
    pure_mixed_test,
    qubit_bloch_condition,
    safe_nested_target,
    second_order_indicator,
    witness_anticommutator,
)

PSI0 = np.array([1.0, 0.0], dtype=complex)
PLUS = bloch_to_state([1.0, 0.0, 0.0])
MIN_EIG_PAIR = (1.0 - np.sqrt(2.0)) / 2.0


def _nondegenerate(d, rng):
    while True:
        rho = random_density(d, d, rng)
        lam = rho.spectrum.eigenvalues
        if float(lam[0] - lam[1]) > 1e-6:
            return rho


def complement_density(psi, rank, rng):
    """Random state supported orthogonally to ``psi``."""
    d = psi.shape[0]
    basis = np.linalg.qr(np.column_stack([psi, random_unitary(d, rng)[:, 1:]]))[0]
    comp = basis[:, 1:]
    inner = random_density(d - 1, rank, rng)
    m = comp @ inner.matrix @ comp.conj().T
    return make_density((m + m.conj().T) / 2)


# ------------------------------------------------------------- reports

def test_witnessed_pair_report():
    report = pure_mixed_test(PSI0, PLUS)
    assert report.verdict is Verdict.NONPOSITIVE_WITNESSED
    assert report.min_eigenvalue == pytest.approx(MIN_EIG_PAIR, abs=1e-12)
    assert report.anticommutator_trace == pytest.approx(1.0, abs=1e-12)
    assert report.purity_criterion == pytest.approx(1.5, abs=1e-12)
    # the witness vector is a unit eigenvector at the minimum eigenvalue
    anti = anticommutator(np.outer(PSI0, PSI0), PLUS.matrix)
    v = report.witness_vector
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(anti @ v, report.min_eigenvalue * v, atol=1e-12)


def test_commuting_pair_is_positive():
    report = witness_anticommutator(make_density(np.diag([0.7, 0.3])),
                                    make_density(np.diag([0.2, 0.8])))
    assert report.verdict is Verdict.POSITIVE
    assert report.min_eigenvalue >= 0.0
    assert report.purity_criterion <= 1.0


def test_null_anticommutator():
    report = pure_mixed_test(PSI0, make_density(np.diag([0.0, 1.0])))
    assert report.verdict is Verdict.NULL_ANTICOMMUTATOR
    assert report.purity_criterion is None
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-15)


def test_report_to_dict():
    obj = pure_mixed_test(PSI0, PLUS).to_dict()
    assert obj["verdict"] == "NONPOSITIVE_WITNESSED"
    assert obj["tolerances"] == {"witness": 1e-10, "null": 1e-10}
    # the report prints the thresholds it was judged with
    obj = pure_mixed_test(PSI0, PLUS, tol_witness=0.5, tol_null=0.25).to_dict()
    assert obj["verdict"] == "POSITIVE"
    assert obj["tolerances"] == {"witness": 0.5, "null": 0.25}
    assert len(obj["witness_vector"]) == 2


def test_closed_form_purity_matches_eigen_route():
    assert closed_form_purity(PSI0, PLUS) == pytest.approx(1.5, abs=1e-15)
    rng = seeded_rng(21)
    for d in (2, 3, 5):
        psi = random_pure(d, rng)
        rho2 = random_density(d, d, rng)
        report = pure_mixed_test(psi, rho2)  # raises AgreementError on drift
        closed = closed_form_purity(psi, rho2)
        assert closed == pytest.approx(report.purity_criterion, abs=1e-10)


def test_closed_form_purity_null():
    assert closed_form_purity(PSI0, make_density(np.diag([0.0, 1.0]))) is None


def test_pure_mixed_dimension_mismatch():
    with pytest.raises(DimensionError):
        pure_mixed_test(np.array([1.0, 0, 0]), PLUS)


def test_witnessed_iff_noncommuting_sample():
    """Spot check of the pure-vs-mixed equivalence on a seeded corpus."""
    hits = 0
    for t in range(60):
        rng = seeded_rng(31, t)
        d = 2 + t % 3
        psi = random_pure(d, rng)
        rho2 = random_density(d, d, rng)
        report = pure_mixed_test(psi, rho2)
        noncommuting = frobenius_norm(
            commutator(np.outer(psi, psi.conj()), rho2.matrix)) > 1e-10
        witnessed = report.verdict is Verdict.NONPOSITIVE_WITNESSED
        assert witnessed == noncommuting
        hits += witnessed
    assert hits > 0  # the corpus actually exercises the negative branch


# ------------------------------------------------------- bloch condition

def test_bloch_condition_cases():
    assert not qubit_bloch_condition([0, 0, 1], [1, 0, 0])
    assert qubit_bloch_condition([0, 0, 0.5], [0.5, 0, 0])
    assert qubit_bloch_condition([0, 0, 1], [0, 0, -1])  # commuting, aligned
    with pytest.raises(DimensionError):
        qubit_bloch_condition([0, 0], [0, 0, 1])


@given(st.lists(st.floats(-1, 1), min_size=6, max_size=6))
@settings(max_examples=120, deadline=None)
def test_bloch_condition_is_sharp_for_qubits(xs):
    b1 = np.array(xs[:3])
    b2 = np.array(xs[3:])
    if np.linalg.norm(b1) > 1 or np.linalg.norm(b2) > 1:
        return
    anti = anticommutator(bloch_to_state(b1).matrix, bloch_to_state(b2).matrix)
    min_eig = float(np.linalg.eigvalsh(anti).min())
    # closed form for the smallest eigenvalue of the pair anticommutator
    closed = 0.5 * (1.0 + float(b1 @ b2) - float(np.linalg.norm(b1 + b2)))
    assert min_eig == pytest.approx(closed, abs=1e-12)
    if abs(closed) > 1e-12:
        assert qubit_bloch_condition(b1, b2) == (min_eig >= 0.0)


# ------------------------------------------------------------ amplify

def test_amplify_two_iterations_exact():
    rho = amplify(make_density(np.diag([0.6, 0.4])), 2)
    np.testing.assert_allclose(np.diag(rho.matrix).real, [9 / 13, 4 / 13],
                               atol=1e-15)


def test_amplify_identity_and_validation():
    rho = make_density(np.diag([0.6, 0.4]))
    np.testing.assert_allclose(amplify(rho, 1).matrix, rho.matrix, atol=1e-15)
    with pytest.raises(ValueError):
        amplify(rho, 0)


def test_amplify_preserves_eigenbasis():
    rng = seeded_rng(5)
    rho = random_density(4, 4, rng)
    out = amplify(rho, 3)
    assert frobenius_norm(commutator(rho.matrix, out.matrix)) < 1e-12


def test_amplify_huge_power_stays_valid():
    rho = amplify(make_density(np.diag([0.6, 0.4])), 10_000)
    lam = rho.spectrum.eigenvalues
    assert float(lam[0]) == pytest.approx(1.0, abs=1e-15)
    assert float(rho.matrix.trace().real) == pytest.approx(1.0, abs=1e-12)


def test_plan_amplification_frozen_example():
    plan = plan_amplification(make_density(np.diag([0.6, 0.4])), 0.05)
    assert plan.n == 8
    assert not plan.degenerate
    assert plan.achieved_epsilon == pytest.approx(0.03755317588381989, abs=1e-15)
    # minimality: one step fewer overshoots the target
    r7 = (0.4 / 0.6) ** 7
    assert r7 / (1 + r7) > 0.05
    lam = amplify(make_density(np.diag([0.6, 0.4])), 8).spectrum.eigenvalues
    assert 1.0 - float(lam[0]) <= 0.05


def test_plan_amplification_single_step():
    plan = plan_amplification(make_density(np.diag([0.9, 0.1])), 0.2)
    assert plan.n == 1
    assert plan.achieved_epsilon == pytest.approx(0.1, abs=1e-12)


def test_plan_amplification_degenerate_input():
    plan = plan_amplification(make_density(np.eye(2) / 2), 0.05)
    assert plan.degenerate
    assert plan.n == 0
    assert plan.achieved_epsilon == pytest.approx(0.5, abs=1e-12)


def test_plan_amplification_cap():
    rho = make_density(np.diag([0.5 + 5e-7, 0.5 - 5e-7]))
    plan = plan_amplification(rho, 0.05, cap=100)
    assert plan.degenerate
    assert plan.n == 100


def test_plan_amplification_target_validation():
    rho = make_density(np.diag([0.6, 0.4]))
    with pytest.raises(ValueError):
        plan_amplification(rho, 1.0)
    with pytest.raises(ValueError):
        plan_amplification(rho, -0.1)
    for cap in (0, -4):
        with pytest.raises(ValueError, match="cap"):
            plan_amplification(rho, 0.01, cap=cap)
    # nested_witness checks its plan arguments before analysing the pair
    mixed = make_density(np.eye(2) / 2)
    with pytest.raises(ValueError, match="cap"):
        nested_witness(mixed, rho, 0.05, plan_cap=0)
    with pytest.raises(ValueError, match="target"):
        nested_witness(mixed, rho, 1.5)
    with pytest.raises(ValueError, match="target"):
        nested_witness(rho, rho, 1.5)


def test_plan_is_minimal_across_targets():
    rho = make_density(np.diag([0.55, 0.25, 0.2]))
    lam = rho.spectrum.eigenvalues
    ratios = lam[1:] / lam[0]
    for target in (0.3, 0.1, 0.03, 0.004):
        plan = plan_amplification(rho, target)
        s = float(np.sum(ratios ** plan.n))
        assert s / (1 + s) <= target
        if plan.n > 1:
            s_prev = float(np.sum(ratios ** (plan.n - 1)))
            assert s_prev / (1 + s_prev) > target


# ------------------------------------------------- first-order condition

def test_overlap_data_and_condition():
    o = OverlapData(f=complex(np.sqrt(0.5)), g1=0.0, g2=0.0, eps1=0.0, eps2=0.0)
    assert nonpositivity_condition(o)
    assert first_order_purity(o) == pytest.approx(1.5, abs=1e-15)


def test_condition_boundary_guards():
    with pytest.raises(BoundaryError):
        nonpositivity_condition(OverlapData(f=0.0, g1=0, g2=0, eps1=0, eps2=0))
    with pytest.raises(BoundaryError):
        first_order_purity(OverlapData(f=1.0, g1=0, g2=0, eps1=0, eps2=0))


def test_first_order_degenerate_denominator():
    o = OverlapData(f=5e-6, g1=0.0, g2=0.0, eps1=0.0, eps2=0.0)
    with pytest.raises(DegenerateDenominatorError):
        first_order_purity(o)


@given(st.floats(0.0, 0.4), st.floats(0.0, 0.4),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(1e-3, 1.0 - 1e-3))
@settings(max_examples=300, deadline=None)
def test_first_order_purity_sign_identity(e1, e2, g1, g2, af2):
    """purity > 1 exactly when the margin condition holds."""
    o = OverlapData(f=complex(np.sqrt(af2)), g1=g1, g2=g2, eps1=e1, eps2=e2)
    value = first_order_purity(o)
    if abs(value - 1.0) > 1e-9:
        assert (value > 1.0) == nonpositivity_condition(o)


def test_overlap_data_from_decompositions():
    rng = seeded_rng(8)
    rho1 = random_density(3, 3, rng)
    rho2 = random_density(3, 3, rng)
    dec1, dec2 = pure_decompose(rho1), pure_decompose(rho2)
    o = overlap_data(dec1, dec2)
    assert abs(o.f) == pytest.approx(
        abs(np.vdot(dec1.psi, dec2.psi)), abs=1e-15)
    assert o.eps1 == dec1.epsilon and o.eps2 == dec2.epsilon
    assert 0.0 <= o.g1 <= 1.0 + 1e-12 and 0.0 <= o.g2 <= 1.0 + 1e-12


# ------------------------------------------------------- nested witness

def hadamard_conjugate(m):
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return h @ m @ h


def test_nested_witness_end_to_end():
    sigma1 = make_density(np.diag([0.7, 0.3]))
    sigma2 = make_density(hadamard_conjugate(np.diag([0.7, 0.3])))
    result = nested_witness(sigma1, sigma2, 0.05)
    assert result.plan1.n == 4
    assert result.plan2.n == 4
    assert result.condition_met
    assert result.report.verdict is Verdict.NONPOSITIVE_WITNESSED
    assert result.report.min_eigenvalue == pytest.approx(
        -0.16095396146365437, abs=1e-10)
    assert abs(result.overlap.f) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # the amplified states are sharper than the inputs
    assert result.state1.spectrum.eigenvalues[0] > 0.7


def test_nested_witness_condition_guarantees_verdict_at_safe_targets():
    hits = 0
    for t in range(25):
        rng = seeded_rng(41, t)
        d = 2 + t % 3
        sigma1 = random_density(d, d, rng)
        sigma2 = random_density(d, d, rng)
        f = abs(np.vdot(sigma1.spectrum.eigenvectors[:, 0],
                        sigma2.spectrum.eigenvectors[:, 0]))
        try:
            result = nested_witness(sigma1, sigma2, safe_nested_target(f))
        except (DegenerateSpectrumError, ConditionUnreachableError):
            continue
        if result.condition_met:
            assert result.report.verdict is Verdict.NONPOSITIVE_WITNESSED
            hits += 1
    assert hits > 10


def test_nested_witness_loose_target_reports_honestly():
    """The margin condition is first order: with an aggressive target and
    a small overlap it can hold while the exact spectrum stays positive.
    The result must then carry the disagreement instead of hiding it."""
    rng = seeded_rng(2, 26)
    sigma1 = _nondegenerate(2, rng)
    sigma2 = _nondegenerate(2, rng)
    f = abs(np.vdot(sigma1.spectrum.eigenvectors[:, 0],
                    sigma2.spectrum.eigenvectors[:, 0]))
    assert f < 0.1  # nearly antipodal pair
    result = nested_witness(sigma1, sigma2, (1.0 - f * f) / 10.0)
    assert result.condition_met
    assert result.report.verdict is Verdict.POSITIVE
    assert result.report.min_eigenvalue > 0.0
    # the safe target restores the guarantee on the same pair
    safe = nested_witness(sigma1, sigma2, safe_nested_target(f))
    assert safe.condition_met
    assert safe.report.verdict is Verdict.NONPOSITIVE_WITNESSED


def test_nested_witness_commuting_inputs():
    with pytest.raises(CommutingInputsError):
        nested_witness(make_density(np.diag([0.7, 0.3])),
                       make_density(np.diag([0.2, 0.8])), 0.05)


def test_nested_witness_degenerate_input():
    with pytest.raises(DegenerateSpectrumError):
        nested_witness(make_density(np.eye(2) / 2),
                       make_density(hadamard_conjugate(np.diag([0.7, 0.3]))),
                       0.05)


def test_nested_witness_plan_cap_exhausted():
    sigma1 = make_density(np.diag([0.5 + 5e-7, 0.5 - 5e-7]))
    sigma2 = make_density(hadamard_conjugate(np.diag([0.7, 0.3])))
    with pytest.raises(DegenerateSpectrumError):
        nested_witness(sigma1, sigma2, 0.05, plan_cap=64)


def test_nested_witness_parallel_tops_unreachable():
    # identical leading eigenvectors, noncommuting tails
    tail1 = np.zeros((3, 3), dtype=complex)
    tail1[1:, 1:] = np.diag([0.15, 0.05])
    tail2 = np.zeros((3, 3), dtype=complex)
    tail2[1:, 1:] = hadamard_conjugate(np.diag([0.2, 0.1]))
    top = np.diag([0.8, 0.0, 0.0]).astype(complex)
    sigma1 = make_density(top + tail1)
    sigma2 = make_density(np.diag([0.7, 0.0, 0.0]) + tail2)
    with pytest.raises(ConditionUnreachableError):
        nested_witness(sigma1, sigma2, 0.05)


# ----------------------------------------------------- orthogonal case

def test_second_order_indicator_arithmetic():
    assert second_order_indicator(0.1, 0.1, 0.0, 0.0, 1.0, 1.0) == \
        pytest.approx(0.04, abs=1e-15)
    assert second_order_indicator(0.1, 0.1, 0.5, 0.5, 0.0, 0.0) == \
        pytest.approx(-0.02, abs=1e-15)


def test_orthogonal_case_projector_tails():
    """Rank-1 tails: g = var + g^2 since eta^2 = eta."""
    psi1 = np.array([1, 0, 0, 0], dtype=complex)
    psi2 = np.array([0, 1, 0, 0], dtype=complex)
    v = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    w = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    dec1 = PureDecomposition(epsilon=1e-3, psi=psi1,
                             eta=make_density(np.outer(v, v.conj())),
                             degenerate=False, gap=1.0)
    dec2 = PureDecomposition(epsilon=1e-3, psi=psi2,
                             eta=make_density(np.outer(w, w.conj())),
                             degenerate=False, gap=1.0)
    report = orthogonal_case_analysis(dec1, dec2)
    assert report.g1 == pytest.approx(0.5, abs=1e-12)
    assert report.g2 == pytest.approx(0.5, abs=1e-12)
    assert report.var1 == pytest.approx(0.25, abs=1e-12)
    assert report.var2 == pytest.approx(0.25, abs=1e-12)
    assert report.ratio_bound == pytest.approx(
        (0.5 - np.sqrt(3 / 16)) / 0.25, abs=1e-12)
    assert not report.witnessable  # equal weights sit above the ratio bound
    # tipping the weights below the bound flips the indicator sign
    dec1_heavy = PureDecomposition(epsilon=1e-2, psi=psi1, eta=dec1.eta,
                                   degenerate=False, gap=1.0)
    dec2_light = PureDecomposition(epsilon=1e-3, psi=psi2, eta=dec2.eta,
                                   degenerate=False, gap=1.0)
    assert orthogonal_case_analysis(dec1_heavy, dec2_light).witnessable


def test_orthogonal_case_witnessable_matches_direct_eigenvalue():
    checked = 0
    for t in range(40):
        rng = seeded_rng(47, t)
        u = random_unitary(4, rng)
        psi1, psi2 = u[:, 0], u[:, 1]
        decs = []
        for psi in (psi1, psi2):
            eta = complement_density(psi, int(rng.integers(1, 4)), rng)
            decs.append(PureDecomposition(epsilon=1e-3, psi=psi, eta=eta,
                                          degenerate=False, gap=1.0))
        report = orthogonal_case_analysis(decs[0], decs[1])
        if report.witnessable:
            anti = anticommutator(reconstruct_decomposition(decs[0]),
                                  reconstruct_decomposition(decs[1]))
            assert float(np.linalg.eigvalsh(anti).min()) < 0.0
            checked += 1
    assert checked >= 5


def test_orthogonal_case_precondition():
    dec = pure_decompose(PLUS)
    with pytest.raises(PreconditionError):
        orthogonal_case_analysis(dec, dec)


# ------------------------------------------------------- parallel case

def test_parallel_case_never_positive():
    for eps in (1e-2, 1e-3):
        for t in range(20):
            rng = seeded_rng(53, t)
            u = random_unitary(4, rng)
            psi, comp = u[:, 0], u[:, 1:]
            decs = []
            for _ in range(2):
                inner = random_density(3, int(rng.integers(1, 4)), rng)
                m = comp @ inner.matrix @ comp.conj().T
                decs.append(PureDecomposition(
                    epsilon=eps, psi=psi,
                    eta=make_density((m + m.conj().T) / 2),
                    degenerate=False, gap=1.0))
            value = parallel_case_indicator(decs[0], decs[1])
            assert value <= 1e-12 + 20.0 * eps**3
            # cross-check against the exact closed expansion
            anti_eta = anticommutator(decs[0].eta.matrix, decs[1].eta.matrix)
            tau = float(anti_eta.trace().real)
            exact = (eps**4 * float((anti_eta @ anti_eta).trace().real)
                     - 4 * (1 - eps)**2 * eps**2 * tau - eps**4 * tau**2)
            assert value == pytest.approx(exact, abs=1e-12)


def test_parallel_case_preconditions():
    dec0 = pure_decompose(make_density(np.diag([1.0, 0.0])))
    dec_plus = pure_decompose(PLUS)
    with pytest.raises(PreconditionError):
        parallel_case_indicator(dec0, dec_plus)
    # remainder leaking onto the pure direction is rejected
    psi = np.array([1, 0, 0], dtype=complex)
    leaky = PureDecomposition(
        epsilon=0.1, psi=psi, eta=make_density(np.eye(3) / 3),
        degenerate=False, gap=1.0)
    with pytest.raises(PreconditionError):
        parallel_case_indicator(leaky, leaky)


# ------------------------------------------------------ degenerate case

def rotation_13(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])


@pytest.mark.parametrize("theta", [0.0, np.pi / 6, np.pi / 4, np.pi / 3,
                                   np.pi / 2])
def test_degenerate_bracket_closed_form(theta):
    p1 = np.diag([1.0, 1.0, 0.0])
    p2 = rotation_13(theta) @ np.diag([0.0, 1.0, 1.0]) @ rotation_13(theta).T
    report = degenerate_case_analysis(p1, 2, p2, 2, 1e-3, 1e-3)
    expected = -(3.0 + np.sin(theta) ** 2) * np.sin(theta) ** 2
    assert report.bracket == pytest.approx(expected, abs=1e-10)
    assert report.leading == pytest.approx(
        2.0 * (1.0 - 4e-3) * expected / 16.0, abs=1e-10)


def test_degenerate_direct_check_interior_angles():
    """Negative bracket, yet the operator itself has a negative eigenvalue."""
    p1 = np.diag([1.0, 1.0, 0.0])
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        r = rotation_13(theta)
        report = degenerate_case_analysis(
            p1, 2, r @ np.diag([0.0, 1.0, 1.0]) @ r.T, 2, 1e-3, 1e-3)
        assert report.verdict is DegenerateVerdict.NEGATIVE_INCONCLUSIVE
        assert report.direct_min_eigenvalue < -1e-3


def test_degenerate_pi_half_projectors_coincide():
    # at a quarter turn the rotated projector equals p1, so everything
    # commutes and the anticommutator is positive despite bracket = -4
    p1 = np.diag([1.0, 1.0, 0.0])
    r = rotation_13(np.pi / 2)
    report = degenerate_case_analysis(
        p1, 2, r @ np.diag([0.0, 1.0, 1.0]) @ r.T, 2, 1e-3, 1e-3)
    assert report.bracket == pytest.approx(-4.0, abs=1e-12)
    assert report.direct_min_eigenvalue >= 0.0


def test_degenerate_rank_one_is_witnessable():
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    report = degenerate_case_analysis(np.outer(psi, psi), 1,
                                      np.diag([1.0, 0.0, 0.0]), 1, 1e-3, 1e-3)
    assert report.bracket == pytest.approx(0.25, abs=1e-12)
    assert report.verdict is DegenerateVerdict.POSITIVE_WITNESSABLE


def test_degenerate_undetermined_at_zero_bracket():
    report = degenerate_case_analysis(np.diag([1.0, 1.0, 0.0]), 2,
                                      np.diag([0.0, 1.0, 1.0]), 2, 0.0, 0.0)
    assert report.verdict is DegenerateVerdict.UNDETERMINED
    assert report.direct_min_eigenvalue is None


def test_degenerate_case_validation():
    good = np.diag([1.0, 0.0])
    with pytest.raises(ProjectorError):
        degenerate_case_analysis(good * 0.5, 1, good, 1, 0.0, 0.0)
    with pytest.raises(ProjectorError):
        degenerate_case_analysis(good, 2, good, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        degenerate_case_analysis(good, 1, good, 1, 1.5, 0.0)
    with pytest.raises(DimensionError):
        degenerate_case_analysis(good, 1, np.diag([1.0, 0.0, 0.0]), 1, 0.0, 0.0)


# ------------------------------------------------- metamorphic relations

def conjugated(rho, u):
    return make_density(u @ rho.matrix @ u.conj().T)


def seeded_pairs():
    """State pairs of every rank at d = 2, 3, 4, each with a Haar
    unitary."""
    for d in (2, 3, 4):
        for t in range(12):
            rng = seeded_rng(97, d, t)
            yield (random_density(d, 1 + t % d, rng),
                   random_density(d, 1 + (t // d) % d, rng),
                   random_unitary(d, rng))


def test_witness_report_is_symmetric_in_the_pair():
    # ab + ba and ba + ab are the same floats, so the reports are equal
    for a, b, _ in seeded_pairs():
        assert witness_anticommutator(b, a).to_dict() == \
            witness_anticommutator(a, b).to_dict()


def test_witness_is_invariant_under_joint_conjugation():
    verdicts = set()
    for a, b, u in seeded_pairs():
        base = witness_anticommutator(a, b)
        moved = witness_anticommutator(conjugated(a, u), conjugated(b, u))
        assert moved.verdict is base.verdict
        assert abs(moved.min_eigenvalue - base.min_eigenvalue) <= 1e-12
        verdicts.add(base.verdict)
    assert verdicts == {Verdict.NONPOSITIVE_WITNESSED, Verdict.POSITIVE}


def test_nested_plans_are_invariant_under_joint_conjugation():
    for a, b, u in seeded_pairs():
        base = nested_witness(a, b, 0.05)
        moved = nested_witness(conjugated(a, u), conjugated(b, u), 0.05)
        assert (moved.plan1.n, moved.plan2.n) == (base.plan1.n, base.plan2.n)
