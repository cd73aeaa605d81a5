"""Tests for the anticommutator witness and amplification planner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import (
    AgreementError,
    CapacityError,
    CommutingInputsError,
    ConditionUnreachableError,
    DegenerateDenominatorError,
    DegenerateSpectrumError,
    DimensionError,
    HermiticityError,
    PreconditionError,
    ProjectorError,
    QwitnessError,
)
from qwitness import witness
from qwitness.discord import BipartiteState
from qwitness.linalg import (SpectralDecomposition, anticommutator, commutator,
                             frobenius_norms)
from qwitness.scans import run_scan
from qwitness.states import (
    PureDecomposition,
    StateStack,
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
    AmplificationPlan,
    DegenerateCaseReport,
    DegenerateVerdict,
    NestedWitnessResult,
    OrthogonalCaseReport,
    OverlapData,
    Verdict,
    WitnessReport,
    amplify,
    degenerate_case_analysis,
    first_order_purity,
    margin_terms,
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
from qwitness.tolerances import EIGEN_DIM_CAP, PLAN_CAP, TOL_DEGEN, TOL_F

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


def test_witness_anticommutator_eigensolver_cap():
    # states of any dimension validate; only the spectral analysis is capped
    d = EIGEN_DIM_CAP  # 256
    rho = make_density(np.eye(d) / d)
    assert witness_anticommutator(rho, rho).witness_vector.shape == (d,)
    big = make_density(np.eye(d + 1) / (d + 1))
    with pytest.raises(CapacityError, match=f"{d + 1} exceeds eigensolver cap"):
        witness_anticommutator(big, big)


def test_witness_paths_decompose_once(monkeypatch):
    """Once its inputs are built, a witness eigendecomposes only its
    anticommutator stack: amplified states and their remainders keep
    the spectra they are built from."""
    rng = seeded_rng(3)
    sigma1, sigma2 = random_density(3, 3, rng), random_density(3, 3, rng)
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    witness_anticommutator(sigma1, sigma2)
    assert len(calls) == 1
    calls.clear()
    result = nested_witness(sigma1, sigma2, 0.05)
    assert result.report.verdict is Verdict.NONPOSITIVE_WITNESSED
    assert len(calls) == 1
    calls.clear()
    # per dimension: the two state stacks and the anticommutator stack
    run_scan("nested", trials=150, seed=1)
    assert len(calls) == 9


def test_report_to_dict():
    obj = pure_mixed_test(PSI0, PLUS).to_dict()
    assert obj["verdict"] == "NONPOSITIVE_WITNESSED"
    assert obj["tolerances"] == {"witness": 1e-10, "null": 1e-10}
    # the report prints the thresholds it was judged with
    obj = pure_mixed_test(PSI0, PLUS, tol_witness=0.5, tol_null=0.25).to_dict()
    assert obj["verdict"] == "POSITIVE"
    assert obj["tolerances"] == {"witness": 0.5, "null": 0.25}
    assert len(obj["witness_vector"]) == 2


_PLAN_FIELDS = dict(n=1, achieved_epsilon=0.01, requested_epsilon=0.05,
                    degenerate=False)
_REPORT_FIELDS = dict(min_eigenvalue=-0.2, witness_vector=PSI0,
                      purity_criterion=1.5, anticommutator_trace=1.0,
                      verdict=Verdict.NONPOSITIVE_WITNESSED, tol_witness=1e-10,
                      tol_null=1e-10, closed_form_criterion=None)
_OVERLAP_FIELDS = dict(f=0.5 + 0j, g1=0.1, g2=0.2, eps1=0.01, eps2=0.02)
_PLAN = AmplificationPlan(**_PLAN_FIELDS)

# every record type, with keyword arguments in field order
_RECORDS = {
    SpectralDecomposition: dict(eigenvalues=np.ones(2), eigenvectors=np.eye(2)),
    PureDecomposition: dict(epsilon=0.0, psi=PSI0, eta=None),
    WitnessReport: _REPORT_FIELDS,
    AmplificationPlan: _PLAN_FIELDS,
    OverlapData: _OVERLAP_FIELDS,
    NestedWitnessResult: dict(report=WitnessReport(**_REPORT_FIELDS),
                              plan1=_PLAN, plan2=_PLAN,
                              overlap=OverlapData(**_OVERLAP_FIELDS),
                              condition_met=True),
    OrthogonalCaseReport: dict(indicator=0.1, witnessable=True,
                               ratio_bound=None, g1=0.1, g2=0.2, var1=0.3,
                               var2=0.4),
    DegenerateCaseReport: dict(leading=0.1, bracket=0.2,
                               verdict=DegenerateVerdict.UNDETERMINED,
                               direct_min_eigenvalue=None),
    BipartiteState: dict(state=make_density(np.eye(4) / 4), dims=(2, 2)),
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_records_build_from_keywords_and_are_immutable(cls):
    fields = _RECORDS[cls]
    record = cls(**fields)
    assert record._fields == tuple(fields)
    for name, value in fields.items():
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_closed_form_purity_matches_eigen_route():
    closed = pure_mixed_test(PSI0, PLUS).closed_form_criterion
    assert closed == pytest.approx(1.5, abs=1e-15)
    rng = seeded_rng(21)
    for d in (2, 3, 5):
        psi = random_pure(d, rng)
        rho2 = random_density(d, d, rng)
        report = pure_mixed_test(psi, rho2)  # raises AgreementError on drift
        closed = report.closed_form_criterion
        assert closed == pytest.approx(report.purity_criterion, abs=1e-10)


def test_closed_form_purity_agrees_relative_to_a_large_criterion():
    # psi nearly orthogonal to rho2's support: the criterion is ~1007 and
    # the two routes differ by 5e-10 from rounding alone (trial 536277 of
    # the seed-0 pure-mixed scan, d = 2)
    rng = seeded_rng(0, 536277)
    psi = random_pure(2, rng)
    rho2 = random_density(2, 2, rng)
    report = pure_mixed_test(psi, rho2)
    assert report.purity_criterion == pytest.approx(1007.2423958, abs=1e-6)
    assert abs(report.closed_form_criterion - report.purity_criterion) > 1e-10
    assert report.verdict is Verdict.NONPOSITIVE_WITNESSED


@pytest.mark.parametrize("seed,trial", [(0, 536277), (21, 0)])
def test_closed_form_off_by_1e8_relative_still_raises(monkeypatch, seed,
                                                      trial):
    rng = seeded_rng(seed, trial)
    psi = random_pure(2, rng)
    rho2 = random_density(2, 2, rng)
    closed_forms = witness._closed_forms
    monkeypatch.setattr(witness, "_closed_forms", lambda *args: [
        c * (1.0 + 1e-8) for c in closed_forms(*args)])
    with pytest.raises(AgreementError, match="purity criterion"):
        pure_mixed_test(psi, rho2)


def test_closed_form_and_eigen_route_disagreeing_on_nullity_raise():
    anti = anticommutator(np.diag([1.0, 0.0]), np.full((2, 2), 0.5))
    with pytest.raises(AgreementError,
                       match=r"disagree on nullity \(None vs 1\.5"):
        witness._analyze(anti[None], 1e-10, 1e-10, [None])


def test_closed_form_purity_null():
    report = pure_mixed_test(PSI0, make_density(np.diag([0.0, 1.0])))
    assert report.closed_form_criterion is None


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
        noncommuting = frobenius_norms(
            commutator(np.outer(psi, psi.conj()), rho2.matrix)[None])[0] > 1e-10
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
    assert frobenius_norms(commutator(rho.matrix, out.matrix)[None])[0] < 1e-12


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


def _serial_plan(lam, target, cap):
    """(n, achieved epsilon, degenerate) of the plan search for one
    spectrum, every exponent a Python int."""
    if len(lam) > 1 and lam[0] - lam[1] <= TOL_DEGEN * lam[0]:
        return 0, 1.0 - max(float(lam[0]), 0.0), True
    ratios = np.clip(lam, 0.0, None)[1:] / float(lam[0])

    def eps_at(n):
        s = float(np.sum(ratios ** n))
        return s / (1.0 + s)

    if eps_at(1) <= target:
        return 1, eps_at(1), False
    lo, hi = 1, 2
    while hi < cap and eps_at(hi) > target:
        lo, hi = hi, 2 * hi
    hi = min(hi, cap)
    if eps_at(hi) > target:
        return cap, eps_at(cap), True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eps_at(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi, eps_at(hi), False


def test_stacked_plans_and_amplification_match_each_state_alone():
    # one stack whose members plan toward targets that land on different
    # counts, n = 2 among them: an exponent array rounds x**2 differently
    # from the x*x that a Python int exponent gives
    rng = seeded_rng(17)
    states = [_nondegenerate(2 + k % 4, rng) for k in range(4 * 40)]
    counts = (1, 2, 3, 5, 37, 200)
    spectra = []
    for d in range(2, 6):
        members = states[d - 2::4]
        stack = StateStack.check(np.array([rho.matrix for rho in members]))
        lam = stack.spectrum.eigenvalues
        ns = [counts[k % len(counts)] for k in range(len(members))]
        targets = [_serial_plan(row, 0.0, n)[1] for row, n in zip(lam, ns)]
        targets[0] = 0.0  # misses its target at every cap up to 7
        spectra.append((lam, targets))
        amplified = witness._amplified(stack.spectrum, ns)
        for k, (row, n) in enumerate(zip(lam, ns)):
            w = np.clip(row, 0.0, None)
            w = (w / w[0]) ** n
            assert np.array_equal(amplified.spectrum.eigenvalues[k],
                                  w / w.sum())
    # 1-dimensional spectra reach any target at n = 1; a degenerate
    # member plans n = 0 beside a member that searches
    spectra.append((np.ones((3, 1)), [0.0, 0.1, 0.5]))
    spectra.append((np.array([[0.5, 0.5 - 1e-9, 1e-9], [0.6, 0.3, 0.1]]),
                    [0.1, 0.1]))
    exits = set()
    for cap in (10**30, PLAN_CAP, 7, 3, 2, 1):
        for lam, targets in spectra:
            plans = witness._plans(lam, targets, cap)
            for row, target, plan in zip(lam, targets, plans):
                got = (plan.n, plan.achieved_epsilon, plan.degenerate)
                assert [type(x) for x in got] == [int, float, bool]
                assert got == _serial_plan(row, target, cap)
                exits.add("degenerate" if plan.n == 0 else
                          "capped" if plan.degenerate else
                          "at n = 1" if plan.n == 1 else
                          "bisected" if plan.n & (plan.n - 1) else "doubled")
    assert exits == {"degenerate", "capped", "at n = 1", "bisected",
                     "doubled"}


def test_nested_core_stops_each_member_as_nested_witness_stops_it():
    # one stack in which members stop at every check, between members
    # that go through: each member gets what nested_witness gives or
    # raises for its pair alone
    rng = seeded_rng(29)
    u = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    leading_e2 = make_density(0.8 * np.diag([0.0, 1.0, 0.0])
                              + 0.2 * np.outer(u, u))
    pairs = [
        (_nondegenerate(3, rng), _nondegenerate(3, rng), 0.3),
        (make_density(np.diag([0.4, 0.4, 0.2])), _nondegenerate(3, rng), 0.3),
        (_nondegenerate(3, rng), _nondegenerate(3, rng), 0.25),
        (_nondegenerate(3, rng), make_density(np.diag([0.2, 0.4, 0.4])), 0.3),
        (make_density(np.diag([0.6, 0.3, 0.1])),
         make_density(np.diag([0.2, 0.5, 0.3])), 0.3),
        (_nondegenerate(3, rng), _nondegenerate(3, rng), 1e-6),  # caps at 4
        # only the second plan caps
        (make_density(np.diag([0.98, 0.015, 0.005])), _nondegenerate(3, rng),
         1e-6),
        (make_density(np.diag([0.8, 0.15, 0.05])), leading_e2, 0.3),
        (_nondegenerate(3, rng), _nondegenerate(3, rng), 0.35),
    ]
    stacks = [StateStack.check(np.array([pair[i].matrix for pair in pairs]))
              for i in (0, 1)]
    tols = dict(tol_comm=1e-10, tol_witness=1e-12, tol_null=1e-12,
                tol_f=1e-6, plan_cap=4)
    results = witness._nested(*stacks, [t for _, _, t in pairs], **tols)
    kinds = []
    for (rho1, rho2, target), got in zip(pairs, results):
        try:
            alone = nested_witness(rho1, rho2, target, **tols)
        except Exception as exc:
            assert (type(got), str(got)) == (type(exc), str(exc))
            kinds.append(type(exc).__name__)
            continue
        kinds.append("result")
        assert (got.plan1, got.plan2, got.overlap, got.condition_met) == \
            (alone.plan1, alone.plan2, alone.overlap, alone.condition_met)
        assert got.report.to_dict() == alone.report.to_dict()
        # the report is the witness of the states amplify gives
        assert witness_anticommutator(
            amplify(rho1, got.plan1.n), amplify(rho2, got.plan2.n),
            tol_witness=tols["tol_witness"],
            tol_null=tols["tol_null"]).to_dict() == got.report.to_dict()
    assert kinds == ["result", "DegenerateSpectrumError", "result",
                     "DegenerateSpectrumError", "CommutingInputsError",
                     "DegenerateSpectrumError", "DegenerateSpectrumError",
                     "ConditionUnreachableError", "result"]
    assert "second input capped out" in str(results[6])


def test_nested_core_on_a_stack_where_every_member_stops():
    # with no live member the anticommutator and its analysis run on
    # empty stacks; each member keeps the error nested_witness raises
    pairs = [(np.diag([0.6, 0.3, 0.1]), np.diag([0.2, 0.5, 0.3])),
             (np.diag([0.4, 0.4, 0.2]), np.diag([0.1, 0.2, 0.7])),
             (np.diag([0.5, 0.3, 0.2]), np.diag([0.1, 0.2, 0.7]))]
    stacks = [StateStack.check(np.array([pair[i] for pair in pairs]))
              for i in (0, 1)]
    tols = dict(tol_comm=1e-10, tol_witness=1e-12, tol_null=1e-12,
                tol_f=1e-6, plan_cap=PLAN_CAP)
    results = witness._nested(*stacks, [0.05] * 3, **tols)
    assert len(results) == 3
    for (m1, m2), got in zip(pairs, results):
        with pytest.raises(QwitnessError) as alone:
            nested_witness(make_density(m1), make_density(m2), 0.05, **tols)
        assert (type(got), str(got)) == (type(alone.value), str(alone.value))
    assert [type(got) for got in results] == [
        CommutingInputsError, DegenerateSpectrumError, CommutingInputsError]


# ------------------------------------------------- first-order condition

def test_overlap_data_and_condition():
    o = OverlapData(f=complex(np.sqrt(0.5)), g1=0.0, g2=0.0, eps1=0.0, eps2=0.0)
    assert nonpositivity_condition(o)
    assert first_order_purity(o) == pytest.approx(1.5, abs=1e-15)
    # an exact tie: lhs = rhs = 0.375, and the strict condition fails
    tie = OverlapData(f=0.5, g1=1.0, g2=0.0, eps1=0.375, eps2=0.0)
    assert margin_terms(tie) == (0.375, 0.375)
    assert nonpositivity_condition(tie) is False


def test_condition_boundary_guards():
    """The library guards raise what ``nested`` exits 13 with."""
    for guard, f in ((nonpositivity_condition, 0.0),
                     (first_order_purity, 1.0),
                     (nonpositivity_condition, 1.0 + 2.0**-52),
                     # both boundaries are inclusive
                     (nonpositivity_condition, TOL_F),
                     (nonpositivity_condition, 1.0 - TOL_F)):
        with pytest.raises(ConditionUnreachableError) as info:
            guard(OverlapData(f=f, g1=0, g2=0, eps1=0, eps2=0))
        assert str(info.value) == (
            f"leading-eigenvector overlap |f| = {f:.17g} sits at a boundary; "
            "the margin condition cannot certify this pair")


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
    # the amplified states are sharper than the inputs, and the report
    # is their witness
    rho1 = amplify(sigma1, result.plan1.n)
    rho2 = amplify(sigma2, result.plan2.n)
    assert rho1.spectrum.eigenvalues[0] > 0.7
    assert witness_anticommutator(rho1, rho2).to_dict() == \
        result.report.to_dict()


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
                             eta=make_density(np.outer(v, v.conj())))
    dec2 = PureDecomposition(epsilon=1e-3, psi=psi2,
                             eta=make_density(np.outer(w, w.conj())))
    report = orthogonal_case_analysis(dec1, dec2)
    assert report.g1 == pytest.approx(0.5, abs=1e-12)
    assert report.g2 == pytest.approx(0.5, abs=1e-12)
    assert report.var1 == pytest.approx(0.25, abs=1e-12)
    assert report.var2 == pytest.approx(0.25, abs=1e-12)
    assert report.ratio_bound == pytest.approx(
        (0.5 - np.sqrt(3 / 16)) / 0.25, abs=1e-12)
    assert not report.witnessable  # equal weights sit above the ratio bound
    # tipping the weights below the bound flips the indicator sign
    dec1_heavy = PureDecomposition(epsilon=1e-2, psi=psi1, eta=dec1.eta)
    dec2_light = PureDecomposition(epsilon=1e-3, psi=psi2, eta=dec2.eta)
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
            decs.append(PureDecomposition(epsilon=1e-3, psi=psi, eta=eta))
        report = orthogonal_case_analysis(decs[0], decs[1])
        if report.witnessable:
            anti = anticommutator(reconstruct_decomposition(decs[0]),
                                  reconstruct_decomposition(decs[1]))
            assert float(np.linalg.eigvalsh(anti).min()) < 0.0
            checked += 1
    assert checked >= 5


def test_orthogonal_pure_pair_is_not_witnessable():
    # a pure orthogonal pair has a vanishing anticommutator: indicator 0
    decs = [PureDecomposition(epsilon=0.0, psi=psi, eta=None)
            for psi in np.eye(3, dtype=complex)[:2]]
    report = orthogonal_case_analysis(*decs)
    assert report.indicator == 0.0
    assert report.witnessable is False


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
                    eta=make_density((m + m.conj().T) / 2)))
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
        epsilon=0.1, psi=psi, eta=make_density(np.eye(3) / 3))
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
        # unmixed, the direct check reads {P1/2, P2/2} itself
        p2 = r @ np.diag([0.0, 1.0, 1.0]) @ r.T
        report = degenerate_case_analysis(p1, 2, p2, 2, 0.0, 0.0)
        assert report.direct_min_eigenvalue == float(
            np.linalg.eigvalsh(anticommutator(p1 / 2, p2 / 2)).min())
    # a first projector of full rank is the state I/3 itself, with no
    # complement to mix in
    r = rotation_13(0.4)
    p2 = r @ np.diag([1.0, 1.0, 0.0]) @ r.T
    report = degenerate_case_analysis(np.eye(3), 3, p2, 2, 1e-3, 2e-3)
    assert report.bracket == pytest.approx(-4.0, abs=1e-12)
    assert report.verdict is DegenerateVerdict.NEGATIVE_INCONCLUSIVE
    mixed2 = (1.0 - 2e-3) * p2 / 2 + 2e-3 * (np.eye(3) - p2)
    assert report.direct_min_eigenvalue == float(
        np.linalg.eigvalsh(anticommutator(np.eye(3) / 3, mixed2)).min())


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
    with pytest.raises(ProjectorError, match="projector ranks must be positive"):
        degenerate_case_analysis(good, 0, good, 1, 0.1, 0.1)
    with pytest.raises(ProjectorError):
        degenerate_case_analysis(good * 0.5, 1, good, 1, 0.0, 0.0)
    with pytest.raises(ProjectorError):
        degenerate_case_analysis(good, 2, good, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        degenerate_case_analysis(good, 1, good, 1, 1.5, 0.0)
    with pytest.raises(DimensionError):
        degenerate_case_analysis(good, 1, np.diag([1.0, 0.0, 0.0]), 1, 0.0, 0.0)
    # idempotent and of trace 1, but not Hermitian; the states' rule
    # holds, an overflowing norm included
    skew = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(HermiticityError, match="second operator is not Hermitian"):
        degenerate_case_analysis(good, 1, skew, 1, 0.0, 0.0)
    huge = np.array([[0.5, 1e200], [-1e200, 0.5]])
    with pytest.raises(HermiticityError, match="first operator is not Hermitian"):
        degenerate_case_analysis(huge, 1, good, 1, 0.0, 0.0)


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
