"""Anticommutator spectra as witnesses of noncommutativity.

The central object is the anticommutator {rho1, rho2} of two states. A
negative eigenvalue of it certifies that the pair does not commute, a
fact that survives when one party holds only one of the states. This
module analyzes the spectrum, runs the closed-form purity shortcut for
pure-vs-mixed pairs, plans and applies purity amplification for
mixed-vs-mixed pairs, and covers the boundary overlap regimes
(orthogonal, parallel, degenerate leading eigenvalue) with dedicated
second-order analyses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
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
from .linalg import (
    SpectralDecomposition,
    anticommutator,
    as_matrix,
    assert_agreement,
    commutator,
    frobenius_norm,
    hermitian_eigen,
    hermiticity_defect,
)
from .states import (
    DensityOperator,
    PureDecomposition,
    as_pure_state,
    pure_decompose,
    pure_projector,
    reconstruct_decomposition,
    top_gap,
)
from .tolerances import (
    PLAN_CAP,
    TOL_COMM,
    TOL_F,
    TOL_NULL,
    TOL_PSD,
    TOL_WITNESS,
)

__all__ = [
    "Verdict",
    "WitnessReport",
    "witness_anticommutator",
    "pure_mixed_test",
    "closed_form_purity",
    "qubit_bloch_condition",
    "amplify",
    "AmplificationPlan",
    "plan_amplification",
    "OverlapData",
    "overlap_data",
    "margin_terms",
    "nonpositivity_condition",
    "first_order_purity",
    "leading_overlap",
    "safe_nested_target",
    "NestedWitnessResult",
    "nested_witness",
    "second_order_indicator",
    "OrthogonalCaseReport",
    "orthogonal_case_analysis",
    "parallel_case_indicator",
    "DegenerateVerdict",
    "DegenerateCaseReport",
    "degenerate_case_analysis",
]


class Verdict(str, enum.Enum):
    NONPOSITIVE_WITNESSED = "NONPOSITIVE_WITNESSED"
    POSITIVE = "POSITIVE"
    NULL_ANTICOMMUTATOR = "NULL_ANTICOMMUTATOR"


@dataclass(frozen=True)
class WitnessReport:
    """Spectral analysis of one anticommutator.

    ``witness_vector`` is the eigenvector of the smallest eigenvalue
    (lowest index on ties, so reports are reproducible). The verdict
    follows the eigenvalue alone: NONPOSITIVE_WITNESSED exactly when
    ``min_eigenvalue < -tol``, NULL_ANTICOMMUTATOR when the whole
    operator vanishes. ``purity_criterion`` is tr[m^2] of the
    trace-normalized anticommutator and is None for a null operator;
    any value above 1 implies a negative eigenvalue (the converse may
    fail, so the eigenvalue is authoritative). ``closed_form_criterion``
    is the same criterion by :func:`closed_form_purity`; only
    :func:`pure_mixed_test` sets it, after checking the two agree.
    ``tol_witness`` and ``tol_null`` are the thresholds the verdict was
    judged with.
    """

    min_eigenvalue: float
    witness_vector: np.ndarray
    purity_criterion: float | None
    anticommutator_trace: float
    verdict: Verdict
    tol_witness: float
    tol_null: float
    closed_form_criterion: float | None = None

    def to_dict(self) -> dict:
        return {
            "min_eigenvalue": float(self.min_eigenvalue),
            "trace": float(self.anticommutator_trace),
            "purity_criterion": (
                None if self.purity_criterion is None else float(self.purity_criterion)
            ),
            "verdict": self.verdict.value,
            "witness_vector": [
                [float(z.real), float(z.imag)] for z in self.witness_vector
            ],
            "tolerances": {"witness": self.tol_witness, "null": self.tol_null},
        }


def _analyze(anti: np.ndarray, tol_witness: float, tol_null: float) -> WitnessReport:
    dec = hermitian_eigen(anti)
    idx = int(np.argmin(dec.eigenvalues))
    min_eig = float(dec.eigenvalues[idx])
    vec = np.ascontiguousarray(dec.eigenvectors[:, idx])
    tr = float(anti.trace().real)
    norm = frobenius_norm(anti)
    if norm <= tol_null:
        verdict = Verdict.NULL_ANTICOMMUTATOR
        criterion = None
    else:
        verdict = (Verdict.NONPOSITIVE_WITNESSED if min_eig < -tol_witness
                   else Verdict.POSITIVE)
        criterion = (float(np.vdot(anti, anti).real / tr**2)
                     if abs(tr) > tol_null else None)
    return WitnessReport(
        min_eigenvalue=min_eig,
        witness_vector=vec,
        purity_criterion=criterion,
        anticommutator_trace=tr,
        verdict=verdict,
        tol_witness=float(tol_witness),
        tol_null=float(tol_null),
    )


def witness_anticommutator(rho1: DensityOperator, rho2: DensityOperator, *,
                           tol_witness: float = TOL_WITNESS,
                           tol_null: float = TOL_NULL) -> WitnessReport:
    """Analyze the spectrum of {rho1, rho2}."""
    anti = anticommutator(rho1.matrix, rho2.matrix)
    return _analyze(anti, tol_witness, tol_null)


def closed_form_purity(psi, rho2: DensityOperator, *,
                       tol_null: float = TOL_NULL) -> float | None:
    """Purity of the normalized {|psi><psi|, rho2} from rho2's spectrum.

    With overlaps f_i between psi and rho2's eigenvectors, the purity is
    ((sum_i l_i |f_i|^2)^2 + sum_i l_i^2 |f_i|^2) / (2 (sum_i l_i |f_i|^2)^2).
    Returns None when the anticommutator vanishes (psi orthogonal to
    rho2's support).
    """
    vec = as_pure_state(psi)
    dec = rho2.spectrum
    lam = dec.eigenvalues
    f2 = np.abs(dec.eigenvectors.conj().T @ vec) ** 2
    s = float(np.dot(lam, f2))
    if s <= tol_null:
        return None
    q = float(np.dot(lam**2, f2))
    return (s * s + q) / (2.0 * s * s)


def pure_mixed_test(psi, rho2: DensityOperator, *,
                    tol_witness: float = TOL_WITNESS,
                    tol_null: float = TOL_NULL) -> WitnessReport:
    """Witness report for a pure state against an arbitrary state.

    The purity criterion is computed twice, by direct eigen-analysis
    and by the closed form over rho2's spectrum, and the two routes
    must agree within 1e-10. The report carries both.
    """
    vec = as_pure_state(psi)
    if vec.shape[0] != rho2.dim:
        raise DimensionError(
            f"dimension mismatch: psi has {vec.shape[0]}, state has {rho2.dim}"
        )
    report = _analyze(anticommutator(pure_projector(vec), rho2.matrix),
                      tol_witness, tol_null)
    closed = closed_form_purity(vec, rho2, tol_null=tol_null)
    if (closed is None) != (report.purity_criterion is None):
        raise AgreementError(
            "purity criterion: closed form and eigen-analysis disagree on "
            f"nullity ({closed!r} vs {report.purity_criterion!r})"
        )
    if closed is not None and report.purity_criterion is not None:
        assert_agreement(closed, report.purity_criterion, 1e-10,
                         "purity criterion (closed form vs eigen-analysis)")
    return replace(report, closed_form_criterion=closed)


def qubit_bloch_condition(b1, b2) -> bool:
    """|x|^2 + |x'|^2 <= 1 + (x . x')^2 for two qubit Bloch vectors.

    When it holds the anticommutator of the two states is positive
    semidefinite.
    """
    x = np.asarray(b1, dtype=np.float64).reshape(-1)
    y = np.asarray(b2, dtype=np.float64).reshape(-1)
    if x.shape != (3,) or y.shape != (3,):
        raise DimensionError("Bloch vectors need 3 components")
    return float(x @ x + y @ y) <= 1.0 + float(x @ y) ** 2


def amplify(rho: DensityOperator, n: int) -> DensityOperator:
    """rho^n / tr[rho^n], evaluated in the eigenbasis.

    Eigenvalues are rescaled by the leading one before powering, so
    iteration counts in the thousands neither overflow nor underflow
    the normalization.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"iteration count must be >= 1, got {n}")
    dec = rho.spectrum
    lam = np.clip(dec.eigenvalues, 0.0, None)
    ratios = lam / lam[0]
    w = ratios**n
    w = w / w.sum()
    v = dec.eigenvectors
    return DensityOperator((v * w) @ v.conj().T,
                           spectrum=SpectralDecomposition(w, v))


@dataclass(frozen=True)
class AmplificationPlan:
    """Smallest iteration count reaching a target mixedness.

    ``achieved_epsilon`` is ``1 - lambda_max`` after ``n`` iterations
    and is at most ``requested_epsilon`` unless ``degenerate`` is set.
    A degenerate plan means the leading eigenvalue is (nearly) tied,
    either flagged up front (n = 0) or discovered when the scan hits
    its cap.
    """

    n: int
    achieved_epsilon: float
    requested_epsilon: float
    degenerate: bool


def _check_plan_args(target_epsilon: float, cap: int) -> float:
    """The target as a float; rejects a target outside [0, 1) or a cap < 1."""
    target = float(target_epsilon)
    if not (0.0 <= target < 1.0):
        raise ValueError(f"target epsilon must lie in [0, 1), got {target}")
    if cap < 1:
        raise ValueError(f"plan cap must be >= 1, got {cap}")
    return target


def plan_amplification(rho: DensityOperator, target_epsilon: float, *,
                       cap: int = PLAN_CAP) -> AmplificationPlan:
    """Plan the smallest n with 1 - lambda_max(amplify(rho, n)) <= target."""
    target = _check_plan_args(target_epsilon, cap)
    lam = np.clip(rho.spectrum.eigenvalues, 0.0, None)
    top = float(lam[0])
    if top_gap(rho)[1]:
        return AmplificationPlan(n=0, achieved_epsilon=1.0 - top,
                                 requested_epsilon=target, degenerate=True)
    ratios = lam[1:] / top

    def eps_at(n: int) -> float:
        s = float(np.sum(ratios**n))
        return s / (1.0 + s)

    if eps_at(1) <= target:
        return AmplificationPlan(n=1, achieved_epsilon=eps_at(1),
                                 requested_epsilon=target, degenerate=False)
    # scan upward by doubling, then bisect; eps_at is nonincreasing in n
    lo = 1
    hi = 2
    while hi < cap and eps_at(hi) > target:
        lo = hi
        hi *= 2
    hi = min(hi, cap)
    if eps_at(hi) > target:
        return AmplificationPlan(n=cap, achieved_epsilon=eps_at(cap),
                                 requested_epsilon=target, degenerate=True)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eps_at(mid) <= target:
            hi = mid
        else:
            lo = mid
    return AmplificationPlan(n=hi, achieved_epsilon=eps_at(hi),
                             requested_epsilon=target, degenerate=False)


@dataclass(frozen=True)
class OverlapData:
    """Scalar data of a nearly-pure pair.

    ``f`` is the overlap of the two leading eigenvectors, ``g1`` the
    weight of psi2 in the first remainder, ``g2`` the weight of psi1 in
    the second remainder, and ``eps1``/``eps2`` the mixing weights.
    """

    f: complex
    g1: float
    g2: float
    eps1: float
    eps2: float


def overlap_data(dec1: PureDecomposition, dec2: PureDecomposition) -> OverlapData:
    f = complex(np.vdot(dec1.psi, dec2.psi))
    g1 = 0.0 if dec1.eta is None else float(
        np.vdot(dec2.psi, dec1.eta.matrix @ dec2.psi).real)
    g2 = 0.0 if dec2.eta is None else float(
        np.vdot(dec1.psi, dec2.eta.matrix @ dec1.psi).real)
    return OverlapData(f=f, g1=g1, g2=g2,
                       eps1=float(dec1.epsilon), eps2=float(dec2.epsilon))


def _guard_overlap(o: OverlapData, tol_f: float) -> float:
    af = abs(o.f)
    if af <= tol_f:
        raise BoundaryError(
            f"|f| = {af:.3e} is at the orthogonal boundary; "
            "use orthogonal_case_analysis"
        )
    if af >= 1.0 - tol_f:
        raise BoundaryError(
            f"|f| = {af:.17g} is at the parallel boundary; "
            "use parallel_case_indicator"
        )
    return af


def margin_terms(o: OverlapData) -> tuple[float, float]:
    """(eps1*g1 + eps2*g2, (1 - |f|^2)/2), the two sides of the margin
    condition."""
    af = abs(o.f)
    return o.eps1 * o.g1 + o.eps2 * o.g2, (1.0 - af * af) / 2.0


def nonpositivity_condition(o: OverlapData, *, tol_f: float = TOL_F) -> bool:
    """eps1*g1 + eps2*g2 < (1 - |f|^2)/2.

    When true, the anticommutator of the reconstructed pair is not
    positive semidefinite.
    """
    _guard_overlap(o, tol_f)
    lhs, rhs = margin_terms(o)
    return lhs < rhs


def first_order_purity(o: OverlapData, *, tol_f: float = TOL_F) -> float:
    """Purity of the normalized anticommutator, to first order in eps.

    Equals (1 + |f|^2 + 2s) / (2 (|f|^2 + 2s)) with
    s = eps1*g1 + eps2*g2, and exceeds 1 exactly when
    :func:`nonpositivity_condition` holds.
    """
    af = _guard_overlap(o, tol_f)
    s, _ = margin_terms(o)
    denom = 2.0 * (af * af + 2.0 * s)
    if denom <= TOL_NULL:
        raise DegenerateDenominatorError(
            f"first-order denominator {denom:.3e} vanishes")
    return (1.0 + af * af + 2.0 * s) / denom


def leading_overlap(sigma1: DensityOperator, sigma2: DensityOperator) -> float:
    """|<psi1|psi2>| for the leading eigenvectors of two states."""
    return abs(complex(np.vdot(sigma1.spectrum.eigenvectors[:, 0],
                               sigma2.spectrum.eigenvectors[:, 0])))


def safe_nested_target(f: float) -> float:
    """Amplification target that makes the margin condition sufficient.

    The first-order margin condition alone does not control the exact
    spectrum when the leading-vector overlap is small: the pure-pair
    anticommutator bottoms out at -|f|(1-|f|), and the mixing terms
    perturb eigenvalues by at most 2(eps1+eps2). Capping the target at
    |f|(1-|f|)/8 keeps the perturbation under half the pure-pair gap,
    so a met condition really forces a negative eigenvalue.
    """
    return min((1.0 - f * f) / 10.0, f * (1.0 - f) / 8.0)


@dataclass(frozen=True)
class NestedWitnessResult:
    report: WitnessReport
    plan1: AmplificationPlan
    plan2: AmplificationPlan
    state1: DensityOperator
    state2: DensityOperator
    overlap: OverlapData
    condition_met: bool


def nested_witness(sigma1: DensityOperator, sigma2: DensityOperator,
                   target_epsilon: float, *,
                   tol_comm: float = TOL_COMM,
                   tol_witness: float = TOL_WITNESS,
                   tol_null: float = TOL_NULL,
                   tol_f: float = TOL_F,
                   plan_cap: int = PLAN_CAP) -> NestedWitnessResult:
    """Amplify two mixed states and witness their anticommutator.

    Plans the iteration counts toward ``target_epsilon``, amplifies,
    extracts the overlap data, evaluates the margin condition, and
    reports the spectrum of the amplified anticommutator.

    The margin condition is first order in the mixing weights; it only
    guarantees a NONPOSITIVE_WITNESSED verdict when the target is small
    enough. A target at or below |f|(1-|f|)/8, with f the
    leading-vector overlap, keeps the residual mixing perturbation
    under half of the pure-pair gap |f|(1-|f|), which makes the
    guarantee rigorous (see :func:`safe_nested_target`). For
    looser targets the report stays honest: the condition flag and the
    spectral verdict are computed independently and may disagree.
    """
    _check_plan_args(target_epsilon, plan_cap)
    for name, sigma in (("first", sigma1), ("second", sigma2)):
        gap, degenerate = top_gap(sigma)
        if degenerate:
            raise DegenerateSpectrumError(
                f"{name} input has a degenerate leading eigenvalue "
                f"(gap {gap:.3e})"
            )
    comm_norm = frobenius_norm(commutator(sigma1.matrix, sigma2.matrix))
    if comm_norm <= tol_comm:
        raise CommutingInputsError(
            f"inputs commute (commutator norm {comm_norm:.3e}); "
            "no witness is possible"
        )
    plans = []
    for name, sigma in (("first", sigma1), ("second", sigma2)):
        plan = plan_amplification(sigma, target_epsilon, cap=plan_cap)
        if plan.degenerate:
            raise DegenerateSpectrumError(
                f"amplification plan for the {name} input capped out at "
                f"n = {plan.n} without reaching epsilon {target_epsilon}"
            )
        plans.append(plan)
    rho1 = amplify(sigma1, plans[0].n)
    rho2 = amplify(sigma2, plans[1].n)
    o = overlap_data(pure_decompose(rho1), pure_decompose(rho2))
    af = abs(o.f)
    if af <= tol_f or af >= 1.0 - tol_f:
        raise ConditionUnreachableError(
            f"leading-eigenvector overlap |f| = {af:.17g} sits at a boundary; "
            "the margin condition cannot certify this pair"
        )
    condition = nonpositivity_condition(o, tol_f=tol_f)
    report = witness_anticommutator(rho1, rho2, tol_witness=tol_witness,
                                    tol_null=tol_null)
    return NestedWitnessResult(report=report, plan1=plans[0], plan2=plans[1],
                               state1=rho1, state2=rho2, overlap=o,
                               condition_met=condition)


def second_order_indicator(eps1: float, eps2: float, g1: float, g2: float,
                           var1: float, var2: float) -> float:
    """2 e1^2 v1 + 2 e2^2 v2 - 8 e1 e2 g1 g2.

    Second-order expansion of tr[m^2] - (tr m)^2 for the anticommutator
    of two nearly-pure states with orthogonal pure parts. Positive
    values certify a negative eigenvalue.
    """
    return (2.0 * eps1 * eps1 * var1 + 2.0 * eps2 * eps2 * var2
            - 8.0 * eps1 * eps2 * g1 * g2)


@dataclass(frozen=True)
class OrthogonalCaseReport:
    indicator: float
    witnessable: bool
    ratio_bound: float | None
    g1: float
    g2: float
    var1: float
    var2: float


def orthogonal_case_analysis(dec1: PureDecomposition, dec2: PureDecomposition, *,
                             tol_f: float = TOL_F) -> OrthogonalCaseReport:
    """Second-order witnessability when the pure parts are orthogonal.

    The indicator is positive for every weight ratio when
    var1 * var2 > 4 g1^2 g2^2; otherwise the returned ratio bound is
    the largest admissible eps2/eps1 (None when the second variance
    vanishes).
    """
    f = abs(complex(np.vdot(dec1.psi, dec2.psi)))
    if f > tol_f:
        raise PreconditionError(
            f"pure parts are not orthogonal: |f| = {f:.3e} exceeds {tol_f:.1e}"
        )

    def moments(dec_a: PureDecomposition, psi_b: np.ndarray) -> tuple[float, float]:
        if dec_a.eta is None:
            return 0.0, 0.0
        m = dec_a.eta.matrix
        g = float(np.vdot(psi_b, m @ psi_b).real)
        second = float(np.linalg.norm(m @ psi_b) ** 2)
        return g, max(second - g * g, 0.0)

    g1, var1 = moments(dec1, dec2.psi)
    g2, var2 = moments(dec2, dec1.psi)
    indicator = second_order_indicator(dec1.epsilon, dec2.epsilon,
                                       g1, g2, var1, var2)
    disc = 4.0 * g1 * g1 * g2 * g2 - var1 * var2
    if disc >= 0.0 and var2 > TOL_NULL:
        ratio_bound = (2.0 * g1 * g2 - float(np.sqrt(disc))) / var2
    else:
        ratio_bound = None
    return OrthogonalCaseReport(indicator=indicator, witnessable=indicator > 0.0,
                                ratio_bound=ratio_bound,
                                g1=g1, g2=g2, var1=var1, var2=var2)


def parallel_case_indicator(dec1: PureDecomposition, dec2: PureDecomposition, *,
                            tol_f: float = TOL_F) -> float:
    """tr[m^2] - (tr m)^2 when the pure parts coincide up to phase.

    Both remainders must annihilate the common pure direction; the
    value is then never positive up to cubic corrections in the
    mixing weights, so this regime admits no purity witness.
    """
    f = abs(complex(np.vdot(dec1.psi, dec2.psi)))
    if f < 1.0 - tol_f:
        raise PreconditionError(
            f"pure parts are not parallel: |f| = {f:.17g} is below 1 - {tol_f:.1e}"
        )
    for name, dec_a, psi_b in (("first", dec1, dec2.psi),
                               ("second", dec2, dec1.psi)):
        if dec_a.eta is not None:
            leak = float(np.linalg.norm(dec_a.eta.matrix @ psi_b))
            if leak > tol_f:
                raise PreconditionError(
                    f"{name} remainder does not annihilate the pure direction "
                    f"(norm {leak:.3e})"
                )
    m = anticommutator(reconstruct_decomposition(dec1),
                       reconstruct_decomposition(dec2))
    tr = float(m.trace().real)
    return float(np.vdot(m, m).real) - tr * tr


class DegenerateVerdict(str, enum.Enum):
    POSITIVE_WITNESSABLE = "POSITIVE_WITNESSABLE"
    NEGATIVE_INCONCLUSIVE = "NEGATIVE_INCONCLUSIVE"
    UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class DegenerateCaseReport:
    """Leading-order purity analysis for degenerate leading eigenvalues.

    ``bracket`` is tr[(P1 P2)^2] + tr[P1 P2] - 2 (tr[P1 P2])^2. A
    positive bracket makes the purity test succeed at small mixing
    weights; a negative one is inconclusive, so the report then carries
    a direct minimum eigenvalue of the anticommutator at the given
    weights (the remainders are taken maximally mixed on the
    complements).
    """

    leading: float
    bracket: float
    verdict: DegenerateVerdict
    direct_min_eigenvalue: float | None


def _check_projector(p: np.ndarray, rank: int, which: str) -> np.ndarray:
    p = as_matrix(p)
    norm = max(frobenius_norm(p), 1.0)
    if hermiticity_defect(p) > 1e-10 * norm:
        raise ProjectorError(f"{which} operator is not Hermitian")
    if frobenius_norm(p @ p - p) > 1e-10 * norm:
        raise ProjectorError(f"{which} operator is not idempotent")
    tr = float(p.trace().real)
    if abs(tr - rank) > 1e-8:
        raise ProjectorError(
            f"{which} operator has trace {tr:.17g}, expected rank {rank}"
        )
    return p


def degenerate_case_analysis(p1, d1: int, p2, d2: int,
                             eps1: float, eps2: float, *,
                             tol: float = TOL_PSD) -> DegenerateCaseReport:
    """Witnessability when both leading eigenvalues are degenerate.

    The states are modeled as (1-eps_i) P_i / d_i + eps_i eta_i with
    rank-d_i projectors P_i.
    """
    d1 = int(d1)
    d2 = int(d2)
    if d1 < 1 or d2 < 1:
        raise ProjectorError("projector ranks must be positive")
    for eps in (eps1, eps2):
        if not (0.0 <= eps < 1.0):
            raise ValueError(f"mixing weight must lie in [0, 1), got {eps}")
    p1 = _check_projector(p1, d1, "first")
    p2 = _check_projector(p2, d2, "second")
    if p1.shape != p2.shape:
        raise DimensionError("projectors act on different spaces")
    prod = p1 @ p2
    tr_pq = float(prod.trace().real)
    tr_pq2 = float((prod @ prod).trace().real)
    bracket = tr_pq2 + tr_pq - 2.0 * tr_pq * tr_pq
    leading = 2.0 * (1.0 - 2.0 * eps1 - 2.0 * eps2) * bracket / (d1 * d1 * d2 * d2)
    if bracket > tol:
        verdict = DegenerateVerdict.POSITIVE_WITNESSABLE
        direct = None
    elif bracket < -tol:
        verdict = DegenerateVerdict.NEGATIVE_INCONCLUSIVE
        direct = _direct_degenerate_check(p1, d1, p2, d2, eps1, eps2)
    else:
        verdict = DegenerateVerdict.UNDETERMINED
        direct = None
    return DegenerateCaseReport(leading=leading, bracket=bracket,
                                verdict=verdict, direct_min_eigenvalue=direct)


def _direct_degenerate_check(p1: np.ndarray, d1: int, p2: np.ndarray, d2: int,
                             eps1: float, eps2: float) -> float:
    dim = p1.shape[0]
    eye = np.eye(dim, dtype=np.complex128)

    def build(p: np.ndarray, rank: int, eps: float) -> np.ndarray:
        base = p / rank
        if dim == rank or eps == 0.0:
            return base
        return (1.0 - eps) * base + eps * (eye - p) / (dim - rank)

    anti = anticommutator(build(p1, d1, eps1), build(p2, d2, eps2))
    return float(np.linalg.eigvalsh(anti).min())
