"""Anticommutator spectra as witnesses of noncommutativity.

The central object is the anticommutator {rho1, rho2} of two states. A
negative eigenvalue of it certifies that the pair does not commute, a
fact that survives when one party holds only one of the states. This
module analyzes the spectrum, runs the closed-form purity shortcut for
pure-vs-mixed pairs, plans and applies purity amplification for
mixed-vs-mixed pairs. At a boundary overlap the margin condition cannot
certify a pair (ConditionUnreachableError); the orthogonal, parallel and
degenerate-leading-eigenvalue regimes have second-order analyses, which
no command runs yet.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import (
    AgreementError,
    CapacityError,
    CommutingInputsError,
    ConditionUnreachableError,
    DegenerateDenominatorError,
    DegenerateSpectrumError,
    DimensionError,
    PreconditionError,
    ProjectorError,
    QwitnessError,
)
from .linalg import (
    SpectralDecomposition,
    _adjoint,
    _eigh_descending,
    _hermitian_part,
    anticommutator,
    as_matrix,
    commutator,
    frobenius_norms,
)
from .states import (
    DensityOperator,
    PureDecomposition,
    StateStack,
    _projectors,
    _pure_decompositions,
    as_pure_state,
    reconstruct_decomposition,
)
from .tolerances import (
    EIGEN_DIM_CAP,
    PLAN_CAP,
    TOL_COMM,
    TOL_DEGEN,
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


class WitnessReport(NamedTuple):
    """Spectral analysis of one anticommutator.

    ``witness_vector`` is the eigenvector of the smallest eigenvalue
    (lowest index on ties, so reports are reproducible). The verdict
    follows the eigenvalue alone: NONPOSITIVE_WITNESSED exactly when
    ``min_eigenvalue < -tol``, NULL_ANTICOMMUTATOR when the whole
    operator vanishes. ``purity_criterion`` is tr[m^2] of the
    trace-normalized anticommutator and is None for a null operator;
    any value above 1 implies a negative eigenvalue (the converse may
    fail, so the eigenvalue is authoritative). ``closed_form_criterion``
    is the same criterion by the closed form over rho2's spectrum; only
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


def _analyze(anti: np.ndarray, tol_witness: float, tol_null: float,
             closed: list | None = None) -> list[WitnessReport]:
    """The report of each member of a stack (n, d, d) of anticommutators,
    which :func:`anticommutator` returns exactly Hermitian.

    ``closed``, when given, holds each member's closed-form purity
    criterion; it must agree with the eigen-analysis within 1e-10
    relative to the criterion (absolute below 1), and the report
    carries it. The criterion grows like 1/tr^2 as psi nears
    orthogonality to rho2's support, and its rounding with it.
    """
    d = anti.shape[-1]
    if d > EIGEN_DIM_CAP:
        raise CapacityError(
            f"dimension {d} exceeds eigensolver cap {EIGEN_DIM_CAP}")
    dec = _eigh_descending(anti)
    lows = np.argmin(dec.eigenvalues, axis=-1).tolist()
    traces = anti.trace(axis1=-2, axis2=-1).real.tolist()
    reports = []
    for k, (idx, tr, norm) in enumerate(zip(lows, traces,
                                            frobenius_norms(anti))):
        min_eig = float(dec.eigenvalues[k, idx])
        if norm <= tol_null:
            verdict = Verdict.NULL_ANTICOMMUTATOR
            criterion = None
        else:
            verdict = (Verdict.NONPOSITIVE_WITNESSED if min_eig < -tol_witness
                       else Verdict.POSITIVE)
            criterion = (float(np.vdot(anti[k], anti[k]).real / tr**2)
                         if abs(tr) > tol_null else None)
        other = None if closed is None else closed[k]
        if closed is not None and (other is None) != (criterion is None):
            raise AgreementError(
                "purity criterion: closed form and eigen-analysis disagree "
                f"on nullity ({other!r} vs {criterion!r})")
        if other is not None and criterion is not None:
            bound = 1e-10 * max(1.0, abs(criterion))
            if abs(other - criterion) > bound:
                raise AgreementError(
                    "purity criterion (closed form vs eigen-analysis): "
                    f"{other} vs {criterion} differ beyond {bound:.1e}")
        reports.append(WitnessReport(
            min_eigenvalue=min_eig,
            witness_vector=np.ascontiguousarray(dec.eigenvectors[k, :, idx]),
            purity_criterion=criterion,
            anticommutator_trace=tr,
            verdict=verdict,
            tol_witness=float(tol_witness),
            tol_null=float(tol_null),
            closed_form_criterion=other,
        ))
    return reports


def witness_anticommutator(rho1: DensityOperator, rho2: DensityOperator, *,
                           tol_witness: float = TOL_WITNESS,
                           tol_null: float = TOL_NULL) -> WitnessReport:
    """Analyze the spectrum of {rho1, rho2}."""
    anti = anticommutator(rho1.matrix, rho2.matrix)
    return _analyze(anti[None], tol_witness, tol_null)[0]


def _closed_forms(vecs: np.ndarray, dec: SpectralDecomposition,
                  tol_null: float) -> list[float | None]:
    """Purity of the normalized {|psi><psi|, rho2} from rho2's spectrum,
    for each row psi of a stack (n, d) of unit vectors against the
    matching member of a stack of spectra.

    With overlaps f_i between psi and rho2's eigenvectors, the purity is
    ((sum_i l_i |f_i|^2)^2 + sum_i l_i^2 |f_i|^2) / (2 (sum_i l_i |f_i|^2)^2).
    It is None when the anticommutator vanishes (psi orthogonal to
    rho2's support).
    """
    lam = dec.eigenvalues
    f2s = np.abs(_adjoint(dec.eigenvectors) @ vecs[:, :, None])[:, :, 0] ** 2
    out = []
    for lam_k, f2 in zip(lam, f2s):
        s = float(np.dot(lam_k, f2))
        if s <= tol_null:
            out.append(None)
            continue
        q = float(np.dot(lam_k**2, f2))
        out.append((s * s + q) / (2.0 * s * s))
    return out


def _pure_mixed_reports(vecs: np.ndarray, rho2: StateStack,
                        tol_witness: float, tol_null: float
                        ) -> list[WitnessReport]:
    """:func:`pure_mixed_test` of each row of a stack (n, d) of unit
    vectors against the matching member of ``rho2``."""
    closed = _closed_forms(vecs, rho2.spectrum, tol_null)
    return _analyze(anticommutator(_projectors(vecs), rho2.matrix),
                    tol_witness, tol_null, closed)


def pure_mixed_test(psi, rho2: DensityOperator, *,
                    tol_witness: float = TOL_WITNESS,
                    tol_null: float = TOL_NULL) -> WitnessReport:
    """Witness report for a pure state against an arbitrary state.

    The purity criterion is computed twice, by direct eigen-analysis
    and by the closed form over rho2's spectrum, and the two routes
    must agree within 1e-10 relative (absolute below 1). The report
    carries both.
    """
    vec = as_pure_state(psi)
    if vec.shape[0] != rho2.dim:
        raise DimensionError(
            f"dimension mismatch: {vec.shape[0]} vs {rho2.dim}")
    return _pure_mixed_reports(vec[None], StateStack.of(rho2),
                               tol_witness, tol_null)[0]


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


def _powers(ratios: np.ndarray, n: list[int]) -> np.ndarray:
    """ratios[k] ** n[k] for each row of a stack (m, d). Each distinct
    exponent is raised as a Python int, which takes numpy's scalar
    power paths, so that a row comes out as it does alone; an exponent
    array rounds some entries differently in the last bit."""
    exponents = set(n)
    n = np.array(n)
    out = np.empty_like(ratios)
    for e in exponents:
        rows = n == e
        out[rows] = ratios[rows] ** e
    return out


def _amplified(dec: SpectralDecomposition, n: list[int]) -> StateStack:
    """:func:`amplify` of each member of a stack of spectra by its own
    count n[k] >= 1, checked together."""
    lam = np.maximum(dec.eigenvalues, 0.0)
    w = _powers(lam / lam[:, :1], n)
    w = w / w.sum(axis=-1, keepdims=True)
    v = dec.eigenvectors
    return StateStack.check((v * w[:, None, :]) @ _adjoint(v),
                            SpectralDecomposition(w, v))


def amplify(rho: DensityOperator, n: int) -> DensityOperator:
    """rho^n / tr[rho^n], evaluated in the eigenbasis.

    Eigenvalues are rescaled by the leading one before powering, so
    iteration counts in the thousands neither overflow nor underflow
    the normalization.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"iteration count must be >= 1, got {n}")
    return _amplified(StateStack.of(rho).spectrum, [n]).state(0)


class AmplificationPlan(NamedTuple):
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


def _top_gaps(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_1 - lambda_2, degenerate) of each member of a stack (n, d)
    of descending spectra, where degenerate means a gap of at most
    TOL_DEGEN * lambda_1, too small for amplification to single out the
    leading eigenvector; a 1-dimensional state has gap lambda_1."""
    top = lam[:, 0]
    if lam.shape[-1] == 1:
        return top, np.zeros(len(lam), dtype=bool)
    gap = top - lam[:, 1]
    return gap, gap <= TOL_DEGEN * top


def _plans(lam: np.ndarray, targets: list[float], cap: int
           ) -> list[AmplificationPlan]:
    """:func:`plan_amplification` of each member of a stack (n, d) of
    descending spectra toward its own checked target.

    eps(n) = s / (1 + s), for s the sum of the tail ratios to the power
    n, is nonincreasing in n. Each nondegenerate member tries n = 1,
    then doubles n up to the cap until eps(n) reaches its target; a
    member that misses at the cap is capped, and any other bisects
    between the last count that missed and the first that reached.
    Each round evaluates the eps(n) of its members together.
    """
    _, degenerate = _top_gaps(lam)
    lam = np.maximum(lam, 0.0)
    ratios = lam[:, 1:] / lam[:, :1]
    target = np.array(targets)
    # a nondegenerate member reaches eps = 0 by n = 2**37 (its tail
    # ratios are below 1 - TOL_DEGEN), so no larger cap ever binds
    cap = min(cap, 2**40)
    lo = np.zeros(len(lam), dtype=np.int64)
    hi = np.ones(len(lam), dtype=np.int64)
    e = 1.0 - lam[:, 0]  # what a degenerate member achieves

    def eps(rows: np.ndarray, n: np.ndarray) -> np.ndarray:
        s = _powers(ratios[rows], n.tolist()).sum(axis=-1)
        return s / (1.0 + s)

    rows = np.flatnonzero(~degenerate)
    while len(rows):
        e[rows] = eps(rows, hi[rows])
        rows = rows[(e[rows] > target[rows]) & (hi[rows] < cap)]
        lo[rows], hi[rows] = hi[rows], np.minimum(2 * hi[rows], cap)
    capped = e > target
    rows = np.flatnonzero(~capped & (hi - lo > 1))
    while len(rows):
        mid = (lo[rows] + hi[rows]) // 2
        e_mid = eps(rows, mid)
        reached = e_mid <= target[rows]
        hi[rows[reached]], e[rows[reached]] = mid[reached], e_mid[reached]
        lo[rows[~reached]] = mid[~reached]
        rows = rows[hi[rows] - lo[rows] > 1]
    hi[degenerate] = 0
    return [AmplificationPlan(n=n, achieved_epsilon=a, requested_epsilon=t,
                              degenerate=dg)
            for n, a, t, dg in zip(hi.tolist(), e.tolist(), targets,
                                   (degenerate | capped).tolist())]


def plan_amplification(rho: DensityOperator, target_epsilon: float, *,
                       cap: int = PLAN_CAP) -> AmplificationPlan:
    """Plan the smallest n with 1 - lambda_max(amplify(rho, n)) <= target."""
    target = _check_plan_args(target_epsilon, cap)
    return _plans(rho.spectrum.eigenvalues[None], [target], cap)[0]


class OverlapData(NamedTuple):
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


def _guard_overlap(af: float, tol_f: float) -> float:
    """``af`` = |f|, unless it sits within ``tol_f`` of 0 or 1."""
    if af <= tol_f or af >= 1.0 - tol_f:
        raise ConditionUnreachableError(
            f"leading-eigenvector overlap |f| = {af:.17g} sits at a "
            "boundary; the margin condition cannot certify this pair")
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
    _guard_overlap(abs(o.f), tol_f)
    lhs, rhs = margin_terms(o)
    return lhs < rhs


def first_order_purity(o: OverlapData, *, tol_f: float = TOL_F) -> float:
    """Purity of the normalized anticommutator, to first order in eps.

    Equals (1 + |f|^2 + 2s) / (2 (|f|^2 + 2s)) with
    s = eps1*g1 + eps2*g2, and exceeds 1 exactly when
    :func:`nonpositivity_condition` holds.
    """
    af = _guard_overlap(abs(o.f), tol_f)
    s, _ = margin_terms(o)
    denom = 2.0 * (af * af + 2.0 * s)
    if denom <= TOL_NULL:
        raise DegenerateDenominatorError(
            f"first-order denominator {denom:.3e} vanishes")
    return (1.0 + af * af + 2.0 * s) / denom


def _leading_overlaps(sigma1: StateStack, sigma2: StateStack) -> list[float]:
    """:func:`leading_overlap` of each pair of members of two stacks."""
    return [abs(complex(np.vdot(v1[:, 0], v2[:, 0])))
            for v1, v2 in zip(sigma1.spectrum.eigenvectors,
                              sigma2.spectrum.eigenvectors)]


def leading_overlap(sigma1: DensityOperator, sigma2: DensityOperator) -> float:
    """|<psi1|psi2>| for the leading eigenvectors of two states."""
    return _leading_overlaps(StateStack.of(sigma1), StateStack.of(sigma2))[0]


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


class NestedWitnessResult(NamedTuple):
    report: WitnessReport
    plan1: AmplificationPlan
    plan2: AmplificationPlan
    overlap: OverlapData
    condition_met: bool


def _nested(sigma1: StateStack, sigma2: StateStack, targets: list, *,
            tol_comm: float, tol_witness: float, tol_null: float,
            tol_f: float, plan_cap: int
            ) -> list[NestedWitnessResult | QwitnessError]:
    """:func:`nested_witness` of each pair of members of two stacks, the
    k-th toward targets[k].

    Each check runs once over the whole stack, in nested_witness's
    order: degenerate input, commuting inputs, capped plan, boundary
    overlap. A member that fails one gets, in place of a result, the
    error of the first check it fails; only the members that pass them
    all are witnessed. Any other failed check raises.
    """
    checked = [_check_plan_args(target, plan_cap) for target in targets]
    out: list = [None] * len(targets)

    def stop(k: int, error: QwitnessError) -> None:
        if out[k] is None:
            out[k] = error

    pairs = (("first", sigma1), ("second", sigma2))
    for name, sigma in pairs:
        gap, degenerate = _top_gaps(sigma.spectrum.eigenvalues)
        for k in np.flatnonzero(degenerate).tolist():
            stop(k, DegenerateSpectrumError(
                f"{name} input has a degenerate leading eigenvalue "
                f"(gap {gap[k]:.3e})"))
    norms = frobenius_norms(commutator(sigma1.matrix, sigma2.matrix))
    for k, norm in enumerate(norms):
        if norm <= tol_comm:
            stop(k, CommutingInputsError(
                f"inputs commute (commutator norm {norm:.3e}); "
                "no witness is possible"))
    plans = [_plans(sigma.spectrum.eigenvalues, checked, plan_cap)
             for _, sigma in pairs]
    for (name, _), ps in zip(pairs, plans):
        for k, p in enumerate(ps):
            if p.degenerate:
                stop(k, DegenerateSpectrumError(
                    f"amplification plan for the {name} input capped out "
                    f"at n = {p.n} without reaching epsilon {targets[k]}"))
    amplified = [_amplified(sigma.spectrum, [p.n for p in ps])
                 for (_, sigma), ps in zip(pairs, plans)]
    overlaps = [overlap_data(dec1, dec2) for dec1, dec2 in zip(
        *(_pure_decompositions(rho.spectrum) for rho in amplified))]
    for k, o in enumerate(overlaps):
        try:
            _guard_overlap(abs(o.f), tol_f)
        except ConditionUnreachableError as exc:
            stop(k, exc)
    live = [k for k, result in enumerate(out) if result is None]
    anti = anticommutator(*(rho.matrix[live] for rho in amplified))
    reports = _analyze(anti, tol_witness, tol_null)
    for k, report in zip(live, reports):
        out[k] = NestedWitnessResult(
            report=report, plan1=plans[0][k], plan2=plans[1][k],
            overlap=overlaps[k],
            condition_met=nonpositivity_condition(overlaps[k], tol_f=tol_f))
    return out


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
    if sigma1.dim != sigma2.dim:
        raise DimensionError(
            f"dimension mismatch: {sigma1.dim} vs {sigma2.dim}")
    result, = _nested(StateStack.of(sigma1), StateStack.of(sigma2),
                      [target_epsilon], tol_comm=tol_comm,
                      tol_witness=tol_witness, tol_null=tol_null,
                      tol_f=tol_f, plan_cap=plan_cap)
    if isinstance(result, QwitnessError):
        raise result
    return result


def second_order_indicator(eps1: float, eps2: float, g1: float, g2: float,
                           var1: float, var2: float) -> float:
    """2 e1^2 v1 + 2 e2^2 v2 - 8 e1 e2 g1 g2.

    Second-order expansion of tr[m^2] - (tr m)^2 for the anticommutator
    of two nearly-pure states with orthogonal pure parts. Positive
    values certify a negative eigenvalue.
    """
    return (2.0 * eps1 * eps1 * var1 + 2.0 * eps2 * eps2 * var2
            - 8.0 * eps1 * eps2 * g1 * g2)


class OrthogonalCaseReport(NamedTuple):
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
    o = overlap_data(dec1, dec2)
    f = abs(o.f)
    if f > tol_f:
        raise PreconditionError(
            f"pure parts are not orthogonal: |f| = {f:.3e} exceeds {tol_f:.1e}"
        )

    def variance(dec_a: PureDecomposition, psi_b: np.ndarray, g: float) -> float:
        if dec_a.eta is None:
            return 0.0
        second = float(np.linalg.norm(dec_a.eta.matrix @ psi_b) ** 2)
        return max(second - g * g, 0.0)

    g1, g2 = o.g1, o.g2
    var1, var2 = variance(dec1, dec2.psi, g1), variance(dec2, dec1.psi, g2)
    indicator = second_order_indicator(o.eps1, o.eps2, g1, g2, var1, var2)
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
    f = abs(overlap_data(dec1, dec2).f)
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


class DegenerateCaseReport(NamedTuple):
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
    p = _hermitian_part(as_matrix(p), f"{which} operator")
    norm, defect = frobenius_norms(np.array([p, p @ p - p]))
    if defect > 1e-10 * max(norm, 1.0):
        raise ProjectorError(f"{which} operator is not idempotent")
    tr = float(p.trace().real)
    if abs(tr - rank) > 1e-8:
        raise ProjectorError(
            f"{which} operator has trace {tr:.17g}, expected rank {rank}"
        )
    return p


def degenerate_case_analysis(p1, d1: int, p2, d2: int,
                             eps1: float, eps2: float) -> DegenerateCaseReport:
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
    if bracket > TOL_PSD:
        verdict = DegenerateVerdict.POSITIVE_WITNESSABLE
        direct = None
    elif bracket < -TOL_PSD:
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
        if dim == rank:
            return base
        return (1.0 - eps) * base + eps * (eye - p) / (dim - rank)

    anti = anticommutator(build(p1, d1, eps1), build(p2, d2, eps2))
    return float(np.linalg.eigvalsh(anti).min())
