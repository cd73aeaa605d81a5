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
from typing import NamedTuple, Sequence

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
)
from .linalg import (
    SpectralDecomposition,
    _adjoint,
    _eigh_descending,
    _hermitian_part,
    _least_eigenvalues,
    _row_dots,
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
    _PureParts,
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
    """Spectral analysis of one anticommutator: the member of
    :class:`_Analysis`'s columns that a one-pair call returns (the
    stacked paths read the columns and build no report).

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


# the verdict texts, indexed by witnessed, or 2 for a null operator:
# each entry of a verdict column refers to one of these three strs
_VERDICT_TEXTS = np.array([Verdict.POSITIVE.value,
                           Verdict.NONPOSITIVE_WITNESSED.value,
                           Verdict.NULL_ANTICOMMUTATOR.value], dtype=object)


class _Analysis(Sequence):
    """The spectral analysis of each member of a stack (n, d, d) of
    anticommutators, which :func:`anticommutator` returns exactly
    Hermitian, as columns: :class:`WitnessReport`'s fields (``mins``,
    ``vectors``, ``criteria``, ``traces``, ``verdicts`` as text,
    ``closed``), one entry per member, with the tolerances shared, and
    ``witnessed``, whether a member's verdict is NONPOSITIVE_WITNESSED.
    Read as a sequence, it is the members' reports, each built when it
    is read.

    ``closed``, when given, holds each member's closed-form purity
    criterion; it must agree with the eigen-analysis within 1e-10
    relative to the criterion (absolute below 1). The analysis carries
    it, and each member's |closed - criterion| as ``deviations`` (0.0
    where both are None, and for every member without ``closed``). The
    criterion grows like 1/tr^2 as psi nears orthogonality to rho2's
    support, and its rounding with it.
    """

    def __init__(self, anti: np.ndarray, tol_witness: float,
                 tol_null: float, closed: list | None = None):
        n, d = anti.shape[:2]
        if d > EIGEN_DIM_CAP:
            raise CapacityError(
                f"dimension {d} exceeds eigensolver cap {EIGEN_DIM_CAP}")
        dec = _eigh_descending(anti)
        lows = np.argmin(dec.eigenvalues, axis=-1)
        self.mins = dec.eigenvalues.min(axis=-1)
        self.vectors = dec.eigenvectors[np.arange(n), :, lows]
        self.traces = anti.trace(axis1=-2, axis2=-1).real
        null = np.array(frobenius_norms(anti)) <= tol_null
        flat = anti.reshape(n, d * d)
        squares = _row_dots(flat.conj(), flat).real.tolist()
        criteria = [None if z or abs(tr) <= tol_null else sq / tr**2
                    for z, tr, sq in zip(null.tolist(), self.traces.tolist(),
                                         squares)]
        self.criteria = np.array(criteria)
        self.witnessed = ~null & (self.mins < -tol_witness)
        self.verdicts = _VERDICT_TEXTS[np.where(null, 2, self.witnessed)]
        self.closed, self.deviations = (
            (np.array([None] * n), np.zeros(n)) if closed is None
            else _agreed(closed, criteria))
        self.tol_witness, self.tol_null = float(tol_witness), float(tol_null)

    def __len__(self) -> int:
        return len(self.mins)

    def __getitem__(self, k: int) -> WitnessReport:
        """The report of member k."""
        return WitnessReport(
            min_eigenvalue=self.mins.item(k), witness_vector=self.vectors[k],
            purity_criterion=self.criteria.item(k),
            anticommutator_trace=self.traces.item(k),
            verdict=Verdict(self.verdicts.item(k)),
            tol_witness=self.tol_witness, tol_null=self.tol_null,
            closed_form_criterion=self.closed.item(k))


def _agreed(closed: list, criteria: list) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form criteria ``closed`` and their deviations from the
    eigen-analysis's ``criteria`` (None for a null operator) as columns,
    checked in one test over the stack: a member's two must agree on
    nullity, then within 1e-10 relative (absolute below 1). The first
    member that fails raises, with the message it raises alone."""
    other, mine = (np.array(c, dtype=np.float64) for c in (closed, criteria))
    bound = 1e-10 * np.maximum(1.0, np.abs(mine))
    gaps = np.abs(other - mine)
    # None reads as NaN: this flags every member that fails, and any
    # NaN criterion, which the loop lets through as a lone member does
    flagged = (np.isnan(other) != np.isnan(mine)) | (gaps > bound)
    for k in np.flatnonzero(flagged).tolist():
        a, c = closed[k], criteria[k]
        if (a is None) != (c is None):
            raise AgreementError(
                "purity criterion: closed form and eigen-analysis disagree "
                f"on nullity ({a!r} vs {c!r})")
        if a is not None and abs(a - c) > bound[k]:
            raise AgreementError(
                "purity criterion (closed form vs eigen-analysis): "
                f"{a} vs {c} differ beyond {bound[k]:.1e}")
    return np.array(closed), np.where(np.isnan(gaps), 0.0, gaps)


def _check_dims(d1: int, d2: int) -> None:
    """Rejects a pair of states of different dimensions."""
    if d1 != d2:
        raise DimensionError(f"dimension mismatch: {d1} vs {d2}")


def witness_anticommutator(rho1: DensityOperator, rho2: DensityOperator, *,
                           tol_witness: float = TOL_WITNESS,
                           tol_null: float = TOL_NULL) -> WitnessReport:
    """Analyze the spectrum of {rho1, rho2}."""
    anti = anticommutator(rho1.matrix, rho2.matrix)
    return _Analysis(anti[None], tol_witness, tol_null)[0]


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
    return [None if s <= tol_null else (s * s + q) / (2.0 * s * s)
            for s, q in zip(_row_dots(lam, f2s).tolist(),
                            _row_dots(lam**2, f2s).tolist())]


def _pure_mixed_analysis(vecs: np.ndarray, rho2: StateStack,
                         tol_witness: float, tol_null: float) -> _Analysis:
    """:func:`pure_mixed_test` of each row of a stack (n, d) of unit
    vectors against the matching member of ``rho2``, as columns."""
    closed = _closed_forms(vecs, rho2.spectrum, tol_null)
    return _Analysis(anticommutator(_projectors(vecs), rho2.matrix),
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
    _check_dims(vec.shape[0], rho2.dim)
    return _pure_mixed_analysis(vec[None], StateStack.of(rho2),
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
    return _bloch_conditions(np.stack([x, y]), [0], [1])[0]


def _bloch_conditions(vecs: np.ndarray, rows, cols) -> list[bool]:
    """:func:`qubit_bloch_condition` of the pairs (vecs[rows], vecs[cols])
    of a stack (n, 3) of Bloch vectors, with each x @ x taken once per
    vector, each product by :func:`_row_dots` and each square a Python
    float's, so that a pair comes out as it does alone."""
    sq = _row_dots(vecs, vecs)
    cross = _row_dots(vecs[rows], vecs[cols])
    return [s <= 1.0 + c ** 2 for s, c in zip((sq[rows] + sq[cols]).tolist(),
                                               cross.tolist())]


def _powers(ratios: np.ndarray, n) -> np.ndarray:
    """ratios[k] ** n[k] for each row of a stack (m, d) and counts n:
    the powers whose row sums give the eps(n) by which :func:`_plans`
    finds the smallest n <= cap with eps(n) <= target. One power takes
    the counts as float exponents, which runs numpy's power loop as a
    Python int exponent does, so that a row comes out as it does alone;
    numpy squares for a Python int 2, so the rows of n = 2 are squared."""
    n = np.asarray(n)
    out = ratios ** n[:, None].astype(np.float64)
    two = n == 2
    out[two] = np.square(ratios[two])
    return out


def _amplified(dec: SpectralDecomposition, n) -> StateStack:
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


def _plans(lam: np.ndarray, targets, cap: int) -> AmplificationPlan:
    """:func:`plan_amplification` of each member of a stack (n, d) of
    descending spectra toward its own checked target, as a plan whose
    fields are columns (:func:`_member` takes one plan out).

    eps(n) = s / (1 + s), for s the sum of the tail ratios to the power
    n (:func:`_powers`), is nonincreasing in n. A nondegenerate member
    plans the smallest n <= cap with eps(n) <= its target; a member
    with no such n is capped at n = cap. Each member bisects a bracket
    (lo, hi] of counts, where lo misses the target or is 0 and hi
    reaches it or is the cap; :func:`_brackets` sets it from the
    largest tail ratio, and one round checks both ends. A member whose
    ends fail the check bisects (0, cap]. Each round evaluates the
    eps(n) of its members together.
    """
    _, degenerate = _top_gaps(lam)
    lam = np.maximum(lam, 0.0)
    ratios = lam[:, 1:] / lam[:, :1]
    target = np.array(targets, dtype=np.float64)
    # a nondegenerate member reaches eps = 0 by n = 2**37 (its tail
    # ratios are below 1 - TOL_DEGEN), so no larger cap ever binds
    cap = min(cap, 2**40)
    lo = np.zeros(len(lam), dtype=np.int64)
    hi = np.ones(len(lam), dtype=np.int64)
    e = 1.0 - lam[:, 0]  # what a degenerate member achieves

    def eps(rows: np.ndarray, n: np.ndarray) -> np.ndarray:
        s = _powers(ratios[rows], n).sum(axis=-1)
        return s / (1.0 + s)

    rows = np.flatnonzero(~degenerate)
    lo[rows], hi[rows] = _brackets(ratios[rows], target[rows], cap)
    ends = np.concatenate([lo[rows], hi[rows]])
    e_lo, e[rows] = np.split(eps(np.tile(rows, 2), ends), 2)
    wide = rows[((lo[rows] > 0) & (e_lo <= target[rows]))
                | ((hi[rows] < cap) & (e[rows] > target[rows]))]
    if len(wide):
        lo[wide], hi[wide] = 0, cap
        e[wide] = eps(wide, hi[wide])
    capped = e > target
    rows = rows[~capped[rows] & (hi[rows] - lo[rows] > 1)]
    while len(rows):
        mid = (lo[rows] + hi[rows]) // 2
        e_mid = eps(rows, mid)
        reached = e_mid <= target[rows]
        hi[rows[reached]], e[rows[reached]] = mid[reached], e_mid[reached]
        lo[rows[~reached]] = mid[~reached]
        rows = rows[hi[rows] - lo[rows] > 1]
    hi[degenerate] = 0
    return AmplificationPlan(n=hi, achieved_epsilon=e, requested_epsilon=target,
                             degenerate=degenerate | capped)


def _brackets(ratios: np.ndarray, target: np.ndarray,
              cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The ends (lo, hi) of the bracket of each member's plan, for a
    stack (m, d) of tail ratios below 1 and their targets t.

    For the largest ratio r and the k nonzero ones, r**n <= s(n) <=
    k r**n, so the smallest n with s(n) <= T = t / (1 - t) lies between
    log T / log r and log(T / k) / log r. The bracket widens that by one
    count on each side, clipped to (0, cap]; where a log is not finite
    (a zero target) it is all of (0, cap]. :func:`_plans` checks both
    ends, which covers the rounding of the logs."""
    r = ratios[:, :1].max(axis=-1, initial=0.0)  # the ratios descend
    k = np.maximum(np.count_nonzero(ratios, axis=-1), 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t, log_r = np.log(target / (1.0 - target)), np.log(r)
        lo = np.floor(log_t / log_r) - 1.0
        hi = np.ceil((log_t - np.log(k)) / log_r) + 1.0
    finite = np.isfinite(lo) & np.isfinite(hi)
    hi = np.where(finite, np.clip(hi, 1.0, cap), cap)
    lo = np.where(finite, np.clip(lo, 0.0, hi - 1.0), 0.0)
    return lo.astype(np.int64), hi.astype(np.int64)


def plan_amplification(rho: DensityOperator, target_epsilon: float, *,
                       cap: int = PLAN_CAP) -> AmplificationPlan:
    """Plan the smallest n with 1 - lambda_max(amplify(rho, n)) <= target."""
    target = _check_plan_args(target_epsilon, cap)
    return _member(_plans(rho.spectrum.eigenvalues[None], [target], cap), 0)


def _member(columns: tuple, k: int) -> tuple:
    """Entry k of each array field of a named tuple of columns, as a
    Python value, in a tuple of the same type."""
    return type(columns)(*(column.item(k) for column in columns))


def _rows(columns: tuple, rows) -> tuple:
    """The entries ``rows`` of each array field of a named tuple of
    columns, in a tuple of the same type."""
    return type(columns)(*(column[rows] for column in columns))


def _halves(columns: tuple) -> list[tuple]:
    """The first and the second half of each field of a named tuple of
    columns over an even number of members."""
    m = len(columns[0]) // 2
    return [_rows(columns, slice(None, m)), _rows(columns, slice(m, None))]


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


def _overlaps(parts1: _PureParts, parts2: _PureParts) -> OverlapData:
    """:func:`overlap_data` of each pair of members of two stacks of pure
    decompositions, as overlap data whose fields are columns.

    Each dot product of a member is a row of :func:`_row_dots`, so that
    it has the bits of ``np.vdot`` of the member alone, and each
    remainder meets its vector in one stacked matmul, which numpy
    evaluates as the member's own mat-vec."""
    f = _row_dots(parts1.psi.conj(), parts2.psi)
    return OverlapData(f=f, g1=_weights(parts1, parts2.psi),
                       g2=_weights(parts2, parts1.psi),
                       eps1=parts1.epsilon, eps2=parts2.epsilon)


def _weights(parts: _PureParts, psi: np.ndarray) -> np.ndarray:
    """<psi|eta|psi> of each member's remainder eta and the matching row
    of a stack (n, d) of vectors; 0.0 for a member without one."""
    g = np.zeros(len(psi))
    v = psi[parts.mixed]
    if len(v):
        eta_v = (parts.eta.matrix @ v[:, :, None])[:, :, 0]
        g[parts.mixed] = _row_dots(v.conj(), eta_v).real
    return g


def _split_parts(parts: _PureParts) -> list[_PureParts]:
    """The pure decompositions of the first and the second half of a
    stack of an even number of members; a half's remainders are those
    of its mixed members."""
    m = len(parts.mixed) // 2
    c = np.count_nonzero(parts.mixed[:m])
    return [_PureParts(parts.epsilon[rows], parts.psi[rows],
                       parts.eta.take(mixed), parts.mixed[rows])
            for rows, mixed in ((slice(None, m), slice(None, c)),
                                (slice(m, None), slice(c, None)))]


def _stack_of_one(dec: PureDecomposition) -> _PureParts:
    """A pure decomposition as a stack of one."""
    mixed = dec.eta is not None
    return _PureParts(np.array([dec.epsilon], dtype=np.float64),
                      np.asarray(dec.psi, dtype=np.complex128)[None],
                      StateStack.of(dec.eta) if mixed else None,
                      np.array([mixed]))


def overlap_data(dec1: PureDecomposition, dec2: PureDecomposition) -> OverlapData:
    """The overlap data of a pair: :func:`_overlaps` of a stack of one."""
    return _member(_overlaps(_stack_of_one(dec1), _stack_of_one(dec2)), 0)


def _unreachable(af: float) -> ConditionUnreachableError:
    """The error of a pair whose overlap |f| = ``af`` sits at a boundary."""
    return ConditionUnreachableError(
        f"leading-eigenvector overlap |f| = {af:.17g} sits at a "
        "boundary; the margin condition cannot certify this pair")


def _at_boundary(af, tol_f: float):
    """Whether |f| = ``af`` sits within ``tol_f`` of 0 or 1: of one
    overlap, or of each entry of a column of them."""
    return (af <= tol_f) | (af >= 1.0 - tol_f)


def _guard_overlap(af: float, tol_f: float) -> float:
    """``af`` = |f|, unless it sits within ``tol_f`` of 0 or 1."""
    if _at_boundary(af, tol_f):
        raise _unreachable(af)
    return af


def _margins(af, o: OverlapData) -> tuple:
    """(eps1*g1 + eps2*g2, (1 - |f|^2)/2), the two sides of the margin
    condition, with ``af`` = |f|: of one pair, or, of overlap data whose
    fields are columns, of each pair, entry by entry in the same IEEE
    operations."""
    return o.eps1 * o.g1 + o.eps2 * o.g2, (1.0 - af * af) / 2.0


def margin_terms(o: OverlapData) -> tuple[float, float]:
    """(eps1*g1 + eps2*g2, (1 - |f|^2)/2), the two sides of the margin
    condition."""
    return _margins(abs(o.f), o)


def nonpositivity_condition(o: OverlapData, *, tol_f: float = TOL_F) -> bool:
    """eps1*g1 + eps2*g2 < (1 - |f|^2)/2.

    When true, the anticommutator of the reconstructed pair is not
    positive semidefinite.
    """
    lhs, rhs = _margins(_guard_overlap(abs(o.f), tol_f), o)
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
    v1, v2 = (sigma.spectrum.eigenvectors[:, :, 0] for sigma in (sigma1, sigma2))
    return list(map(abs, _row_dots(v1.conj(), v2).tolist()))


def leading_overlap(sigma1: DensityOperator, sigma2: DensityOperator) -> float:
    """|<psi1|psi2>| for the leading eigenvectors of two states."""
    _check_dims(sigma1.dim, sigma2.dim)
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


class _NestedColumns(NamedTuple):
    """:func:`_nested_columns`'s outcome over a stack of pairs.

    ``errors`` holds each member's stop error, or None for a member that
    passes every check. Those members are ``live``, in order; the other
    fields hold one entry per live member: the two plans and the overlap
    data (named tuples whose fields are columns), its modulus ``af`` =
    |f|, the margin ``condition`` and the amplified anticommutator
    ``anti``, which the caller analyzes (:class:`_Analysis`).
    """

    errors: list
    live: np.ndarray
    plans: list[AmplificationPlan]
    overlap: OverlapData
    af: np.ndarray
    condition: np.ndarray
    anti: np.ndarray


def _nested_columns(sigma1: StateStack, sigma2: StateStack, targets: list, *,
                    tol_comm: float, tol_f: float,
                    plan_cap: int) -> _NestedColumns:
    """:func:`nested_witness` of each pair of members of two stacks, the
    k-th toward targets[k], as columns.

    Each check runs once over the members still live, in nested_witness's
    order: degenerate input, commuting inputs, capped plan, boundary
    overlap. A member that fails one stops with the error of the first
    check it fails, and no later stage computes anything for it: the
    plans, amplification, decompositions and overlaps run on the members
    still live before them, and only the members that pass every check
    reach the anticommutator. The plans, amplification and
    decompositions take the two inputs of those members as one stack,
    first inputs first, and split it back into halves. Any other failed
    check raises.
    """
    checked = np.array([_check_plan_args(t, plan_cap) for t in targets],
                       dtype=np.float64)
    errors: list = [None] * len(targets)
    live = np.arange(len(targets))

    def stop(failed: np.ndarray, error) -> np.ndarray:
        """Gives live member j, where ``failed`` holds, error(j) unless
        an earlier check stopped it; returns ``failed``."""
        for j in np.flatnonzero(failed).tolist():
            if errors[live[j]] is None:
                errors[live[j]] = error(j)
        return failed

    names = ("first", "second")
    failed = np.zeros(len(live), dtype=bool)
    for name, sigma in zip(names, (sigma1, sigma2)):
        gap, degenerate = _top_gaps(sigma.spectrum.eigenvalues)
        failed |= stop(degenerate, lambda j: DegenerateSpectrumError(
            f"{name} input has a degenerate leading eigenvalue "
            f"(gap {gap[j]:.3e})"))
    norms = frobenius_norms(commutator(sigma1.matrix, sigma2.matrix))
    failed |= stop(np.array(norms) <= tol_comm, lambda j: CommutingInputsError(
        f"inputs commute (commutator norm {norms[j]:.3e}); "
        "no witness is possible"))
    live = live[~failed]
    # the two inputs of the live members as one stack, first inputs first
    both = SpectralDecomposition(*(
        np.concatenate([column1[live], column2[live]])
        for column1, column2 in zip(sigma1.spectrum, sigma2.spectrum)))
    plan = _plans(both.eigenvalues, np.tile(checked[live], 2), plan_cap)
    failed = np.zeros(len(live), dtype=bool)
    for name, half in zip(names, _halves(plan)):
        failed |= stop(half.degenerate, lambda j: DegenerateSpectrumError(
            f"amplification plan for the {name} input capped out "
            f"at n = {half.n[j]} without reaching epsilon {targets[live[j]]}"))
    live, kept = live[~failed], np.tile(~failed, 2)
    plan = _rows(plan, kept)
    amplified = _amplified(_rows(both, kept), plan.n)
    overlap = _overlaps(*_split_parts(_pure_decompositions(amplified.spectrum)))
    af = np.array(list(map(abs, overlap.f.tolist())))
    failed = stop(_at_boundary(af, tol_f), lambda j: _unreachable(af[j]))
    live, keep = live[~failed], ~failed
    overlap, af = _rows(overlap, keep), af[keep]
    lhs, rhs = _margins(af, overlap)
    first, second = np.split(amplified.matrix, 2)
    return _NestedColumns(errors, live,
                          [_rows(half, keep) for half in _halves(plan)],
                          overlap, af, lhs < rhs,
                          anticommutator(first[keep], second[keep]))


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
    _check_dims(sigma1.dim, sigma2.dim)
    out = _nested_columns(StateStack.of(sigma1), StateStack.of(sigma2),
                          [target_epsilon], tol_comm=tol_comm, tol_f=tol_f,
                          plan_cap=plan_cap)
    # analyzed before a stop error raises, so that a dimension past the
    # eigensolver cap raises CapacityError whatever the pair
    analysis = _Analysis(out.anti, tol_witness, tol_null)
    error, = out.errors
    if error is not None:
        raise error
    return NestedWitnessResult(
        report=analysis[0], plan1=_member(out.plans[0], 0),
        plan2=_member(out.plans[1], 0), overlap=_member(out.overlap, 0),
        condition_met=out.condition.item(0))


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
    return float(_least_eigenvalues(anti))
