"""Conditional-state commutation as an operational discord probe.

Alice (side A) measures in an orthonormal basis and communicates the
outcome; Bob (side B) runs the anticommutator witness on the
conditional states he ends up holding. If those conditional states of
B commute for every projective measurement on A, the state has zero
discord for measurements on B: it is classical on B, block diagonal in
one basis of B (Dakić, Vedral & Brukner, PRL 105, 190502 (2010)). A
witnessed pair of noncommuting conditionals therefore certifies discord
for measurements on B from single-system measurements.

A measurement is a dict mapping each outcome label to the rank-one
projector onto one basis vector, as :func:`measurement_from_unitary`
builds it from the columns of a unitary.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (CommutingInputsError, ConditionUnreachableError,
                     DegenerateSpectrumError, DimensionError,
                     NullOutcomeError, PositivityError)
from .linalg import as_matrix, commutator, frobenius_norms
from .states import DensityOperator, pure_projector
from .tolerances import TOL_COMM, TOL_F, TOL_NULL, TOL_PSD, TOL_TRACE, TOL_WITNESS
from .witness import (
    WitnessReport,
    _guard_overlap,
    leading_overlap,
    nested_witness,
    safe_nested_target,
    witness_anticommutator,
)

__all__ = [
    "BipartiteState",
    "bell_state",
    "classical_quantum_state",
    "measurement_from_unitary",
    "z_measurement",
    "x_measurement",
    "conditional_state",
    "select_outcome",
    "compare_conditionals",
    "witness_conditionals",
]


class _Bipartite(NamedTuple):
    state: DensityOperator
    dims: tuple[int, int]


class BipartiteState(_Bipartite):
    """A validated state on a two-factor Hilbert space."""

    __slots__ = ()

    def __new__(cls, state: DensityOperator, dims: tuple[int, int]):
        da, db = dims
        if da < 1 or db < 1 or da * db != state.dim:
            raise DimensionError(
                f"dims {da}x{db} do not factor dimension {state.dim}"
            )
        return super().__new__(cls, state, dims)


def bell_state() -> BipartiteState:
    """The two-qubit state (|00> + |11>) / sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return BipartiteState(state=DensityOperator(np.outer(v, v.conj())),
                          dims=(2, 2))


def classical_quantum_state(probs: Sequence[float],
                            bob_states: Sequence[DensityOperator]) -> BipartiteState:
    """sum_i p_i |i><i| x rho_i over an orthonormal pointer basis."""
    if len(probs) != len(bob_states) or len(probs) == 0:
        raise DimensionError("need matching, nonempty probabilities and states")
    p = np.asarray(probs, dtype=np.float64)
    if p.min() < -TOL_PSD or abs(p.sum() - 1.0) > TOL_TRACE:
        raise PositivityError("probabilities must be nonnegative and sum to 1")
    db = bob_states[0].dim
    da = len(probs)
    m = np.zeros((da * db, da * db), dtype=np.complex128)
    for i, (pi, rho) in enumerate(zip(p, bob_states)):
        if rho.dim != db:
            raise DimensionError("conditional states must share one dimension")
        m[i * db:(i + 1) * db, i * db:(i + 1) * db] = pi * rho.matrix
    return BipartiteState(state=DensityOperator(m), dims=(da, db))


def measurement_from_unitary(u, labels: Sequence[str] | None = None
                             ) -> dict[str, np.ndarray]:
    """Projective measurement along the columns of the unitary ``u``:
    the rank-one projector onto each column, by outcome label."""
    u = as_matrix(u)
    d = u.shape[0]
    if labels is None:
        labels = [str(i) for i in range(d)]
    if len(labels) != d:
        raise DimensionError(f"need {d} outcome labels, got {len(labels)}")
    return {
        str(lab): pure_projector(u[:, i]) for i, lab in enumerate(labels)
    }


def z_measurement() -> dict[str, np.ndarray]:
    return measurement_from_unitary(np.eye(2), labels=["0", "1"])


def x_measurement() -> dict[str, np.ndarray]:
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    return measurement_from_unitary(h, labels=["+", "-"])


def conditional_state(rho_ab: BipartiteState, projector: np.ndarray
                      ) -> tuple[float, DensityOperator | None]:
    """Project A onto one measurement outcome and trace A out.

    Returns (probability, normalized conditional state of B); the state
    is None when the outcome has zero probability. The projector P
    leaves sum_a P[a,i] rho[ib,jc] conj(P[a,j]) to the state of B.
    """
    da, db = rho_ab.dims
    if projector.shape[0] != da:
        raise DimensionError(f"projector dimension {projector.shape[0]} "
                             f"does not match side A ({da})")
    r = rho_ab.state.matrix.reshape(da, db, da, db)
    reduced = np.einsum("ai,ibjc,aj->bc", projector, r, projector.conj())
    prob = float(reduced.trace().real)
    if prob <= TOL_TRACE:
        return max(prob, 0.0), None
    return prob, DensityOperator(reduced / prob)


def select_outcome(rho_ab: BipartiteState,
                   measurement: Mapping[str, np.ndarray], outcome: str,
                   which: str) -> tuple[float, DensityOperator]:
    """(probability, conditional state) of one named outcome. Raises
    KeyError for an unknown outcome and NullOutcomeError for one of zero
    probability; ``which`` names the measurement in messages."""
    if outcome not in measurement:
        raise KeyError(
            f"unknown outcome {outcome!r} for the {which} measurement; "
            f"have {sorted(measurement)}"
        )
    prob, state = conditional_state(rho_ab, measurement[outcome])
    if state is None:
        raise NullOutcomeError(
            f"the {which} selected outcome {outcome!r} has probability "
            f"{prob:.3e}"
        )
    return prob, state


def compare_conditionals(conditionals: Sequence[tuple[float, DensityOperator | None]]
                         ) -> bool:
    """Whether some pair of the (probability, state) pairs, as returned
    by :func:`conditional_state`, has a commutator whose Frobenius norm
    exceeds the commutation tolerance; null outcomes are dropped."""
    kept = [state.matrix for _, state in conditionals if state is not None]
    if not kept:  # with no state there is no stack shape
        return False
    m = np.array(kept)
    i, j = np.triu_indices(len(kept), 1)
    return any(norm > TOL_COMM
               for norm in frobenius_norms(commutator(m[i], m[j])))


def witness_conditionals(rho1: DensityOperator, rho2: DensityOperator, *,
                         tol_witness: float = TOL_WITNESS,
                         tol_null: float = TOL_NULL,
                         tol_comm: float = TOL_COMM) -> WitnessReport:
    """Anticommutator witness on two conditional states of B.

    The pair is checked at the overlap boundary, beyond which
    :func:`safe_nested_target` is negative, then amplified toward that
    target by :func:`nested_witness`. Pairs at the boundary and pairs it
    declines (commuting zero-discord states, a tied leading eigenvalue)
    get the direct spectral report, never NONPOSITIVE_WITNESSED for
    commuting states.
    """
    f = leading_overlap(rho1, rho2)
    try:
        _guard_overlap(f, TOL_F)
        return nested_witness(
            rho1, rho2, safe_nested_target(f), tol_comm=tol_comm,
            tol_witness=tol_witness, tol_null=tol_null).report
    except (ConditionUnreachableError, CommutingInputsError,
            DegenerateSpectrumError):
        return witness_anticommutator(rho1, rho2, tol_witness=tol_witness,
                                      tol_null=tol_null)

