"""Conditional-state commutation as an operational discord probe.

Alice (side A) applies local operations and communicates the outcome;
Bob (side B) runs the anticommutator witness on the conditional states
he ends up holding. If those conditional states of B commute for every
operation on A, the state has zero discord for measurements on B: it
is classical on B, block diagonal in one basis of B (Dakić, Vedral &
Brukner, PRL 105, 190502 (2010)). A witnessed pair of noncommuting
conditionals therefore certifies discord for measurements on B from
single-system measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DimensionError,
    NullOutcomeError,
    PositivityError,
)
from .linalg import as_matrix, commutator, frobenius_norm
from .states import DensityOperator, pure_projector
from .tolerances import TOL_COMM, TOL_F, TOL_NULL, TOL_PSD, TOL_TRACE, TOL_WITNESS
from .witness import (
    WitnessReport,
    leading_overlap,
    nested_witness,
    safe_nested_target,
    witness_anticommutator,
)

__all__ = [
    "BipartiteState",
    "bell_state",
    "classical_quantum_state",
    "LocalOperation",
    "projector_operation",
    "measurement_from_unitary",
    "z_measurement",
    "x_measurement",
    "conditional_state",
    "select_outcome",
    "ConditionalEnsemble",
    "compare_conditionals",
    "witness_conditionals",
]


@dataclass(frozen=True)
class BipartiteState:
    """A validated state on a two-factor Hilbert space."""

    state: DensityOperator
    dims: tuple[int, int]

    def __post_init__(self):
        da, db = self.dims
        if da < 1 or db < 1 or da * db != self.state.dim:
            raise DimensionError(
                f"dims {da}x{db} do not factor dimension {self.state.dim}"
            )


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


@dataclass(frozen=True)
class LocalOperation:
    """One completely positive, trace-nonincreasing operation on side A,
    given by Kraus operators. Typically a single measurement outcome."""

    kraus_ops: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        if not self.kraus_ops:
            raise DimensionError("operation needs at least one Kraus operator")
        mats = tuple(as_matrix(k) for k in self.kraus_ops)
        if any(k.shape != mats[0].shape for k in mats):
            raise DimensionError("Kraus operators must share one dimension")
        total = sum(k.conj().T @ k for k in mats)
        top = float(np.linalg.eigvalsh((total + total.conj().T) / 2)[-1])
        if top > 1.0 + TOL_PSD:
            raise PositivityError(
                f"operation increases trace: max eigenvalue of sum K†K is "
                f"{top:.17g}"
            )
        object.__setattr__(self, "kraus_ops", mats)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def projector_operation(vec, label: str = "") -> LocalOperation:
    """Rank-one projective outcome onto ``vec``."""
    return LocalOperation(kraus_ops=(pure_projector(vec),), label=label)


def measurement_from_unitary(u, labels: Sequence[str] | None = None
                             ) -> dict[str, LocalOperation]:
    """Complete projective measurement along the columns of ``u``."""
    u = as_matrix(u)
    d = u.shape[0]
    if labels is None:
        labels = [str(i) for i in range(d)]
    if len(labels) != d:
        raise DimensionError(f"need {d} outcome labels, got {len(labels)}")
    return {
        str(lab): projector_operation(u[:, i], label=str(lab))
        for i, lab in enumerate(labels)
    }


def z_measurement() -> dict[str, LocalOperation]:
    return measurement_from_unitary(np.eye(2), labels=["0", "1"])


def x_measurement() -> dict[str, LocalOperation]:
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    return measurement_from_unitary(h, labels=["+", "-"])


def conditional_state(rho_ab: BipartiteState, op: LocalOperation
                      ) -> tuple[float, DensityOperator | None]:
    """Apply a local operation on A and trace A out.

    Returns (probability, normalized conditional state of B); the state
    is None when the outcome has zero probability. Each Kraus operator
    K adds sum_a K[a,i] rho[ib,jc] conj(K[a,j]) to the state of B.
    """
    da, db = rho_ab.dims
    if op.dim != da:
        raise DimensionError(
            f"operation dimension {op.dim} does not match side A ({da})")
    r = rho_ab.state.matrix.reshape(da, db, da, db)
    reduced = sum(np.einsum("ai,ibjc,aj->bc", k, r, k.conj())
                  for k in op.kraus_ops)
    prob = float(reduced.trace().real)
    if prob <= TOL_TRACE:
        return max(prob, 0.0), None
    return prob, DensityOperator(reduced / prob)


def select_outcome(rho_ab: BipartiteState,
                   measurement: Mapping[str, LocalOperation], outcome: str,
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


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Conditional states of B with their pairwise commutator norms.

    Only outcomes with nonzero probability enter; ``noncommuting_found``
    is set when any pairwise Frobenius norm exceeds the commutation
    tolerance.
    """

    states: tuple[tuple[float, DensityOperator], ...]
    pairwise_commutator_norms: np.ndarray
    noncommuting_found: bool


def compare_conditionals(conditionals: Sequence[tuple[float, DensityOperator | None]],
                         *, tol_comm: float = TOL_COMM) -> ConditionalEnsemble:
    """Pairwise commutators of (probability, state) pairs as returned
    by :func:`conditional_state`; null outcomes are dropped."""
    kept = tuple((prob, state) for prob, state in conditionals
                 if state is not None)
    n = len(kept)
    norms = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            norms[i, j] = norms[j, i] = frobenius_norm(
                commutator(kept[i][1].matrix, kept[j][1].matrix))
    return ConditionalEnsemble(states=kept,
                               pairwise_commutator_norms=norms,
                               noncommuting_found=bool((norms > tol_comm).any()))


def witness_conditionals(rho1: DensityOperator, rho2: DensityOperator, *,
                         tol_witness: float = TOL_WITNESS,
                         tol_null: float = TOL_NULL,
                         tol_comm: float = TOL_COMM) -> WitnessReport:
    """Anticommutator witness on two conditional states of B.

    Noncommuting states are amplified toward :func:`safe_nested_target`
    first. Commuting states (zero-discord inputs) get the direct
    spectral report, never NONPOSITIVE_WITNESSED; so do pairs with a
    leading-vector overlap at a boundary or a tied leading eigenvalue.
    """
    if frobenius_norm(commutator(rho1.matrix, rho2.matrix)) > tol_comm:
        f = leading_overlap(rho1, rho2)
        if TOL_F < f < 1.0 - TOL_F:
            try:
                return nested_witness(
                    rho1, rho2, safe_nested_target(f), tol_comm=tol_comm,
                    tol_witness=tol_witness, tol_null=tol_null).report
            except DegenerateSpectrumError:
                pass
    return witness_anticommutator(rho1, rho2, tol_witness=tol_witness,
                                  tol_null=tol_null)

