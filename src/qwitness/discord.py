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

from .errors import DimensionError, NullOutcomeError, PositivityError
from .linalg import anticommutator, as_matrix, commutator, frobenius_norms
from .states import DensityOperator, StateStack, pure_projector
from .tolerances import (PLAN_CAP, TOL_COMM, TOL_F, TOL_NULL, TOL_PSD,
                         TOL_TRACE, TOL_WITNESS)
from .witness import (
    WitnessReport,
    _Analysis,
    _at_boundary,
    _check_dims,
    _leading_overlaps,
    _nested_columns,
    safe_nested_target,
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
    m = _classical_quantum(np.asarray(probs, dtype=np.float64)[None],
                           [rho.matrix[None] for rho in bob_states])
    return BipartiteState(state=DensityOperator(m[0]),
                          dims=(len(probs), bob_states[0].dim))


def _classical_quantum(p: np.ndarray, bob: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`classical_quantum_state`'s matrix of each row of a stack
    (n, dA) of probabilities, with bob[i] the stack (n, dB, dB) of the
    i-th states of B. The probabilities are checked, the sum is not yet
    checked as a state."""
    if p.min() < -TOL_PSD or (abs(p.sum(axis=-1) - 1.0) > TOL_TRACE).any():
        raise PositivityError("probabilities must be nonnegative and sum to 1")
    db = bob[0].shape[-1]
    m = np.zeros((len(p), len(bob) * db, len(bob) * db), dtype=np.complex128)
    for i, rho in enumerate(bob):
        if rho.shape[-1] != db:
            raise DimensionError("conditional states must share one dimension")
        m[:, i * db:(i + 1) * db, i * db:(i + 1) * db] = p[:, i, None, None] * rho
    return m


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
    probs, possible, states = _conditional_states(
        rho_ab.state.matrix[None], rho_ab.dims, projector[None])
    return float(probs[0]), states.state(0) if possible[0] else None


def _conditional_states(rho: np.ndarray, dims: tuple[int, int],
                        projectors: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, StateStack]:
    """:func:`conditional_state` of each member of a stack (n, dA dB,
    dA dB) of states under the matching member of a stack (n, dA, dA)
    of projectors on A.

    Returns the probabilities (negative ones raised to 0), whether
    each outcome is possible (probability above TOL_TRACE), and the
    checked conditional states of the possible outcomes, in order.
    """
    da, db = dims
    if projectors.shape[1] != da:
        raise DimensionError(f"projector dimension {projectors.shape[1]} "
                             f"does not match side A ({da})")
    r = rho.reshape(len(rho), da, db, da, db)
    reduced = np.einsum("nai,nibjc,naj->nbc", projectors, r, projectors.conj())
    probs = reduced.trace(axis1=-2, axis2=-1).real
    possible = ~(probs <= TOL_TRACE)  # a NaN probability fails the check
    states = StateStack.check(reduced[possible] / probs[possible, None, None])
    return np.where(probs < 0.0, 0.0, probs), possible, states


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
    return bool(_noncommuting(np.array(kept)[None],
                              np.ones((1, len(kept)), dtype=bool))[0])


def _noncommuting(states: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """:func:`compare_conditionals` of each row of a stack (n, k, d, d)
    of states, with ``kept`` (n, k) marking the states of possible
    outcomes: pairs with a dropped state are not compared."""
    n, k, d, _ = states.shape
    i, j = np.triu_indices(k, 1)
    norms = frobenius_norms(commutator(states[:, i].reshape(-1, d, d),
                                       states[:, j].reshape(-1, d, d)))
    found = np.reshape(norms, (n, len(i))) > TOL_COMM
    return (found & kept[:, i] & kept[:, j]).any(axis=1)


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
    _check_dims(rho1.dim, rho2.dim)
    return _witness_conditionals(
        StateStack.of(rho1), StateStack.of(rho2), tol_witness=tol_witness,
        tol_null=tol_null, tol_comm=tol_comm)[0]


def _witness_conditionals(first: StateStack, second: StateStack, *,
                          tol_witness: float = TOL_WITNESS,
                          tol_null: float = TOL_NULL,
                          tol_comm: float = TOL_COMM) -> _Analysis:
    """:func:`witness_conditionals` of each pair of members of two
    stacks, as columns.

    The members that pass the overlap guard go to the nested core
    together. Those that fail the guard, or that it stops (every stop
    error is one that witness_conditionals declines), keep their own
    anticommutator; the amplified ones of the others take their place,
    and the whole stack is analyzed at once.
    """
    overlaps = _leading_overlaps(first, second)
    passed = np.flatnonzero(~_at_boundary(np.array(overlaps), TOL_F))
    nested = _nested_columns(first.take(passed), second.take(passed),
                             [safe_nested_target(overlaps[k]) for k in passed],
                             tol_comm=tol_comm, tol_f=TOL_F, plan_cap=PLAN_CAP)
    direct = np.ones(len(overlaps), dtype=bool)
    direct[passed[nested.live]] = False
    anti = np.empty_like(first.matrix)
    anti[direct] = anticommutator(first.matrix[direct], second.matrix[direct])
    anti[~direct] = nested.anti
    return _Analysis(anti, tol_witness, tol_null)
