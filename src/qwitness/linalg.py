"""Dense complex linear algebra with strict shape and symmetry checks.

All operators are square ``complex128`` arrays. Operations validate
dimensions up front and raise typed errors instead of letting numpy
broadcast silently. Anticommutators and commutators are symmetrized on
output so later eigendecompositions see exactly Hermitian (respectively
anti-Hermitian) input.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .errors import (
    AgreementError,
    CapacityError,
    ConvergenceError,
    DimensionError,
    HermiticityError,
)
from .tolerances import EIGEN_DIM_CAP, TOL_HERM, TOTAL_DIM_CAP

__all__ = [
    "SpectralDecomposition",
    "as_matrix",
    "anticommutator",
    "commutator",
    "frobenius_norm",
    "hermiticity_defect",
    "hermitian_eigen",
    "tensor",
    "tensor_all",
    "matrix_to_json",
    "matrix_from_json",
    "complex_from_json",
]


def as_matrix(x) -> np.ndarray:
    """Coerce ``x`` to a square, finite complex matrix."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def anticommutator(a, b) -> np.ndarray:
    """ab + ba, symmetrized to (M + M†)/2 so the result is exactly Hermitian."""
    a, b = _pair(a, b)
    m = a @ b + b @ a
    return (m + m.conj().T) / 2


def commutator(a, b) -> np.ndarray:
    """ab - ba, antisymmetrized to (M - M†)/2."""
    a, b = _pair(a, b)
    m = a @ b - b @ a
    return (m - m.conj().T) / 2


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def hermiticity_defect(a) -> float:
    """Largest entrywise deviation of ``a`` from its adjoint."""
    a = as_matrix(a)
    return float(np.max(np.abs(a - a.conj().T)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; ``eigenvectors``
    holds the matching orthonormal column vectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian_part(a: np.ndarray, what: str) -> np.ndarray:
    """(a + a†)/2 of a square complex array, after checking that ``a``
    deviates from its adjoint by at most TOL_HERM times max(norm, 1)."""
    adj = a.conj().T
    defect = float(np.abs(a - adj).max())
    if defect > TOL_HERM:  # the margin is at least TOL_HERM
        margin = TOL_HERM * max(frobenius_norm(a), 1.0)
        if defect > margin:
            raise HermiticityError(
                f"{what} is not Hermitian: defect {defect:.3e} exceeds "
                f"margin {margin:.3e}"
            )
    return (a + adj) / 2


def _eigh_descending(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of an exactly Hermitian array, largest first."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return SpectralDecomposition(
        eigenvalues=np.ascontiguousarray(w[::-1]),
        eigenvectors=np.ascontiguousarray(v[:, ::-1]),
    )


def hermitian_eigen(a) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises
    ------
    HermiticityError
        if the deviation from Hermiticity exceeds TOL_HERM relative to
        the Frobenius norm.
    CapacityError
        if the matrix dimension exceeds EIGEN_DIM_CAP.
    ConvergenceError
        if the underlying solver fails to converge.
    """
    a = as_matrix(a)
    d = a.shape[0]
    if d > EIGEN_DIM_CAP:
        raise CapacityError(
            f"dimension {d} exceeds eigensolver cap {EIGEN_DIM_CAP}")
    return _eigh_descending(_hermitian_part(a, "matrix"))


def tensor(a, b, *, cap: int = TOTAL_DIM_CAP) -> np.ndarray:
    """Kronecker product; row index of ``a (x) b`` is ``i_a * dim_b + i_b``."""
    a = as_matrix(a)
    b = as_matrix(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > cap:
        raise CapacityError(f"tensor dimension {out_dim} exceeds cap {cap}")
    return np.kron(a, b)


def tensor_all(mats: Iterable, *, cap: int = TOTAL_DIM_CAP) -> np.ndarray:
    mats = list(mats)
    if not mats:
        raise DimensionError("tensor_all needs at least one factor")
    return reduce(lambda x, y: tensor(x, y, cap=cap), mats)


def matrix_to_json(a) -> dict:
    """Serialize a matrix to the row-major [re, im] entry layout."""
    a = as_matrix(a)
    return {
        "dim": int(a.shape[0]),
        "entries": [
            [[float(z.real), float(z.imag)] for z in row] for row in a
        ],
    }


def matrix_from_json(obj) -> np.ndarray:
    """Parse and validate the matrix JSON layout."""
    if not isinstance(obj, dict):
        raise DimensionError("matrix JSON must be an object")
    d = obj.get("dim")
    entries = obj.get("entries")
    if isinstance(d, bool) or not isinstance(d, int) or entries is None:
        raise DimensionError("matrix JSON needs integer 'dim' and 'entries'")
    if d < 1:
        raise DimensionError(f"matrix dimension must be positive, got {d}")
    if not isinstance(entries, list) or len(entries) != d:
        raise DimensionError(f"expected {d} rows, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    out = np.empty((d, d), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != d:
            raise DimensionError(f"row {i} does not have {d} entries")
        for j, cell in enumerate(row):
            out[i, j] = complex_from_json(cell, f"entry ({i},{j})")
    return out


def complex_from_json(cell, where: str) -> complex:
    """A finite complex number from a ``[re, im]`` pair of JSON numbers;
    ``where`` names the cell in error messages."""
    if (not isinstance(cell, (list, tuple)) or len(cell) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float))
                   for x in cell)):
        raise DimensionError(f"{where} is not a [re, im] pair of numbers")
    try:
        z = complex(cell[0], cell[1])
        finite = cmath.isfinite(z)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{where} is not finite")
    return z


def assert_agreement(x: complex, y: complex, tol: float, what: str) -> None:
    """Raise AgreementError when two routes to one quantity disagree."""
    if abs(complex(x) - complex(y)) > tol:
        raise AgreementError(f"{what}: {x} vs {y} differ beyond {tol:.1e}")
