"""Dense complex linear algebra with strict shape and symmetry checks.

All operators are square ``complex128`` arrays; the functions the
batched scans use also take stacks (n, d, d) and work member by member.
Operations validate dimensions up front and raise typed errors instead
of letting numpy broadcast silently. A check on a stack raises for a
failing member. Anticommutators and commutators are symmetrized on
output, so an anticommutator is exactly Hermitian (a commutator exactly
anti-Hermitian) and goes to the eigensolver without a further check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    HermiticityError,
)
from .tolerances import TOL_HERM

__all__ = [
    "SpectralDecomposition",
    "as_matrix",
    "anticommutator",
    "commutator",
    "frobenius_norms",
]


def as_matrix(x, *, stacked: bool = False) -> np.ndarray:
    """Coerce ``x`` to a square, finite complex matrix, or with
    ``stacked`` to a stack (n, d, d) of them."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 + stacked or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        what = "matrix stack" if stacked else "matrix"
        raise DimensionError(f"expected a square {what}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each member of a stack."""
    return a.conj().swapaxes(-1, -2)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    stacked = getattr(a, "ndim", 2) == 3  # stacks are arrays already
    a = as_matrix(a, stacked=stacked)
    b = as_matrix(b, stacked=stacked)
    if a.shape != b.shape:
        raise DimensionError(f"stack shape mismatch: {a.shape} vs {b.shape}"
                             if stacked else
                             f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def anticommutator(a, b) -> np.ndarray:
    """ab + ba, symmetrized to (M + M†)/2 so the result is exactly
    Hermitian; of two matrices or, member by member, of two stacks."""
    a, b = _pair(a, b)
    m = a @ b + b @ a
    return (m + _adjoint(m)) / 2


def commutator(a, b) -> np.ndarray:
    """ab - ba, antisymmetrized to (M - M†)/2; of two matrices or two stacks."""
    a, b = _pair(a, b)
    m = a @ b - b @ a
    return (m - _adjoint(m)) / 2


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] . b[k], unconjugated, of each pair of rows of two stacks
    (n, m): the one batched reduction of a member to a dot product.
    numpy evaluates the batched matmul as each row pair's own BLAS dot,
    so each result has the bits of ``np.dot`` of its two rows alone, and
    with ``a`` conjugated those of ``np.vdot``: unit-stride rows as fresh
    copies of them, strided rows with their strides."""
    a, b = _aligned(a), _aligned(b)
    if len(a) == 1:  # one row: its dot alone, without the batched dispatch
        return np.dot(a[0], b[0])[None]
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _aligned(a: np.ndarray) -> np.ndarray:
    """Unit-stride rows of ``a`` copied to 16-byte boundaries, as a fresh
    array's: OpenBLAS's SSE3 ddot rounds an odd-length row by its start."""
    if a.strides[-1] != a.itemsize or not (a.ctypes.data | a.strides[0]) % 16:
        return a
    m = a.shape[1]
    return np.concatenate([a, a[:, :m % 2]], axis=1)[:, :m]


def frobenius_norms(stack: np.ndarray) -> list[float]:
    """The Frobenius norm of each member of a stack, as sqrt(re.re +
    im.im) by :func:`_row_dots`: of a contiguous member, the bits of
    ``np.linalg.norm`` of it alone, which a stacked norm or einsum misses."""
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    return np.sqrt(_row_dots(flat.real, flat.real)
                   + _row_dots(flat.imag, flat.imag)).tolist()


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; ``eigenvectors``
    holds the matching orthonormal column vectors. Of a stack, both
    carry the stack axis first.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian_part(a: np.ndarray, what: str) -> np.ndarray:
    """(a + a†)/2 of a square complex matrix or stack, after checking
    that each member deviates from its adjoint by at most TOL_HERM times
    max(norm, 1), with the norm summed by ``math.hypot`` over the scaled
    member so that it cannot overflow. The first member that does not
    raises, an overflowing (infinite) defect included. The part is
    summed as a/2 + a†/2, which cannot overflow either; halving is exact
    for entries of magnitude 2**-1021 and above, and on those the part
    has the bits of (a + a†)/2 wherever that sum is finite."""
    adj = _adjoint(a)
    with np.errstate(over="ignore"):
        diff = np.abs(a - adj)
    if diff.max(initial=0.0) > TOL_HERM:  # the margin is at least TOL_HERM
        members = a if a.ndim == 3 else a[None]
        defects = np.atleast_1d(diff.max(axis=(-2, -1)))
        for k in np.flatnonzero(defects > TOL_HERM):
            defect = float(defects[k])
            scaled = np.abs(TOL_HERM * members[k]).ravel().tolist()
            margin = max(math.hypot(*scaled), TOL_HERM)
            if defect > margin:
                raise HermiticityError(
                    f"{what} is not Hermitian: defect {defect:.3e} exceeds "
                    f"margin {margin:.3e}")
    return a / 2 + adj / 2


def _eigh_descending(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of an exactly Hermitian matrix, or of each
    member of a stack, largest eigenvalue first."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return SpectralDecomposition(
        eigenvalues=np.ascontiguousarray(w[..., ::-1]),
        eigenvectors=np.ascontiguousarray(v[..., ::-1]),
    )
