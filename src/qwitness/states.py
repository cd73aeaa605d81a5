"""Density operators, pure states, Bloch vectors, and seeded sampling.

A :class:`DensityOperator` validates Hermiticity, unit trace, and
positivity on construction and caches its spectral decomposition; the
batched scans run the same checks on stacks of matrices. The random
samplers draw from the Hilbert-Schmidt (Ginibre) ensemble with an
explicit 64-bit seed so every run is reproducible bit for bit.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, PositivityError, TraceError
from .linalg import (SpectralDecomposition, _adjoint, _eigh_descending,
                     _hermitian_part, as_matrix, frobenius_norms)
from .tolerances import TOL_PSD, TOL_TRACE

__all__ = [
    "DensityOperator",
    "StateStack",
    "make_density",
    "PureDecomposition",
    "pure_decompose",
    "reconstruct_decomposition",
    "purity",
    "as_pure_state",
    "pure_projector",
    "bloch_to_state",
    "random_density",
    "random_pure",
    "random_unitary",
    "seeded_rng",
    "state_to_json",
    "complex_from_json",
    "state_from_json",
]

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class DensityOperator:
    """A validated quantum state.

    The stored matrix is the read-only Hermitian part (M + M†)/2 of the
    input M, which equals M when M is exactly Hermitian. Construction
    decomposes it once; the positivity check and every later reader of
    ``spectrum`` share that decomposition.
    """

    __slots__ = ("_matrix", "_spectrum")

    def __init__(self, matrix):
        h, self._spectrum = _density_checks(as_matrix(matrix))
        h.setflags(write=False)
        self._matrix = h

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def spectrum(self) -> SpectralDecomposition:
        """Eigenvalues (descending) and eigenvectors of the state."""
        return self._spectrum

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim}, purity={purity(self):.6f})"

    @classmethod
    def _checked(cls, h: np.ndarray,
                 spectrum: SpectralDecomposition) -> "DensityOperator":
        """The state whose Hermitian part and spectrum ``_density_checks``
        returned; it is not checked again."""
        rho = cls.__new__(cls)
        h.setflags(write=False)
        rho._matrix, rho._spectrum = h, spectrum
        return rho


class StateStack(NamedTuple):
    """Checked states of one dimension, stacked: their Hermitian parts
    (n, d, d) and descending spectra. The stacked formulas of the
    witness and the scans take these; a single state goes through them
    as a stack of one."""

    matrix: np.ndarray
    spectrum: SpectralDecomposition

    @classmethod
    def check(cls, stack: np.ndarray,
              spectrum: SpectralDecomposition | None = None) -> "StateStack":
        """:class:`DensityOperator`'s checks on each member of a stack;
        a failing member raises what it raises alone."""
        return cls(*_density_checks(as_matrix(stack, stacked=True), spectrum))

    @classmethod
    def of(cls, rho: DensityOperator) -> "StateStack":
        """``rho`` as a stack of one."""
        dec = rho.spectrum
        return cls(rho.matrix[None], SpectralDecomposition(
            dec.eigenvalues[None], dec.eigenvectors[None]))

    def take(self, rows) -> "StateStack":
        """The members ``rows``, in that order."""
        dec = self.spectrum
        return StateStack(self.matrix[rows], SpectralDecomposition(
            dec.eigenvalues[rows], dec.eigenvectors[rows]))

    def state(self, k: int) -> DensityOperator:
        dec = self.spectrum
        return DensityOperator._checked(self.matrix[k], SpectralDecomposition(
            dec.eigenvalues[k], dec.eigenvectors[k]))


def _density_checks(m: np.ndarray, spectrum: SpectralDecomposition | None = None
                    ) -> tuple[np.ndarray, SpectralDecomposition]:
    """The checks of :class:`DensityOperator` on a finite square matrix,
    or on each member of a stack (n, d, d): Hermitian within its margin,
    unit trace and positive semidefinite. Returns the Hermitian part and
    its descending spectrum (``spectrum`` when given). Each check raises
    for the first member that fails it."""
    h = _hermitian_part(m, "state")
    with np.errstate(over="ignore"):  # an infinite trace fails below
        tr = m.trace(axis1=-2, axis2=-1)
    off = abs(tr - 1.0)
    if off.max(initial=0.0) > TOL_TRACE:
        t = np.reshape(tr, -1)[np.argmax(off > TOL_TRACE)]
        raise TraceError(
            f"state trace {t.real:.17g}{t.imag:+.3e}j deviates from 1 "
            f"by {abs(t - 1.0):.3e} (margin {TOL_TRACE:.1e})")
    if spectrum is None:
        spectrum = _eigh_descending(h)
    low = spectrum.eigenvalues.T[-1]  # a scalar, or one per member
    # NaN from an overflowing matrix fails too
    if not low.min(initial=np.inf) >= -TOL_PSD:
        k = np.argmax(np.logical_not(low >= -TOL_PSD))
        raise PositivityError(
            f"state has eigenvalue {float(np.reshape(low, -1)[k]):.3e} "
            f"below -{TOL_PSD:.1e}")
    return h, spectrum


def make_density(matrix) -> DensityOperator:
    """Validate ``matrix`` as a density operator."""
    return DensityOperator(matrix)


def purity(rho: DensityOperator) -> float:
    """tr[rho^2], computed directly from the matrix."""
    m = rho.matrix
    return float(np.vdot(m, m).real)


class PureDecomposition(NamedTuple):
    """Convex split of a state into its leading pure part and a remainder.

    ``state == (1 - epsilon) |psi><psi| + epsilon * eta`` with ``eta``
    orthogonal to ``psi``. ``eta`` is None when the state is pure within
    tolerance.
    """

    epsilon: float
    psi: np.ndarray
    eta: DensityOperator | None


class _PureParts(NamedTuple):
    """:func:`pure_decompose` of each member of a stack, as columns: the
    weights ``epsilon`` (n,), the leading vectors ``psi`` (n, d), the
    mask ``mixed`` of the members whose weight exceeds TOL_PSD, and
    ``eta``, the checked remainders of those members, in order (None may
    stand for a stack of none)."""

    epsilon: np.ndarray
    psi: np.ndarray
    eta: StateStack | None
    mixed: np.ndarray


def _pure_decompositions(dec: SpectralDecomposition) -> _PureParts:
    """:func:`pure_decompose` of each member of a stack of spectra.

    The remainders are checked together against the spectrum they are
    built from: the normalized tail weights over the tail eigenvectors,
    then 0 along psi. No remainder is decomposed again. A weight within
    TOL_PSD of 0 is raised to 0 if negative, and its member has no
    remainder."""
    lam = dec.eigenvalues
    eps = 1.0 - lam[:, 0]
    mixed = eps > TOL_PSD
    tail = np.maximum(lam[mixed, 1:], 0.0)
    w = tail / tail.sum(axis=-1, keepdims=True)
    v = dec.eigenvectors[mixed]
    vecs = v[:, :, 1:]
    eta = StateStack.check(
        (vecs * w[:, None, :]) @ _adjoint(vecs),
        SpectralDecomposition(
            np.concatenate([w, np.zeros((len(w), 1))], axis=1),
            np.concatenate([vecs, v[:, :, :1]], axis=2)))
    return _PureParts(np.maximum(eps, 0.0),
                      np.ascontiguousarray(dec.eigenvectors[:, :, 0]),
                      eta, mixed)


def pure_decompose(rho: DensityOperator) -> PureDecomposition:
    """Split a state around its leading eigenvector."""
    parts = _pure_decompositions(StateStack.of(rho).spectrum)
    return PureDecomposition(epsilon=parts.epsilon.item(0), psi=parts.psi[0],
                             eta=parts.eta.state(0) if parts.mixed[0] else None)


def reconstruct_decomposition(dec: PureDecomposition) -> np.ndarray:
    """Rebuild the matrix (1-eps)|psi><psi| + eps*eta."""
    m = (1.0 - dec.epsilon) * pure_projector(dec.psi)
    if dec.eta is not None:
        m = m + dec.epsilon * dec.eta.matrix
    return m


def as_pure_state(v) -> np.ndarray:
    """Coerce ``v`` to a unit-norm complex vector."""
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    if vec.size == 0:
        raise DimensionError("pure state vector is empty")
    return _pure_states(vec[None])[0]


def _pure_states(vecs: np.ndarray) -> np.ndarray:
    """:func:`as_pure_state`'s checks on each row of a stack (n, d) of
    complex vectors: finite, and of unit norm within 1e-12. The first
    row that fails raises."""
    finite = np.isfinite(vecs).all(axis=-1)
    norms = np.array(frobenius_norms(vecs))
    bad = ~finite | (abs(norms - 1.0) > 1e-12)
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            raise ValueError("pure state vector contains non-finite entries")
        raise ValueError(f"pure state norm {norms[k]:.17g} is not 1 within 1e-12")
    return vecs


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """|v><v| of a vector, or of each row of a stack (n, d) of them."""
    return vecs[..., :, None] * vecs[..., None, :].conj()


def pure_projector(v) -> np.ndarray:
    return _projectors(as_pure_state(v))


def bloch_to_state(b) -> DensityOperator:
    """Qubit state (I + b . sigma)/2 from a Bloch vector."""
    vec = np.asarray(b, dtype=np.float64).reshape(-1)
    if vec.shape != (3,):
        raise DimensionError(f"Bloch vector needs 3 components, got {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if norm > 1.0 + 1e-12:
        raise PositivityError(f"Bloch vector norm {norm:.17g} exceeds 1")
    return DensityOperator(_bloch_matrices(vec))


def _bloch_matrices(vecs: np.ndarray) -> np.ndarray:
    """(I + b . sigma)/2 of a Bloch vector b, or of each row of a stack
    (n, 3) of them, unchecked."""
    b = vecs[..., None, None]
    return 0.5 * (np.eye(2, dtype=np.complex128) + b[..., 0, :, :] * _SIGMA_X
                  + b[..., 1, :, :] * _SIGMA_Y + b[..., 2, :, :] * _SIGMA_Z)


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator from a seed plus optional stream indices.

    ``circuit --shots`` draws its readout from ``seeded_rng(seed)``.
    Scan trials do not come from here: each draws from a counter block
    of one Philox generator per scan (``scans._trial_streams``).
    """
    return np.random.default_rng((int(seed),) + tuple(int(s) for s in stream))


def _ginibre_shape(d: int, rank: int) -> tuple[int, int]:
    """(d, rank) of a Ginibre matrix, once d >= 1 and 1 <= rank <= d."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    if rank < 1 or rank > d:
        raise DimensionError(f"rank must lie in [1, {d}], got {rank}")
    return d, rank


def _gaussians(normals: np.ndarray, shapes) -> list[np.ndarray]:
    """Complex Gaussian arrays of ``shapes`` from each row of a stack
    (n, k) of standard normal draws. Each array takes its real block,
    then its imaginary block, in order, so that a row drawn by one
    ``rng.normal`` call holds the numbers one call per block draws."""
    out, end = [], 0
    for shape in shapes:
        size = math.prod(shape)
        re = normals[:, end:end + size]
        im = normals[:, end + size:end + 2 * size]
        out.append((re + 1j * im).reshape(-1, *shape))
        end += 2 * size
    return out


def _draw_size(shapes) -> int:
    """How many standard normal draws ``_gaussians`` cuts into arrays of
    ``shapes``: one ``rng.normal`` call of this size draws them."""
    return 2 * sum(map(math.prod, shapes))


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    """Each row of a stack (n, d) of complex vectors over its norm, which
    ``frobenius_norms`` takes by ``linalg._row_dots``."""
    return vecs / np.array(frobenius_norms(vecs))[:, None]


def _ginibre(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """A d x rank complex Gaussian matrix."""
    shape = _ginibre_shape(d, rank)
    return _gaussians(rng.normal(size=_draw_size([shape]))[None], [shape])[0][0]


def _density_from_ginibre(g: np.ndarray) -> np.ndarray:
    """G G† / tr[G G†], exactly Hermitian, of each member G of a stack
    (n, d, rank) of Ginibre matrices. Not yet checked."""
    m = g @ _adjoint(g)
    m = (m + _adjoint(m)) / 2
    return m / m.trace(axis1=-2, axis2=-1).real[:, None, None]


def _unitary_from_ginibre(g: np.ndarray) -> np.ndarray:
    """The Haar unitary Q·diag(phases of R) from the QR decomposition of
    one square Ginibre matrix, or of each member of a stack of them."""
    q, r = np.linalg.qr(g)
    phases = r.diagonal(0, -2, -1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def random_density(d: int, rank: int, rng: np.random.Generator) -> DensityOperator:
    """Hilbert-Schmidt random state of the given rank.

    Draws a d x rank complex Gaussian matrix G and returns
    G G† / tr[G G†].
    """
    g = _ginibre(d, rank, rng)
    return DensityOperator(_density_from_ginibre(g[None])[0])


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    return _unit_rows(_ginibre(d, 1, rng).T)[0]


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    return _unitary_from_ginibre(_ginibre(d, d, rng))


def state_to_json(rho: DensityOperator) -> dict:
    """The state in the row-major [re, im] entry layout."""
    return {
        "dim": rho.dim,
        "entries": [
            [[float(z.real), float(z.imag)] for z in row] for row in rho.matrix
        ],
    }


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


def state_from_json(obj) -> DensityOperator:
    """A validated state from the matrix JSON layout; other keys, such
    as an optional ``"label"``, are ignored."""
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
    return DensityOperator(out)
