"""Density operators, pure states, Bloch vectors, and seeded sampling.

A :class:`DensityOperator` validates Hermiticity, unit trace, and
positivity on construction and caches its spectral decomposition. The
random samplers draw from the Hilbert-Schmidt (Ginibre) ensemble with an
explicit 64-bit seed so every run is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, PositivityError, TraceError
from .linalg import SpectralDecomposition, _eigh_descending, _hermitian_part, as_matrix
from .tolerances import TOL_DEGEN, TOL_PSD, TOL_TRACE

__all__ = [
    "DensityOperator",
    "make_density",
    "PureDecomposition",
    "pure_decompose",
    "top_gap",
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
    ``spectrum`` share that decomposition. A caller that already holds
    the decomposition (descending, as from ``amplify``) passes it
    as ``spectrum`` instead.
    """

    __slots__ = ("_matrix", "_spectrum")

    def __init__(self, matrix, *, spectrum: SpectralDecomposition | None = None):
        m = as_matrix(matrix)
        h = _hermitian_part(m, "state")
        tr = m.trace()
        if abs(tr - 1.0) > TOL_TRACE:
            raise TraceError(
                f"state trace {tr.real:.17g}{tr.imag:+.3e}j deviates from 1 "
                f"by {abs(tr - 1.0):.3e} (margin {TOL_TRACE:.1e})"
            )
        if spectrum is None:
            spectrum = _eigh_descending(h)
        low = float(spectrum.eigenvalues[-1])
        if not low >= -TOL_PSD:  # NaN from an overflowing matrix fails too
            raise PositivityError(
                f"state has eigenvalue {low:.3e} below -{TOL_PSD:.1e}"
            )
        h.setflags(write=False)
        self._matrix = h
        self._spectrum = spectrum

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


def make_density(matrix) -> DensityOperator:
    """Validate ``matrix`` as a density operator."""
    return DensityOperator(matrix)


def purity(rho: DensityOperator) -> float:
    """tr[rho^2], computed directly from the matrix."""
    m = rho.matrix
    return float(np.vdot(m, m).real)


@dataclass(frozen=True)
class PureDecomposition:
    """Convex split of a state into its leading pure part and a remainder.

    ``state == (1 - epsilon) |psi><psi| + epsilon * eta`` with ``eta``
    orthogonal to ``psi``. ``eta`` is None when the state is pure within
    tolerance. ``gap`` is the distance between the two largest
    eigenvalues; ``degenerate`` flags a top gap too small for
    amplification to make sense.
    """

    epsilon: float
    psi: np.ndarray
    eta: DensityOperator | None
    degenerate: bool
    gap: float


def top_gap(rho: DensityOperator) -> tuple[float, bool]:
    """(lambda_1 - lambda_2, degenerate), where degenerate means a gap of
    at most TOL_DEGEN * lambda_1, too small for amplification to single
    out the leading eigenvector; a 1-dimensional state has gap lambda_1."""
    lam = rho.spectrum.eigenvalues
    top = float(lam[0])
    if rho.dim == 1:
        return top, False
    gap = float(top - lam[1])
    return gap, gap <= TOL_DEGEN * top


def pure_decompose(rho: DensityOperator) -> PureDecomposition:
    """Split a state around its leading eigenvector."""
    dec = rho.spectrum
    lam = dec.eigenvalues
    top = float(lam[0])
    gap, degenerate = top_gap(rho)
    psi = np.ascontiguousarray(dec.eigenvectors[:, 0])
    eps = 1.0 - top
    if eps <= TOL_PSD:
        return PureDecomposition(epsilon=max(eps, 0.0), psi=psi, eta=None,
                                 degenerate=degenerate, gap=gap)
    tail = np.clip(lam[1:], 0.0, None)
    vecs = dec.eigenvectors[:, 1:]
    eta = DensityOperator((vecs * (tail / tail.sum())) @ vecs.conj().T)
    return PureDecomposition(epsilon=eps, psi=psi, eta=eta,
                             degenerate=degenerate, gap=gap)


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
    if not np.all(np.isfinite(vec)):
        raise ValueError("pure state vector contains non-finite entries")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"pure state norm {norm:.17g} is not 1 within 1e-12")
    return vec


def pure_projector(v) -> np.ndarray:
    vec = as_pure_state(v)
    return np.outer(vec, vec.conj())


def bloch_to_state(b) -> DensityOperator:
    """Qubit state (I + b . sigma)/2 from a Bloch vector."""
    vec = np.asarray(b, dtype=np.float64).reshape(-1)
    if vec.shape != (3,):
        raise DimensionError(f"Bloch vector needs 3 components, got {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if norm > 1.0 + 1e-12:
        raise PositivityError(f"Bloch vector norm {norm:.17g} exceeds 1")
    m = 0.5 * (np.eye(2, dtype=np.complex128)
               + vec[0] * _SIGMA_X + vec[1] * _SIGMA_Y + vec[2] * _SIGMA_Z)
    return DensityOperator(m)


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator from a seed plus optional stream indices.

    Scans pass the trial index as the stream, so each trial draws from
    its own reproducible substream whatever the other trials draw.
    """
    return np.random.default_rng((int(seed),) + tuple(int(s) for s in stream))


def _ginibre(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return g


def random_density(d: int, rank: int, rng: np.random.Generator) -> DensityOperator:
    """Hilbert-Schmidt random state of the given rank.

    Draws a d x rank complex Gaussian matrix G and returns
    G G† / tr[G G†].
    """
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    if rank < 1 or rank > d:
        raise DimensionError(f"rank must lie in [1, {d}], got {rank}")
    g = _ginibre(d, rank, rng)
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return DensityOperator(m / m.trace().real)


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(_ginibre(d, d, rng))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def state_to_json(rho: DensityOperator) -> dict:
    return linalg.matrix_to_json(rho.matrix)


def state_from_json(obj) -> DensityOperator:
    """A validated state from the matrix JSON layout; other keys, such
    as an optional ``"label"``, are ignored."""
    return DensityOperator(linalg.matrix_from_json(obj))
