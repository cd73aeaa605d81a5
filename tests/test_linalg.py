"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import DimensionError
from qwitness.linalg import (
    _eigh_descending,
    _hermitian_part,
    _row_dots,
    anticommutator,
    as_matrix,
    commutator,
    frobenius_norms,
)
from qwitness.states import (random_density, seeded_rng, state_from_json,
                             state_to_json)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
PPLUS = np.full((2, 2), 0.5, dtype=complex)


def hermiticity_defect(m):
    """Largest entrywise deviation of ``m`` from its adjoint."""
    return np.max(np.abs(m - m.conj().T))


def reconstruct(dec):
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.conj().T


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        as_matrix(np.zeros(4))
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 1]])


def test_pauli_products():
    # sigma_x and sigma_z anticommute
    assert frobenius_norms(anticommutator(SX, SZ)[None])[0] == 0.0
    np.testing.assert_allclose(commutator(SX, SZ),
                               2 * np.array([[0, -1], [1, 0]]), atol=1e-15)


def test_projector_pair_anticommutator():
    anti = anticommutator(P0, PPLUS)
    np.testing.assert_allclose(anti, np.array([[1.0, 0.5], [0.5, 0.0]]),
                               atol=1e-15)
    comm = commutator(P0, PPLUS)
    np.testing.assert_allclose(comm, np.array([[0, 0.5], [-0.5, 0]]),
                               atol=1e-15)
    assert frobenius_norms(comm[None])[0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        anticommutator(SX, np.eye(3))


def test_eigh_descending_sorted_and_reconstructs():
    h = random_hermitian(6, 42)
    dec = _eigh_descending(h)
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    np.testing.assert_allclose(reconstruct(dec), h, atol=1e-12)
    # columns are orthonormal
    v = dec.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)


# the matrix JSON layout, which the states module reads and writes

def test_matrix_json_roundtrip():
    rho = random_density(3, 3, seeded_rng(7))
    obj = state_to_json(rho)
    assert obj["dim"] == 3
    back = state_from_json(obj)
    np.testing.assert_array_equal(back.matrix, rho.matrix)


@pytest.mark.parametrize("bad", [
    42,
    {"dim": 2},
    {"dim": 2, "entries": [[[0, 0], [0, 0]]]},
    {"dim": 1, "entries": [[[0, 0], [0, 0]]]},
    {"dim": 1, "entries": [[0.5]]},
    {"dim": 0, "entries": []},
])
def test_matrix_json_rejects_malformed(bad):
    with pytest.raises(DimensionError):
        state_from_json(bad)


def test_matrix_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        state_from_json({"dim": 1, "entries": [[[np.inf, 0.0]]]})


@pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
def test_frobenius_norms_have_the_bits_of_one_matrix_norm(scale):
    # each member summed as np.linalg.norm sums a contiguous matrix alone
    rng = np.random.default_rng(int(np.log10(scale)) + 200)
    for d in range(1, 7):
        for n in (1, 2, 5):
            stack = scale * (rng.normal(size=(n, d, d))
                             + 1j * rng.normal(size=(n, d, d)))
            assert frobenius_norms(stack) == \
                [float(np.linalg.norm(m)) for m in stack]


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("m", [*range(1, 10), 64])
def test_row_dots_have_the_bits_of_one_dot_of_fresh_rows(m, n):
    # each unit-stride row as a fresh copy of it, wherever it starts:
    # the shifted rows start 8 bytes into their buffer, and OpenBLAS's
    # SSE3 ddot rounds an odd-length row by where it starts
    rng = np.random.default_rng(10 * m + n)
    real = rng.normal(size=(2, n, m))
    shifted = rng.normal(size=2 * n * m + 1)[1:].reshape(2, n, m)
    cplx = rng.normal(size=(2, n, m)) + 1j * rng.normal(size=(2, n, m))
    for a, b in (real, shifted, cplx):
        assert _row_dots(a, b).tolist() == \
            [np.dot(x.copy(), y.copy()) for x, y in zip(a, b)]
    a, b = cplx
    assert _row_dots(a.conj(), b).tolist() == \
        [np.vdot(x.copy(), y.copy()) for x, y in zip(a, b)]
    # strided rows keep their strides
    a, b = cplx.real
    assert _row_dots(a, b).tolist() == [np.dot(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("scale", [1e-290, 1e-8, 1.0, 1e8, 1e290])
def test_hermitian_part_has_the_bits_of_the_halved_sum(scale):
    # a/2 + a†/2 cannot overflow; with normal entries halving is exact,
    # so it equals (a + a†)/2 wherever that sum is finite
    rng = np.random.default_rng(int(np.log10(scale)) + 300)
    g = scale * (rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4)))
    h = (g + g.conj().swapaxes(-1, -2)) / 2
    h = h + scale * 1e-13 * rng.normal(size=h.shape)  # within the margin
    np.testing.assert_array_equal(
        _hermitian_part(h, "state"), (h + h.conj().swapaxes(-1, -2)) / 2)


@st.composite
def hermitian_matrices(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_hermitian(d, seed)


@given(hermitian_matrices(), hermitian_matrices())
@settings(max_examples=60, deadline=None)
def test_anticommutator_is_hermitian(a, b):
    if a.shape != b.shape:
        return
    anti = anticommutator(a, b)
    assert hermiticity_defect(anti) == 0.0
    comm = commutator(a, b)
    assert hermiticity_defect(1j * comm) == 0.0


@given(hermitian_matrices())
@settings(max_examples=60, deadline=None)
def test_eigen_reconstruction_property(h):
    dec = _eigh_descending(h)
    np.testing.assert_allclose(reconstruct(dec), h, atol=1e-10)
    assert abs(float(np.sum(dec.eigenvalues)) - float(np.trace(h).real)) < 1e-10
