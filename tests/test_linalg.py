"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import (
    AgreementError,
    CapacityError,
    DimensionError,
    HermiticityError,
)
from qwitness.linalg import (
    anticommutator,
    as_matrix,
    assert_agreement,
    commutator,
    frobenius_norm,
    hermitian_eigen,
    hermiticity_defect,
    matrix_from_json,
    matrix_to_json,
    tensor,
    tensor_all,
)
from qwitness.tolerances import EIGEN_DIM_CAP

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
PPLUS = np.full((2, 2), 0.5, dtype=complex)


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
    assert frobenius_norm(anticommutator(SX, SZ)) == 0.0
    np.testing.assert_allclose(commutator(SX, SZ),
                               2 * np.array([[0, -1], [1, 0]]), atol=1e-15)


def test_projector_pair_anticommutator():
    anti = anticommutator(P0, PPLUS)
    np.testing.assert_allclose(anti, np.array([[1.0, 0.5], [0.5, 0.0]]),
                               atol=1e-15)
    comm = commutator(P0, PPLUS)
    np.testing.assert_allclose(comm, np.array([[0, 0.5], [-0.5, 0]]),
                               atol=1e-15)
    assert frobenius_norm(comm) == pytest.approx(1 / np.sqrt(2), abs=1e-15)


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        anticommutator(SX, np.eye(3))


def test_hermitian_eigen_sorted_and_reconstructs():
    h = random_hermitian(6, 42)
    dec = hermitian_eigen(h)
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    np.testing.assert_allclose(reconstruct(dec), h, atol=1e-12)
    # columns are orthonormal
    v = dec.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)


def test_hermitian_eigen_rejects_nonhermitian():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(HermiticityError):
        hermitian_eigen(m)


def test_hermitian_eigen_cap():
    d = EIGEN_DIM_CAP  # 256
    assert hermitian_eigen(np.eye(d)).eigenvalues.shape == (d,)
    with pytest.raises(CapacityError, match=f"{d + 1} exceeds eigensolver cap"):
        hermitian_eigen(np.eye(d + 1))


def test_hermiticity_defect():
    assert hermiticity_defect(SX) == 0.0
    assert hermiticity_defect([[0, 1j], [1j, 0]]) == pytest.approx(2.0)


def test_tensor_index_convention():
    # row index of a (x) b is i_a * dim_b + i_b
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 5.0])
    t = tensor(a, b)
    np.testing.assert_allclose(np.diag(t).real, [3, 5, 6, 10])


def test_tensor_cap():
    with pytest.raises(CapacityError):
        tensor(np.eye(32), np.eye(32), cap=512)
    assert tensor_all([SX, SX, SX]).shape == (8, 8)
    with pytest.raises(DimensionError):
        tensor_all([])


def test_matrix_json_roundtrip():
    m = random_hermitian(3, 7) + 1j * 0.25 * np.eye(3)
    obj = matrix_to_json(m)
    assert obj["dim"] == 3
    back = matrix_from_json(obj)
    np.testing.assert_array_equal(back, m)


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
        matrix_from_json(bad)


def test_matrix_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 1, "entries": [[[np.inf, 0.0]]]})


def test_assert_agreement():
    assert_agreement(1.0, 1.0 + 1e-12, 1e-10, "x")
    with pytest.raises(AgreementError):
        assert_agreement(1.0, 1.1, 1e-10, "x")


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
    dec = hermitian_eigen(h)
    np.testing.assert_allclose(reconstruct(dec), h, atol=1e-10)
    assert abs(float(np.sum(dec.eigenvalues)) - float(np.trace(h).real)) < 1e-10
