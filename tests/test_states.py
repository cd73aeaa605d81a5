"""Tests for density operator construction and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import (
    DimensionError,
    HermiticityError,
    PositivityError,
    TraceError,
)
from qwitness.states import (
    DensityOperator,
    StateStack,
    _checked_matrices,
    as_pure_state,
    bloch_to_state,
    make_density,
    pure_decompose,
    pure_projector,
    purity,
    random_density,
    random_pure,
    random_unitary,
    reconstruct_decomposition,
    seeded_rng,
    state_from_json,
    state_to_json,
)
from qwitness.witness import _top_gaps, amplify


def test_valid_density_operator():
    rho = make_density(np.diag([0.6, 0.4]))
    assert rho.dim == 2
    assert purity(rho) == pytest.approx(0.52)
    # stored matrix is read-only
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0


def test_rejects_bad_trace():
    with pytest.raises(TraceError):
        make_density(np.diag([0.6, 0.6]))


def test_rejects_nonhermitian():
    with pytest.raises(HermiticityError):
        make_density(np.array([[0.5, 0.3], [0.0, 0.5]]))


@pytest.mark.parametrize("entry", [1e200, 1.7e308])
def test_rejects_nonhermitian_state_whose_norm_overflows(entry):
    """The margin stays finite where the Frobenius norm overflows, and
    an overflowing defect fails; no overflow warning is raised."""
    skew = np.array([[0.5, entry], [-entry, 0.5]])
    with pytest.raises(HermiticityError, match="state is not Hermitian"):
        make_density(skew)
    with pytest.raises(HermiticityError, match="state is not Hermitian"):
        StateStack.check(np.stack([np.eye(2) / 2, skew]))


def test_rejects_negative_eigenvalue():
    with pytest.raises(PositivityError):
        make_density(np.diag([1.2, -0.2]))


def test_tiny_negative_eigenvalue_tolerated():
    rho = make_density(np.diag([1.0 + 5e-11, -5e-11]))
    assert rho.spectrum.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)


def test_spectrum_is_cached():
    rho = make_density(np.eye(3) / 3)
    assert rho.spectrum is rho.spectrum


def test_pure_decompose_roundtrip():
    rng = seeded_rng(3)
    rho = random_density(4, 4, rng)
    dec = pure_decompose(rho)
    assert 0.0 < dec.epsilon < 1.0
    np.testing.assert_allclose(reconstruct_decomposition(dec), rho.matrix,
                               atol=1e-10)
    # the remainder lives on the complement of the leading vector
    assert abs(np.vdot(dec.psi, dec.eta.matrix @ dec.psi)) < 1e-12
    # its spectrum is the one it is built from, not a second eigh:
    # descending, 0 along psi, and it reconstructs the remainder
    lam, v = dec.eta.spectrum.eigenvalues, dec.eta.spectrum.eigenvectors
    assert np.all(np.diff(lam) <= 0) and lam[-1] == 0.0
    assert np.array_equal(v[:, -1], dec.psi)
    np.testing.assert_allclose((v * lam) @ v.conj().T, dec.eta.matrix,
                               atol=1e-14)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(dec.eta.matrix)[::-1],
                               atol=1e-14)


def test_pure_decompose_of_pure_state():
    dec = pure_decompose(make_density(np.diag([1.0, 0.0, 0.0])))
    assert dec.epsilon == pytest.approx(0.0, abs=1e-12)
    assert dec.eta is None


def _top_gap(rho):
    """witness._top_gaps of one state's spectrum: (gap, degenerate)."""
    gap, degenerate = _top_gaps(rho.spectrum.eigenvalues[None])
    return float(gap[0]), bool(degenerate[0])


def test_pure_decompose_flags_degenerate():
    assert _top_gap(make_density(np.eye(2) / 2))[1]
    assert not _top_gap(make_density(np.diag([0.7, 0.3])))[1]


def test_as_pure_state():
    v = as_pure_state([1 / np.sqrt(2), 1j / np.sqrt(2)])
    assert v.dtype == np.complex128
    with pytest.raises(ValueError):
        as_pure_state([1.0, 1.0])
    with pytest.raises(DimensionError):
        as_pure_state([])
    with pytest.raises(ValueError, match="non-finite"):
        as_pure_state([np.nan, 1.0])


def test_pure_projector():
    p = pure_projector([0.0, 1.0])
    np.testing.assert_allclose(p, np.diag([0.0, 1.0]), atol=1e-15)


def test_bloch_roundtrip():
    b = np.array([0.3, -0.4, 0.5])
    rho = bloch_to_state(b)
    x, y, z = b
    np.testing.assert_allclose(
        rho.matrix, [[(1 + z) / 2, (x - 1j * y) / 2],
                     [(x + 1j * y) / 2, (1 - z) / 2]], atol=1e-15)
    assert purity(rho) == pytest.approx((1 + 0.5) / 2)


def test_bloch_surface_and_outside():
    assert purity(bloch_to_state([0.0, 0.0, 1.0])) == pytest.approx(1.0)
    with pytest.raises(PositivityError):
        bloch_to_state([0.8, 0.8, 0.8])
    with pytest.raises(DimensionError):
        bloch_to_state([1.0, 0.0])


def test_seeded_rng_streams():
    a = seeded_rng(1, 0).normal(size=4)
    b = seeded_rng(1, 0).normal(size=4)
    c = seeded_rng(1, 1).normal(size=4)
    d = seeded_rng(2, 0).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("d,rank", [(2, 1), (2, 2), (5, 3), (6, 6)])
def test_random_density_is_valid(d, rank):
    rho = random_density(d, rank, seeded_rng(11, d, rank))
    assert rho.dim == d
    lam = rho.spectrum.eigenvalues
    assert np.sum(lam > 1e-12) == rank
    assert float(np.sum(lam)) == pytest.approx(1.0, abs=1e-10)


def test_random_density_rejects_bad_rank():
    with pytest.raises(DimensionError):
        random_density(3, 0, seeded_rng(0))
    with pytest.raises(DimensionError):
        random_density(3, 4, seeded_rng(0))


def test_random_pure_and_unitary():
    rng = seeded_rng(13)
    v = random_pure(5, rng)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    u = random_unitary(5, rng)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


def test_state_json_roundtrip_with_label():
    rho = bloch_to_state([0.1, 0.2, 0.3])
    obj = state_to_json(rho)
    assert set(obj) == {"dim", "entries"}
    obj["label"] = "probe"  # an optional key that parsing ignores
    back = state_from_json(obj)
    np.testing.assert_array_equal(back.matrix, rho.matrix)


def test_state_json_rejects_invalid_state():
    obj = state_to_json(make_density(np.diag([0.5, 0.5])))
    obj["entries"][0][0] = [0.9, 0.0]  # trace now 1.4
    with pytest.raises(TraceError):
        state_from_json(obj)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_random_density_psd_property(seed, d):
    rho = random_density(d, d, seeded_rng(seed))
    assert float(rho.spectrum.eigenvalues[-1]) >= -1e-10
    assert purity(rho) <= 1.0 + 1e-10


def test_construction_decomposes_once(monkeypatch):
    """One eigensolver call validates and decomposes a state; reading
    the spectrum or amplifying reuses it."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    m = random_density(4, 4, seeded_rng(17)).matrix
    calls.clear()
    rho = DensityOperator(m)
    assert len(calls) == 1
    assert rho.spectrum is rho.spectrum
    sharp = amplify(rho, 5)
    assert sharp.spectrum.eigenvalues[0] > rho.spectrum.eigenvalues[0]
    assert len(calls) == 1


def test_rejects_overflowing_matrix():
    """Finite entries whose Hermitian part overflows never validate."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PositivityError):
            make_density(np.array([[0.5, 1.7e308], [1.7e308, 0.5]]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_top_gap(d):
    lam = [0.5, 0.3, 0.2][:d]
    gap, degenerate = _top_gap(make_density(np.diag(np.array(lam) / sum(lam))))
    top = lam[0] / sum(lam)
    assert gap == pytest.approx(top if d == 1 else top - lam[1] / sum(lam))
    assert not degenerate
    assert _top_gap(make_density(np.eye(d) / d))[1] == (d > 1)


# ------------------------------------------------------- stacked checks

def _member(kind, d, rng, k=0):
    """A d x d matrix that passes DensityOperator's checks, or fails the
    one that ``kind`` names, by a defect that grows with ``k``."""
    m = random_density(d, d, rng).matrix.copy()
    if kind == "nonhermitian":
        m[0, -1] += (1e-3j if d == 1 else 1e-3) * (1 + k)
    elif kind == "offtrace":
        m *= 1.01 + 0.01 * k
    elif kind == "nonpsd":
        u = random_unitary(d, rng)
        m = (u * np.array([1.2 + 0.1 * k, -0.2 - 0.1 * k] + [0.0] * (d - 2))
             ) @ u.conj().T
    elif kind == "nonfinite":
        m[-1, 0] = np.nan if rng.random() < 0.5 else np.inf
    return m


_KINDS = ("valid", "nonhermitian", "offtrace", "nonpsd", "nonfinite")


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       d=st.integers(min_value=1, max_value=4),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_state_stack_check_raises_what_a_failing_member_raises(seed, d, kinds):
    # a stack passes exactly when every member passes alone; otherwise it
    # raises what DensityOperator raises for one of its failing members
    # (the scans rerun a failed block trial by trial to raise the first)
    if d == 1:  # a unit-trace 1x1 Hermitian matrix is positive
        kinds = [k for k in kinds if k != "nonpsd"] or ["valid"]
    rng = seeded_rng(seed)
    stack = np.array([_member(kind, d, rng) for kind in kinds])
    bad = [k for k, kind in enumerate(kinds) if kind != "valid"]
    if bad:
        with pytest.raises(Exception) as batched:
            StateStack.check(stack)
        alone = []
        for k in bad:
            with pytest.raises(Exception) as exc:
                DensityOperator(stack[k])
            alone.append((type(exc.value), str(exc.value)))
        assert (type(batched.value), str(batched.value)) in alone
        return
    checked = StateStack.check(stack)
    for k in range(len(stack)):
        rho = DensityOperator(stack[k])
        assert np.array_equal(checked.matrix[k], rho.matrix)
        assert np.array_equal(checked.spectrum.eigenvalues[k],
                              rho.spectrum.eigenvalues)
        assert np.array_equal(checked.spectrum.eigenvectors[k],
                              rho.spectrum.eigenvectors)


@pytest.mark.parametrize("size", [1, 5])
@pytest.mark.parametrize("kind", _KINDS)
def test_checked_matrices_keep_or_raise_what_the_stack_check_does(kind, size):
    # the route that checks positivity on eigvalsh's eigenvalues alone
    # keeps StateStack.check's Hermitian parts bit for bit, and raises
    # its error for the first failing member (1 of five, before 3). The
    # least eigenvalues -0.2 and -0.3 print alike from eigh and eigvalsh
    rng = seeded_rng(size)
    bad = [0] if size == 1 else [1, 3]
    for d in (1, 2, 3, 4):
        if d == 1 and kind == "nonpsd":  # a 1x1 state is positive
            continue
        stack = np.array([_member(kind if k in bad else "valid", d, rng, k)
                          for k in range(size)])
        if kind == "valid":
            # a defect within the Hermiticity margin, so that the
            # Hermitian part differs from the input
            stack[:, 0, -1] += 1e-13j
            checked = _checked_matrices(stack)
            assert checked.shape == stack.shape
            assert checked.tobytes() == StateStack.check(stack).matrix.tobytes()
            assert checked.tobytes() != stack.tobytes()
            continue
        raised = []
        for check in (_checked_matrices, StateStack.check,
                      lambda s: DensityOperator(s[bad[0]])):
            with pytest.raises(Exception) as exc:
                check(stack)
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1] == raised[2], (kind, d)
