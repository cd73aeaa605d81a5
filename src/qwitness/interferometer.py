"""Controlled-shift interferometry for measuring anticommutator forms.

A Hadamard-sandwiched controlled cyclic shift over l state registers
plus one probe register maps the quantity Re<psi| rho_1 ... rho_l |psi>
onto the sigma_z expectation of the control qubit. For l = 2 that
expectation is <psi| {rho_1, rho_2} |psi> / 2, so a negative witness
eigenvector makes the interference visibility go negative.

That readout is Re tr[S R], R the register tensor and S the cyclic
shift (Ekert et al., PRL 88, 217901 (2002)); S is a permutation, so it
is read off R as a sum of D entries, with no gate of the circuit built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError, UnresolvableError
from .linalg import assert_agreement, tensor_all
from .states import DensityOperator, as_pure_state, pure_projector, seeded_rng
from .tolerances import TOTAL_DIM_CAP

__all__ = [
    "shift_operator",
    "trace_product_via_shift",
    "ShiftExperiment",
    "run_circuit_exact",
    "sample_readout",
    "shots_to_resolve",
]

def _shift_permutation(d: int, l: int) -> np.ndarray:
    """Index map of the cyclic shift sending register contents one slot
    earlier (the first register's content reappears in the last slot)."""
    x = np.arange(d**l)
    first = x // d ** (l - 1)
    rest = x % d ** (l - 1)
    return rest * d + first


def shift_operator(d: int, l: int, *, cap: int = TOTAL_DIM_CAP) -> np.ndarray:
    """Permutation matrix cycling l registers of dimension d.

    Acting on a product vector it satisfies
    S (v1 x v2 x ... x vl) = v2 x ... x vl x v1, which makes
    tr[S (rho_1 x ... x rho_l)] = tr[rho_1 rho_2 ... rho_l].
    """
    d = int(d)
    l = int(l)
    if d < 1 or l < 1:
        raise DimensionError(f"need d >= 1 and l >= 1, got d={d}, l={l}")
    total = d**l
    if total > cap:
        raise CapacityError(f"shift dimension {total} exceeds cap {cap}")
    perm = _shift_permutation(d, l)
    s = np.zeros((total, total), dtype=np.complex128)
    s[perm, np.arange(total)] = 1.0
    return s


def _shift_trace(mats: list[np.ndarray], d: int, *, cap: int) -> complex:
    """tr[S (m_1 x ... x m_l)], S the shift over len(mats) registers of
    dimension d, as the sum of the tensor's entries M[x, perm[x]]."""
    big = tensor_all(mats, cap=cap)
    perm = _shift_permutation(d, len(mats))
    return complex(big[np.arange(perm.size), perm].sum())


def check_circuit_dimension(d: int, registers: int, cap: int) -> None:
    """CapacityError if 2 * d**registers exceeds ``cap``, or if there are
    more registers than cap's bit length: past it any d >= 2 is over the
    cap, and for d = 1 the work would grow with the count unbounded."""
    bound = cap.bit_length()
    if 2 * d ** min(registers, bound) > cap:
        raise CapacityError(
            f"circuit dimension 2*{d}^{registers} exceeds cap {cap}")
    if registers > bound:
        raise CapacityError(
            f"{registers} registers exceed the {bound} that cap {cap} allows")


def trace_product_via_shift(states: list[DensityOperator], *,
                            cap: int = TOTAL_DIM_CAP) -> float | complex:
    """tr[rho_1 ... rho_l], computed two independent ways.

    The tensor-contraction route pairs the shift permutation with the
    full product operator; the direct route multiplies the matrices.
    Both must agree within 1e-10. The value is real for l <= 2 and
    complex in general.
    """
    if not states:
        raise DimensionError("need at least one state")
    d = states[0].dim
    for s in states:
        if s.dim != d:
            raise DimensionError("states must share one dimension")
    l = len(states)
    contracted = _shift_trace([s.matrix for s in states], d, cap=cap)
    direct = states[0].matrix
    for s in states[1:]:
        direct = direct @ s.matrix
    direct_tr = complex(direct.trace())
    assert_agreement(contracted, direct_tr, 1e-10,
                     "product trace (shift contraction vs direct product)")
    if l <= 2:
        return float(direct_tr.real)
    return direct_tr


@dataclass(frozen=True)
class ShiftExperiment:
    """One controlled-shift interferometer configuration.

    ``copies`` are the state registers in circuit order, ``probe`` the
    pure state loaded into the final register.
    """

    copies: tuple[DensityOperator, ...]
    probe: np.ndarray


def run_circuit_exact(e: ShiftExperiment, *, cap: int = TOTAL_DIM_CAP) -> float:
    """Exact sigma_z expectation of the control qubit.

    The Hadamard, controlled-shift, Hadamard circuit leaves the control
    qubit at Re tr[S (rho_1 x ... x rho_l x |psi><psi|)], read here off
    the register tensor as a permuted sum; for a single pair that is
    <psi| {rho_1, rho_2} |psi> / 2. ``cap`` bounds the circuit dimension
    2 * d**l, control qubit included, and the register count (see
    :func:`check_circuit_dimension`).
    """
    if not e.copies:
        raise DimensionError("experiment needs at least one state register")
    d = e.copies[0].dim
    for s in e.copies:
        if s.dim != d:
            raise DimensionError("state registers must share one dimension")
    probe = as_pure_state(e.probe)
    if probe.shape[0] != d:
        raise DimensionError(
            f"probe dimension {probe.shape[0]} does not match registers ({d})"
        )
    check_circuit_dimension(d, len(e.copies) + 1, cap)
    mats = [s.matrix for s in e.copies] + [pure_projector(probe)]
    return _shift_trace(mats, d, cap=cap).real


def sample_readout(exact: float, shots: int | None,
                   seed: int | None) -> tuple[float, float]:
    """Simulate control-qubit readout statistics at a known expectation.

    Draws ``shots`` Bernoulli outcomes at the zero-outcome probability
    (1 + exact) / 2 from the seeded generator and returns
    (estimate, standard error) with estimate = (n0 - n1) / shots and
    stderr = sqrt((1 - estimate^2) / shots).
    """
    if shots is None or int(shots) < 1:
        raise ValueError(f"sampled run needs shots >= 1, got {shots}")
    if seed is None:
        raise ValueError("sampled run needs an explicit seed")
    shots = int(shots)
    p0 = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
    rng = seeded_rng(int(seed))
    n0 = int(rng.binomial(shots, p0))
    estimate = (2 * n0 - shots) / shots
    stderr = math.sqrt(max(1.0 - estimate * estimate, 0.0) / shots)
    return estimate, stderr


def shots_to_resolve(target: float, confidence_sigmas: float) -> int:
    """Smallest shot count resolving ``target`` from zero.

    Returns the least n with confidence_sigmas * sqrt((1-t^2)/n) < |t|.
    """
    t = float(target)
    c = float(confidence_sigmas)
    if t == 0.0:
        raise UnresolvableError("a zero expectation cannot be resolved from zero")
    if abs(t) >= 1.0:
        return 1
    if c < 0.0:
        raise ValueError(f"confidence must be nonnegative, got {c}")
    bound = c * c * (1.0 - t * t) / (t * t)
    return int(math.floor(bound)) + 1
