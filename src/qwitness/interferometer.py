"""Controlled-shift interferometry for measuring anticommutator forms.

A Hadamard-sandwiched controlled cyclic shift over l state registers
plus one probe register maps the quantity Re<psi| rho_1 ... rho_l |psi>
onto the sigma_z expectation of the control qubit. For l = 2 that
expectation is <psi| {rho_1, rho_2} |psi> / 2, so a negative witness
eigenvector makes the interference visibility go negative.

That readout is Re tr[S R], R the product of the register states and S
the cyclic shift (Ekert et al., PRL 88, 217901 (2002)); S is a
permutation, so the d**l entries of R it selects are gathered straight
from the registers, with neither R nor any gate of the circuit built.
Over l registers the gather holds ~16 l + 32 bytes per basis index,
which :func:`check_circuit_size` bounds by the byte budget
``CIRCUIT_BYTES``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CapacityError, DimensionError, UnresolvableError
from .states import DensityOperator, as_pure_state, pure_projector, seeded_rng
from .tolerances import CIRCUIT_BYTES, SHOTS_CAP

__all__ = ["run_circuit_exact", "sample_readout", "shots_to_resolve"]


def _shift_trace(mats: list[np.ndarray]) -> complex:
    """tr[S (m_1 x ... x m_l)], S the shift sending register contents one
    slot earlier, over l = len(mats) registers of one dimension d.

    For each basis index x = (x_1, ..., x_l) in kron order, S selects the
    product's entry m_1[x_1, x_2] m_2[x_2, x_3] ... m_l[x_l, x_1]. Its
    factors are multiplied left to right, as ``kron`` does, and the d**l
    entries summed as one array in x order, so the result equals the sum
    read off the built product bit for bit."""
    l, d = len(mats), mats[0].shape[0]
    # x_k of each x in kron order, the first register's digit leading
    rows = np.arange(d**l) // d ** np.arange(l - 1, -1, -1)[:, None] % d
    cols = np.roll(rows, -1, axis=0)  # x_(k+1), and x_1 after x_l
    entries = mats[0][rows[0], cols[0]]
    for m, r, c in zip(mats[1:], rows[1:], cols[1:]):
        entries = entries * m[r, c]
    return complex(entries.sum())


def check_circuit_size(d: int, registers: int) -> None:
    """CapacityError if reading out ``registers`` registers of dimension
    d would take more than ``CIRCUIT_BYTES``: the gather holds
    16 * registers + 32 bytes for each of the d**registers basis
    indices, and the register lists 32 bytes per register, which alone
    bound the count at d = 1. The power stops at the budget's bit
    length, past which any d >= 2 is over budget."""
    power = d ** min(registers, CIRCUIT_BYTES.bit_length())
    if power * (16 * registers + 32) + 32 * registers > CIRCUIT_BYTES:
        raise CapacityError(
            f"a circuit of {registers} registers of dimension {d} exceeds "
            f"the {CIRCUIT_BYTES >> 20} MiB budget of its readout")


def run_circuit_exact(copies: Sequence[DensityOperator], probe) -> float:
    """Exact sigma_z expectation of the control qubit.

    ``copies`` are the state registers in circuit order, ``probe`` the
    pure state loaded into the final register. The Hadamard,
    controlled-shift, Hadamard circuit leaves the control qubit at
    Re tr[S (rho_1 x ... x rho_l x |psi><psi|)]; for a single pair that
    is <psi| {rho_1, rho_2} |psi> / 2. The registers, probe included,
    must fit :func:`check_circuit_size`.
    """
    if not copies:
        raise DimensionError("experiment needs at least one state register")
    d = copies[0].dim
    for s in copies:
        if s.dim != d:
            raise DimensionError("state registers must share one dimension")
    probe = as_pure_state(probe)
    if probe.shape[0] != d:
        raise DimensionError(
            f"probe dimension {probe.shape[0]} does not match registers ({d})"
        )
    check_circuit_size(d, len(copies) + 1)
    mats = [s.matrix for s in copies] + [pure_projector(probe)]
    return _shift_trace(mats).real


def sample_readout(exact: float, shots: int | None,
                   seed: int | None) -> tuple[float, float]:
    """Simulate control-qubit readout statistics at a known expectation.

    Draws ``shots`` Bernoulli outcomes at the zero-outcome probability
    (1 + exact) / 2 from the seeded generator and returns
    (estimate, standard error) with estimate = (n0 - n1) / shots and
    stderr = sqrt((1 - estimate^2) / shots).
    """
    if shots is None or not 1 <= int(shots) <= SHOTS_CAP:
        raise ValueError(
            f"sampled run needs shots in [1, {SHOTS_CAP}], got {shots}")
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
    A target whose square underflows to 0, or whose n overflows a
    float, raises UnresolvableError.
    """
    t = float(target)
    c = float(confidence_sigmas)
    if t * t == 0.0:  # zero, or so small that its square underflows
        raise UnresolvableError(f"expectation {t!r} cannot be resolved from zero")
    if abs(t) >= 1.0:
        return 1
    if c < 0.0:
        raise ValueError(f"confidence must be nonnegative, got {c}")
    bound = c * c * (1.0 - t * t) / (t * t)
    if not math.isfinite(bound):
        raise UnresolvableError(f"expectation {t!r} needs more shots than a "
                                "float can count")
    return int(math.floor(bound)) + 1
