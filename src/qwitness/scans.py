"""Randomized and gridded property scans.

Each scan runs seeded independent trials in order, returns one record
per trial plus a summary, and counts counterexamples (expected zero)
instead of stopping at the first failure. Trial ``t`` draws only from
its own substream ``seeded_rng(seed, t)``, so its record does not
depend on how many trials run and repeat runs are bit-identical.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConditionUnreachableError, DegenerateSpectrumError
from .linalg import anticommutator, commutator, frobenius_norm
from .states import (
    DensityOperator,
    bloch_to_state,
    pure_projector,
    random_density,
    random_pure,
    random_unitary,
    seeded_rng,
)
from .tolerances import TOL_COMM, TOL_NULL, TOL_WITNESS
from .witness import (
    Verdict,
    leading_overlap,
    nested_witness,
    pure_mixed_test,
    qubit_bloch_condition,
    safe_nested_target,
)
from . import discord as discord_mod

__all__ = [
    "SCAN_KINDS",
    "run_scan",
    "scan_pure_mixed",
    "scan_nested",
    "scan_bloch",
    "scan_null",
    "scan_discord",
]

SCAN_KINDS = ("pure-mixed", "nested", "bloch", "null", "discord")

_REDRAW_LIMIT = 128


def _nondegenerate_density(d: int, rng: np.random.Generator,
                           full_spectrum: bool) -> DensityOperator:
    """Draw a full-rank state whose spectrum has no (near-)ties.

    ``full_spectrum`` demands pairwise-distinct eigenvalues; otherwise
    only the top gap matters.
    """
    for _ in range(_REDRAW_LIMIT):
        rho = random_density(d, d, rng)
        lam = rho.spectrum.eigenvalues
        gaps = -np.diff(lam) if full_spectrum else lam[:1] - lam[1:2]
        if d == 1 or float(gaps.min()) > 1e-6:
            return rho
    raise RuntimeError("could not draw a nondegenerate state")  # pragma: no cover


def scan_pure_mixed(trials: int, dims: Sequence[int],
                    seed: int) -> tuple[list[dict], dict]:
    """Witnessed verdict == noncommutation, for pure-vs-mixed pairs."""
    dims = list(dims)

    def one(t: int) -> dict:
        d = dims[t % len(dims)]
        rng = seeded_rng(seed, t)
        psi = random_pure(d, rng)
        rho2 = _nondegenerate_density(d, rng, full_spectrum=True)
        report = pure_mixed_test(psi, rho2)
        comm_norm = frobenius_norm(commutator(pure_projector(psi), rho2.matrix))
        closed = report.closed_form_criterion
        deviation = (0.0 if closed is None
                     else abs(closed - report.purity_criterion))
        witnessed = report.verdict == Verdict.NONPOSITIVE_WITNESSED
        noncommuting = comm_norm > TOL_COMM
        return {
            "trial": t,
            "dim": d,
            "commutator_norm": comm_norm,
            "min_eigenvalue": report.min_eigenvalue,
            "purity_criterion": report.purity_criterion,
            "purity_deviation": deviation,
            "verdict": report.verdict.value,
            "counterexample": witnessed != noncommuting,
        }

    records = [one(t) for t in range(trials)]
    summary = {
        "kind": "pure-mixed",
        "trials": trials,
        "dims": dims,
        "seed": seed,
        "counterexamples": sum(r["counterexample"] for r in records),
        "max_purity_deviation": max(
            (r["purity_deviation"] for r in records), default=0.0),
    }
    return records, summary


def scan_nested(trials: int, dims: Sequence[int],
                seed: int) -> tuple[list[dict], dict]:
    """Margin condition after planned amplification forces a witness."""
    dims = list(dims)

    def one(t: int) -> dict:
        d = dims[t % len(dims)]
        rng = seeded_rng(seed, t)
        sigma1 = _nondegenerate_density(d, rng, full_spectrum=False)
        sigma2 = _nondegenerate_density(d, rng, full_spectrum=False)
        base = {"trial": t, "dim": d}
        target = safe_nested_target(leading_overlap(sigma1, sigma2))
        try:
            result = nested_witness(sigma1, sigma2, target)
        except (DegenerateSpectrumError, ConditionUnreachableError) as exc:
            return {**base, "skipped": True, "reason": type(exc).__name__,
                    "condition": False, "min_eigenvalue": None,
                    "verdict": None, "counterexample": False}
        witnessed = result.report.verdict == Verdict.NONPOSITIVE_WITNESSED
        return {
            **base,
            "skipped": False,
            "reason": None,
            "n1": result.plan1.n,
            "n2": result.plan2.n,
            "eps1": result.overlap.eps1,
            "eps2": result.overlap.eps2,
            "overlap": abs(result.overlap.f),
            "condition": result.condition_met,
            "min_eigenvalue": result.report.min_eigenvalue,
            "verdict": result.report.verdict.value,
            "counterexample": result.condition_met and not witnessed,
        }

    records = [one(t) for t in range(trials)]
    summary = {
        "kind": "nested",
        "trials": trials,
        "dims": dims,
        "seed": seed,
        "skipped": sum(bool(r.get("skipped")) for r in records),
        "condition_met": sum(bool(r["condition"]) for r in records),
        "counterexamples": sum(r["counterexample"] for r in records),
    }
    return records, summary


def _bloch_axis(count: int) -> list[tuple[float, float]]:
    """(radius, polar angle) pairs for one grid axis, in the x-z plane."""
    nr = max(1, math.isqrt(count))
    na = -(-count // nr)  # ceil
    radii = [(i + 1) / nr for i in range(nr)]
    angles = [j * math.pi / max(na - 1, 1) for j in range(na)]
    pairs = [(r, a) for r in radii for a in angles]
    return pairs[:count]


def scan_bloch(grid: int = 100, *, seed: int = 0) -> tuple[list[dict], dict]:
    """Qubit ball condition implies a positive anticommutator.

    The two-vector geometry only depends on the radii and the angle
    between them, so the axes sample radius/angle pairs in a plane.
    Converse failures (condition false, operator still positive) are
    recorded but never counted as counterexamples.
    """
    axis = _bloch_axis(grid)

    def vec(r: float, theta: float) -> np.ndarray:
        return np.array([r * math.sin(theta), 0.0, r * math.cos(theta)])

    def one(t: int) -> dict:
        i, j = divmod(t, len(axis))
        r1, a1 = axis[i]
        r2, a2 = axis[j]
        b1, b2 = vec(r1, a1), vec(r2, a2)
        condition = qubit_bloch_condition(b1, b2)
        anti = anticommutator(bloch_to_state(b1).matrix,
                              bloch_to_state(b2).matrix)
        min_eig = float(np.linalg.eigvalsh(anti).min())
        return {
            "i": i,
            "j": j,
            "r1": r1,
            "theta1": a1,
            "r2": r2,
            "theta2": a2,
            "condition": condition,
            "min_eigenvalue": min_eig,
            "counterexample": condition and min_eig < -TOL_WITNESS,
            "converse_positive": (not condition) and min_eig >= -TOL_WITNESS,
        }

    records = [one(t) for t in range(len(axis) ** 2)]
    summary = {
        "kind": "bloch",
        "trials": len(records),
        "grid": len(axis),
        "seed": seed,
        "counterexamples": sum(r["counterexample"] for r in records),
        "converse_positive": sum(r["converse_positive"] for r in records),
    }
    return records, summary


def scan_null(trials: int, dims: Sequence[int],
              seed: int) -> tuple[list[dict], dict]:
    """A vanishing anticommutator with a pure factor kills the product.

    Even trials construct a state supported orthogonally to the pure
    one (anticommutator exactly null); odd trials draw generic pairs,
    for which the premise almost surely fails and the check is vacuous.
    """
    dims = list(dims)

    def one(t: int) -> dict:
        d = dims[t % len(dims)]
        rng = seeded_rng(seed, t)
        psi = random_pure(d, rng)
        if t % 2 == 0 and d > 1:
            basis = np.linalg.qr(
                np.column_stack([psi, random_unitary(d, rng)[:, 1:]])
            )[0]
            comp = basis[:, 1:]
            rank = int(rng.integers(1, d))
            inner = random_density(d - 1, rank, rng)
            rho2 = DensityOperator(comp @ inner.matrix @ comp.conj().T)
        else:
            rho2 = random_density(d, d, rng)
        proj = pure_projector(psi)
        anti_norm = frobenius_norm(anticommutator(proj, rho2.matrix))
        product_norm = frobenius_norm(proj @ rho2.matrix)
        null = anti_norm <= TOL_NULL
        return {
            "trial": t,
            "dim": d,
            "anticommutator_norm": anti_norm,
            "product_norm": product_norm,
            "null": null,
            "counterexample": null and product_norm > 10.0 * TOL_NULL,
        }

    records = [one(t) for t in range(trials)]
    summary = {
        "kind": "null",
        "trials": trials,
        "dims": dims,
        "seed": seed,
        "null_pairs": sum(bool(r["null"]) for r in records),
        "counterexamples": sum(r["counterexample"] for r in records),
    }
    return records, summary


def _conditionals(rho_ab: discord_mod.BipartiteState,
                  meas: dict[str, discord_mod.LocalOperation]
                  ) -> list[tuple[float, DensityOperator | None]]:
    """(probability, state) of every outcome, in sorted outcome order."""
    return [discord_mod.conditional_state(rho_ab, meas[key])
            for key in sorted(meas)]


def _most_likely(conds: list[tuple[float, DensityOperator | None]]
                 ) -> DensityOperator:
    """State of the most likely outcome; ties go to the first. A
    complete measurement always has a possible outcome."""
    return max((c for c in conds if c[1] is not None), key=lambda c: c[0])[1]


def scan_discord(trials: int, seed: int) -> tuple[list[dict], dict]:
    """Zero-discord states never yield a witnessed verdict.

    Each trial builds a random classical-classical state (Bob's
    conditionals share one eigenbasis; its records keep the ``cq``
    prefix) and a random product state, scans a random pair of
    projective families for noncommuting conditionals of the first, and
    witnesses the most likely outcome of each family on both states.
    """

    def one(t: int) -> dict:
        rng = seeded_rng(seed, t)
        # classical-classical: common eigenbasis for Bob's conditionals
        probs = rng.dirichlet(np.ones(2))
        common = random_unitary(2, rng)
        bob = []
        for _ in range(2):
            diag = rng.dirichlet(np.ones(2))
            bob.append(DensityOperator((common * diag) @ common.conj().T))
        cc = discord_mod.classical_quantum_state(probs, bob)
        product = discord_mod.BipartiteState(
            state=DensityOperator(
                np.kron(random_density(2, 2, rng).matrix,
                        random_density(2, 2, rng).matrix)),
            dims=(2, 2),
        )
        meas = [discord_mod.measurement_from_unitary(random_unitary(2, rng))
                for _ in range(2)]
        cc_conds, product_conds = ([_conditionals(state, m) for m in meas]
                                   for state in (cc, product))
        ensemble = discord_mod.compare_conditionals(cc_conds[0] + cc_conds[1])
        verdicts = {
            name: discord_mod.witness_conditionals(
                _most_likely(first), _most_likely(second)).verdict
            for name, (first, second) in (("cq", cc_conds),
                                          ("product", product_conds))
        }
        witnessed = any(v == Verdict.NONPOSITIVE_WITNESSED
                        for v in verdicts.values())
        return {
            "trial": t,
            "cq_noncommuting": ensemble.noncommuting_found,
            "cq_verdict": verdicts["cq"].value,
            "product_verdict": verdicts["product"].value,
            "counterexample": ensemble.noncommuting_found or witnessed,
        }

    records = [one(t) for t in range(trials)]
    summary = {
        "kind": "discord",
        "trials": trials,
        "seed": seed,
        "counterexamples": sum(r["counterexample"] for r in records),
    }
    return records, summary


def run_scan(kind: str, *, trials: int = 1000,
             dims: Sequence[int] = (2, 3, 4), seed: int = 0,
             grid: int = 100) -> tuple[list[dict], dict]:
    """Dispatch one scan kind with its natural parameters."""
    if kind == "pure-mixed":
        return scan_pure_mixed(trials, dims, seed)
    if kind == "nested":
        return scan_nested(trials, dims, seed)
    if kind == "bloch":
        return scan_bloch(grid, seed=seed)
    if kind == "null":
        return scan_null(trials, dims, seed)
    if kind == "discord":
        return scan_discord(trials, seed)
    raise ValueError(f"unknown scan kind {kind!r}; have {', '.join(SCAN_KINDS)}")
