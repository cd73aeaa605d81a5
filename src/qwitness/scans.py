"""Randomized and gridded property scans.

Each scan returns one record per trial plus a summary, and counts
counterexamples (expected zero) instead of stopping at the first
failure. Trial ``t`` draws only from its own substream
``seeded_rng(seed, t)``, so its record does not depend on how many
trials run and repeat runs are bit-identical.

Only ``discord`` runs its trials one after another. ``bloch`` builds
each axis state once and takes the anticommutators and spectra of all
pairs in stacked calls. ``pure-mixed``, ``nested`` and ``null`` draw
every trial in order from its stream, then run the checks and the
linear algebra over stacks of trials that share a dimension (``null``:
and a branch), in blocks of _CHUNK_BYTES of draws. The stacked calls
are bit-identical to the per-matrix ones, each norm is summed as
``np.linalg.norm`` sums it, each per-member scalar product stays a call
on that member, and each state passes ``DensityOperator``'s checks, so
the records keep their bytes. A trial whose state needs drawing again
draws again alone, from its own stream, and a failed check raises what
the per-trial loop would raise first.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionError, QwitnessError
from .linalg import _adjoint, anticommutator, commutator, frobenius_norms
from .states import (
    DensityOperator,
    StateStack,
    _density_from_ginibre,
    _ginibre,
    _projectors,
    _unitary_from_ginibre,
    bloch_to_state,
    random_density,
    random_pure,
    random_unitary,
    seeded_rng,
)
from .tolerances import PLAN_CAP, TOL_COMM, TOL_F, TOL_NULL, TOL_WITNESS
from .witness import (
    Verdict,
    _leading_overlaps,
    _nested,
    _pure_mixed_reports,
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

# bytes of the matrices one stacked pass of a batched scan starts from
# (the draws of pure-mixed, nested and null trials, bloch pair states);
# its intermediate stacks are a few times this, whatever the trial count
# or dimension
_CHUNK_BYTES = 1 << 21
# what a batched trial adds to its block's size besides its draws: the
# reports, plans and views a stacked pass holds per trial until it
# returns (~4 KiB for a nested trial at d = 2), so that a block of small
# trials holds a bounded number of them
_TRIAL_BYTES = 2048


def _gapped(lam: np.ndarray, full_spectrum: bool) -> np.ndarray:
    """Which members of a stack (n, d) of descending spectra have no
    (near-)ties: ``full_spectrum`` demands pairwise-distinct
    eigenvalues, otherwise only the top gap matters."""
    if lam.shape[-1] == 1:
        return np.ones(len(lam), dtype=bool)
    gaps = -np.diff(lam, axis=-1) if full_spectrum else lam[:, :1] - lam[:, 1:2]
    return gaps.min(axis=-1) > 1e-6


def _nondegenerate_density(d: int, rng: np.random.Generator,
                           full_spectrum: bool) -> DensityOperator:
    """Draw a full-rank state whose spectrum has no (near-)ties, as
    :func:`_gapped` judges it."""
    for _ in range(_REDRAW_LIMIT):
        rho = random_density(d, d, rng)
        if _gapped(rho.spectrum.eigenvalues[None], full_spectrum)[0]:
            return rho
    raise RuntimeError("could not draw a nondegenerate state")  # pragma: no cover


def _batched(trials: int, dims: list[int], seed: int, draw, compute
             ) -> list[dict]:
    """Records of trials 0..trials-1, computed over stacks.

    Trial t draws ``draw(t, d, rng)``, a tuple of arrays, in trial order
    from its own stream; ``compute(trial_ids, draws)`` then returns the
    records of trials whose draws have the same shapes, in trial order.
    It runs on blocks of about _CHUNK_BYTES, counting each trial's draws
    and _TRIAL_BYTES. When a block fails, its trials run again one at a
    time, so that the error raised is the one a per-trial scan meets
    first.
    """
    records: list[dict] = []
    block: dict[tuple, list] = {}
    size = 0

    def flush() -> list[dict]:
        try:
            done = [r for items in block.values()
                    for r in compute(*map(list, zip(*items)))]
        except (QwitnessError, ValueError, RuntimeError):
            for t, drawn in sorted((item for items in block.values()
                                    for item in items), key=lambda i: i[0]):
                compute([t], [drawn])
            raise  # pragma: no cover - some trial fails alone as in its block
        done.sort(key=lambda r: r["trial"])
        return done

    for t in range(trials):
        d = dims[t % len(dims)]
        try:
            drawn = draw(t, d, seeded_rng(seed, t))
        except DimensionError:
            flush()  # a failure of an earlier trial comes first
            raise
        block.setdefault(tuple(a.shape for a in drawn), []).append((t, drawn))
        size += _TRIAL_BYTES + sum(a.nbytes for a in drawn)
        if size >= _CHUNK_BYTES or t == trials - 1:
            records += flush()
            block, size = {}, 0
    return records


def _gapped_states(g: np.ndarray, full_spectrum: bool
                   ) -> tuple[StateStack, np.ndarray]:
    """The checked states of a stack of Ginibre draws, and the indices
    of those that :func:`_nondegenerate_density` would draw again."""
    states = StateStack.check(_density_from_ginibre(g))
    return states, np.flatnonzero(~_gapped(states.spectrum.eigenvalues,
                                           full_spectrum))


def scan_pure_mixed(trials: int, dims: Sequence[int],
                    seed: int) -> tuple[list[dict], dict]:
    """Witnessed verdict == noncommutation, for pure-vs-mixed pairs.

    Each trial draws its pure state and one Ginibre matrix; a trial
    whose state needs drawing again runs its draws again alone.
    """
    dims = list(dims)

    def draw(t: int, d: int, rng: np.random.Generator) -> tuple:
        return random_pure(d, rng), _ginibre(d, d, rng)

    def compute(trial_ids: list[int], draws: list) -> list[dict]:
        psi, g = (np.array(a) for a in zip(*draws))
        d = psi.shape[-1]
        rho2, again = _gapped_states(g, full_spectrum=True)
        for k in again.tolist():
            rng = seeded_rng(seed, trial_ids[k])
            random_pure(d, rng)  # psi comes first in the stream
            rho2.put(k, _nondegenerate_density(d, rng, full_spectrum=True))
        reports = _pure_mixed_reports(psi, rho2, TOL_WITNESS, TOL_NULL)
        comm_norms = frobenius_norms(commutator(_projectors(psi), rho2.matrix))
        records = []
        for t, report, comm_norm in zip(trial_ids, reports, comm_norms):
            closed = report.closed_form_criterion
            deviation = (0.0 if closed is None
                         else abs(closed - report.purity_criterion))
            witnessed = report.verdict == Verdict.NONPOSITIVE_WITNESSED
            noncommuting = comm_norm > TOL_COMM
            records.append({
                "trial": t,
                "dim": d,
                "commutator_norm": comm_norm,
                "min_eigenvalue": report.min_eigenvalue,
                "purity_criterion": report.purity_criterion,
                "purity_deviation": deviation,
                "verdict": report.verdict.value,
                "counterexample": witnessed != noncommuting,
            })
        return records

    records = _batched(trials, dims, seed, draw, compute)
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
    """Margin condition after planned amplification forces a witness.

    Each trial draws one Ginibre matrix per state; a trial either of
    whose states needs drawing again runs its draws again alone, both
    states, since sigma2 is drawn after sigma1's redraws.
    """
    dims = list(dims)

    def draw(t: int, d: int, rng: np.random.Generator) -> tuple:
        return _ginibre(d, d, rng), _ginibre(d, d, rng)

    def compute(trial_ids: list[int], draws: list) -> list[dict]:
        (sigma1, again1), (sigma2, again2) = (
            _gapped_states(np.array(g), full_spectrum=False)
            for g in zip(*draws))
        d = sigma1.matrix.shape[-1]
        for k in np.union1d(again1, again2).tolist():
            rng = seeded_rng(seed, trial_ids[k])
            for sigma in (sigma1, sigma2):
                sigma.put(k, _nondegenerate_density(d, rng,
                                                    full_spectrum=False))
        targets = [safe_nested_target(f)
                   for f in _leading_overlaps(sigma1, sigma2)]
        results = _nested(sigma1, sigma2, targets, tol_comm=TOL_COMM,
                          tol_witness=TOL_WITNESS, tol_null=TOL_NULL,
                          tol_f=TOL_F, plan_cap=PLAN_CAP)
        records = []
        for t, result in zip(trial_ids, results):
            base = {"trial": t, "dim": d}
            if isinstance(result, QwitnessError):
                records.append({
                    **base, "skipped": True, "reason": type(result).__name__,
                    "condition": False, "min_eigenvalue": None,
                    "verdict": None, "counterexample": False})
                continue
            witnessed = result.report.verdict == Verdict.NONPOSITIVE_WITNESSED
            records.append({
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
            })
        return records

    records = _batched(trials, dims, seed, draw, compute)
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
    recorded but never counted as counterexamples. Each axis state is
    built once; the pairs' anticommutators and spectra are stacked.
    """
    axis = _bloch_axis(grid)
    n = len(axis)
    vecs = [np.array([r * math.sin(a), 0.0, r * math.cos(a)]) for r, a in axis]
    axis_states = np.array([bloch_to_state(b).matrix for b in vecs])
    records = []
    step = max(1, _CHUNK_BYTES // axis_states[0].nbytes)
    for start in range(0, n * n, step):
        rows, cols = np.divmod(np.arange(start, min(start + step, n * n)), n)
        min_eigs = np.linalg.eigvalsh(
            anticommutator(axis_states[rows], axis_states[cols])).min(axis=-1)
        for i, j, min_eig in zip(rows.tolist(), cols.tolist(), min_eigs.tolist()):
            (r1, a1), (r2, a2) = axis[i], axis[j]
            condition = qubit_bloch_condition(vecs[i], vecs[j])
            records.append({
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
            })
    summary = {
        "kind": "bloch",
        "trials": len(records),
        "grid": n,
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
    Trials of one dimension, branch and rank are stacked.
    """
    dims = list(dims)

    def draw(t: int, d: int, rng: np.random.Generator) -> tuple:
        psi = random_pure(d, rng)
        if t % 2 == 0 and d > 1:
            ginibre = _ginibre(d, d, rng)
            rank = int(rng.integers(1, d))
            return psi, ginibre, _ginibre(d - 1, rank, rng)
        return psi, _ginibre(d, d, rng)

    def compute(trial_ids: list[int], draws: list) -> list[dict]:
        psi, ginibre, *inner = (np.array(a) for a in zip(*draws))
        if inner:  # rank < d: the constructed branch
            unitary = _unitary_from_ginibre(ginibre)
            basis = np.linalg.qr(np.concatenate(
                [psi[..., None], unitary[..., 1:]], axis=-1))[0]
            inner_rho = StateStack.check(_density_from_ginibre(inner[0]))
            comp = basis[:, :, 1:]
            mixed = comp @ inner_rho.matrix @ _adjoint(comp)
        else:
            mixed = _density_from_ginibre(ginibre)
        rho2 = StateStack.check(mixed).matrix
        proj = _projectors(psi)
        records = []
        for t, anti_norm, product_norm in zip(
                trial_ids, frobenius_norms(anticommutator(proj, rho2)),
                frobenius_norms(proj @ rho2)):
            null = anti_norm <= TOL_NULL
            records.append({
                "trial": t,
                "dim": psi.shape[-1],
                "anticommutator_norm": anti_norm,
                "product_norm": product_norm,
                "null": null,
                "counterexample": null and product_norm > 10.0 * TOL_NULL,
            })
        return records

    records = _batched(trials, dims, seed, draw, compute)
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
                  meas: dict[str, np.ndarray]
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
