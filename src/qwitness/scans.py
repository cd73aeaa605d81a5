"""Randomized and gridded property scans.

Each scan returns one record per trial plus a summary, and counts
counterexamples (expected zero) instead of stopping at the first
failure. One rule (``_summary``) builds every summary: the kind, size
and seed, then each count as the number of records whose field is
true. Trial ``t`` draws only from its own block of counters of the
scan's Philox generator (``_trial_streams``), so its record does not
depend on how many trials run and repeat runs are bit-identical.

``bloch`` builds each axis state once and takes the anticommutators,
spectra and ball conditions of all pairs in stacked calls.
``pure-mixed``, ``nested``, ``null`` and ``discord`` draw every trial
in order from its stream: its integer or Dirichlet draws first, then
all its Gaussian numbers in one ``normal`` call. They then cut the
draws into states and run the checks and the linear algebra over
stacks of trials that share a dimension (``null``: and a branch and a
rank; ``discord`` trials are all qubit pairs), in blocks of
_CHUNK_BYTES of draws. The stacked calls are bit-identical to the
per-matrix ones, each per-member dot product (a norm's too) is taken by
``linalg._row_dots``, and each state passes ``DensityOperator``'s
checks, so the records keep their bytes. Each trial draws each of its
states once, whatever its spectrum, and a failed check raises what the
per-trial loop would raise first.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionError, QwitnessError
from .linalg import (_adjoint, anticommutator, as_matrix, commutator,
                     frobenius_norms)
from .states import (
    StateStack,
    _density_from_ginibre,
    _gaussians,
    _ginibre_shape,
    _normals,
    _projectors,
    _pure_states,
    _unit_rows,
    _unitary_from_ginibre,
    bloch_to_state,
)
from .tolerances import (PLAN_CAP, SCAN_KINDS, TOL_COMM, TOL_F, TOL_NULL,
                         TOL_WITNESS)
from .witness import (
    Verdict,
    _bloch_conditions,
    _leading_overlaps,
    _nested,
    _pure_mixed_reports,
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

# bytes of the matrices one stacked pass of a batched scan starts from
# (the draws of pure-mixed, nested, null and discord trials, bloch pair
# states); its intermediate stacks are a few times this, whatever the
# trial count or dimension
_CHUNK_BYTES = 1 << 21
# what a batched trial adds to its block's size besides its draws: the
# reports, plans and views a stacked pass holds per trial until it
# returns, so that a block of small trials holds a bounded number of
# them. Over a block of 1000 trials, tracemalloc measures ~2.5 KiB per
# nested trial at d = 2 above its record. A discord trial draws 368
# bytes (six Dirichlet weights and 40 normals) and holds ~9 KiB at its
# block's peak: its 16 conditional members (the 4x4 state and the
# projector each starts from, the 2x2 state and spectrum it ends with,
# and the checks' temporaries) and its two witness reports
_TRIAL_BYTES = 2048


def _trial_streams(seed: int):
    """The stream of each trial of a scan seeded ``seed``: one Philox
    generator, keyed once from ``SeedSequence(seed)``, with its counter
    reset to (0, 0, t, 0) before trial t draws. Each trial owns a block
    of 2**128 counters, so its draws depend on (seed, t) alone: the
    counter-based design of Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3" (SC11, 2011). The generator is shared, so no draw
    keeps it past its trial."""
    bits = np.random.Philox(np.random.SeedSequence(int(seed)))
    rng = np.random.Generator(bits)
    start = bits.state
    counter = start["state"]["counter"]

    def stream(t: int) -> np.random.Generator:
        counter[2] = t
        bits.state = start
        return rng

    return stream


def _batched(trials: int, dims: list[int], seed: int, draw, compute
             ) -> list[dict]:
    """Records of trials 0..trials-1, computed over stacks.

    Trial t draws ``draw(t, d, rng)``, a tuple of arrays, in trial order
    from its own stream (``_trial_streams``); ``compute(d, trial_ids,
    *stacks)`` then returns the records of trials of dimension d whose
    draws have the same shapes, in trial order, from each draw stacked
    over those trials.
    It runs on blocks of about _CHUNK_BYTES, counting each trial's draws
    and _TRIAL_BYTES. When a block fails, its trials run again one at a
    time, so that the error raised is the one a per-trial scan meets
    first.
    """
    stream = _trial_streams(seed)
    records: list[dict] = []
    block: dict[tuple, list] = {}
    size = 0

    def run(d: int, items: list) -> list[dict]:
        trial_ids, draws = zip(*items)
        return compute(d, list(trial_ids), *map(np.array, zip(*draws)))

    def flush() -> list[dict]:
        try:
            done = [r for (d, *_), items in block.items()
                    for r in run(d, items)]
        except (QwitnessError, ValueError):
            for t, d, drawn in sorted((t, d, drawn)
                                      for (d, *_), items in block.items()
                                      for t, drawn in items):
                run(d, [(t, drawn)])
            raise  # pragma: no cover - some trial fails alone as in its block
        done.sort(key=lambda r: r["trial"])
        return done

    for t in range(trials):
        d = dims[t % len(dims)]
        try:
            drawn = draw(t, d, stream(t))
        except DimensionError:
            flush()  # a failure of an earlier trial comes first
            raise
        block.setdefault((d, *(a.shape for a in drawn)), []).append((t, drawn))
        size += _TRIAL_BYTES + sum(a.nbytes for a in drawn)
        if size >= _CHUNK_BYTES or t == trials - 1:
            records += flush()
            block, size = {}, 0
    return records


def _summary(kind: str, trials: int, shape: list[tuple], seed: int,
             records: list[dict], counts: list[tuple[str, str]]) -> dict:
    """A scan's summary: its kind, trial count, ``shape`` (the
    ``("dims", dims)`` or ``("grid", n)`` pair it ran over, if any) and
    seed, then, for each (key, field) of ``counts``, the number of
    records whose field is true; pure-mixed adds the largest
    ``purity_deviation``."""
    summary = {"kind": kind, "trials": trials, **dict(shape), "seed": seed}
    for key, field in counts:
        summary[key] = sum(record[field] for record in records)
    if kind == "pure-mixed":
        summary["max_purity_deviation"] = max(
            (record["purity_deviation"] for record in records), default=0.0)
    return summary


def scan_pure_mixed(trials: int, dims: Sequence[int],
                    seed: int) -> tuple[list[dict], dict]:
    """Witnessed verdict == noncommutation, for pure-vs-mixed pairs.

    Each trial draws its pure state and one Ginibre matrix; the claim
    holds for every mixed state, tied spectra included.
    """
    dims = list(dims)

    def shapes(d: int) -> list[tuple]:
        return [(d,), _ginibre_shape(d, d)]

    def draw(t: int, d: int, rng: np.random.Generator) -> tuple:
        return (_normals(rng, shapes(d)),)

    def compute(d: int, trial_ids: list[int], normals) -> list[dict]:
        psi, g = _gaussians(normals, shapes(d))
        psi = _unit_rows(psi)
        rho2 = StateStack.check(_density_from_ginibre(g))
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
    return records, _summary("pure-mixed", trials, [("dims", dims)], seed,
                             records, [("counterexamples", "counterexample")])


def scan_nested(trials: int, dims: Sequence[int],
                seed: int) -> tuple[list[dict], dict]:
    """Margin condition after planned amplification forces a witness.

    Each trial draws one Ginibre matrix per state; a trial with a tied
    top eigenvalue in either state records a DegenerateSpectrumError
    skip.
    """
    dims = list(dims)

    def draw(t: int, d: int, rng: np.random.Generator) -> tuple:
        return (_normals(rng, [_ginibre_shape(d, d)] * 2),)

    def compute(d: int, trial_ids: list[int], normals) -> list[dict]:
        sigma1, sigma2 = (StateStack.check(_density_from_ginibre(g))
                          for g in _gaussians(normals, [(d, d)] * 2))
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
    return records, _summary("nested", trials, [("dims", dims)], seed, records,
                             [("skipped", "skipped"),
                              ("condition_met", "condition"),
                              ("counterexamples", "counterexample")])


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
    vecs = np.array([[r * math.sin(a), 0.0, r * math.cos(a)] for r, a in axis])
    axis_states = np.array([bloch_to_state(b).matrix for b in vecs])
    records = []
    step = _CHUNK_BYTES // np.zeros((2, 2), np.complex128).nbytes
    for start in range(0, n * n, step):
        rows, cols = np.divmod(np.arange(start, min(start + step, n * n)), n)
        min_eigs = np.linalg.eigvalsh(
            anticommutator(axis_states[rows], axis_states[cols])).min(axis=-1)
        for i, j, min_eig, condition in zip(
                rows.tolist(), cols.tolist(), min_eigs.tolist(),
                _bloch_conditions(vecs, rows, cols)):
            (r1, a1), (r2, a2) = axis[i], axis[j]
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
    return records, _summary("bloch", len(records), [("grid", n)], seed, records,
                             [("counterexamples", "counterexample"),
                              ("converse_positive", "converse_positive")])


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
        outer = [(d,), _ginibre_shape(d, d)]
        if t % 2 == 0 and d > 1:
            rank = int(rng.integers(1, d))
            normals = _normals(rng, outer + [(d - 1, rank)])
            split = 2 * (d + d * d)
            return normals[:split], normals[split:]
        return (_normals(rng, outer),)

    def compute(d: int, trial_ids: list[int], outer, *inner) -> list[dict]:
        psi, ginibre = _gaussians(outer, [(d,), (d, d)])
        psi = _unit_rows(psi)
        if inner:  # rank < d: the constructed branch
            unitary = _unitary_from_ginibre(ginibre)
            basis = np.linalg.qr(np.concatenate(
                [psi[..., None], unitary[..., 1:]], axis=-1))[0]
            rank = inner[0].shape[-1] // (2 * (d - 1))
            inner_rho = StateStack.check(_density_from_ginibre(
                _gaussians(inner[0], [(d - 1, rank)])[0]))
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
                "dim": d,
                "anticommutator_norm": anti_norm,
                "product_norm": product_norm,
                "null": null,
                "counterexample": null and product_norm > 10.0 * TOL_NULL,
            })
        return records

    records = _batched(trials, dims, seed, draw, compute)
    return records, _summary("null", trials, [("dims", dims)], seed, records,
                             [("null_pairs", "null"),
                              ("counterexamples", "counterexample")])


def scan_discord(trials: int, seed: int) -> tuple[list[dict], dict]:
    """Zero-discord states never yield a witnessed verdict.

    Each trial builds a random classical-classical state (Bob's
    conditionals share one eigenbasis; its records keep the ``cq``
    prefix) and a random product state, scans a random pair of
    projective families for noncommuting conditionals of the first, and
    witnesses the most likely outcome of each family on both states.
    It draws the pointer probabilities and Bob's two spectra in one
    Dirichlet call, then, in one normal call, the Ginibre matrices of
    Bob's common eigenbasis, the two product factors and the two
    measurement bases. The states, their
    conditionals and the witnesses are stacked over trials; an outcome
    of zero probability is masked out of the comparison and the pick.
    """

    ones = np.ones(2)

    qubit = [(2, 2)]

    def draw(t: int, d: int, rng: np.random.Generator) -> tuple:
        return rng.dirichlet(ones, size=3), _normals(rng, qubit * 5)

    def compute(d: int, trial_ids: list[int], weights, normals
                ) -> list[dict]:
        probs, spectra = weights[:, 0], weights[:, 1:]
        g = np.stack(_gaussians(normals, qubit * 5), axis=1)
        common, factors, bases = g[:, 0], g[:, 1:3], g[:, 3:]
        n = len(trial_ids)
        # classical-classical: Bob's two states share the eigenbasis u
        u = _unitary_from_ginibre(common)[:, None]
        bob = StateStack.check(((u * spectra[:, :, None, :]) @ _adjoint(u))
                               .reshape(-1, 2, 2)).matrix.reshape(n, 2, 2, 2)
        cc = StateStack.check(discord_mod._classical_quantum(
            probs, [bob[:, 0], bob[:, 1]]))
        a, b = StateStack.check(_density_from_ginibre(
            factors.reshape(-1, 2, 2))).matrix.reshape(n, 2, 2, 2).swapaxes(0, 1)
        # np.kron(a, b) of each trial's factors, entry by entry
        product = StateStack.check(
            (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, 4, 4))
        # one projector per outcome (a column of each measurement basis)
        unitaries = as_matrix(_unitary_from_ginibre(bases).reshape(-1, 2, 2),
                              stacked=True)
        proj = _projectors(_pure_states(unitaries.swapaxes(-1, -2).reshape(-1, 2)))
        # members (trial, state, measurement, outcome), in the order
        # the per-trial loop builds them
        shape = (n, 2, 2, 2)
        rho = np.stack([cc.matrix, product.matrix], axis=1)[:, :, None, None]
        outcome_probs, possible, conds = discord_mod._conditional_states(
            np.broadcast_to(rho, shape + (4, 4)).reshape(-1, 4, 4), (2, 2),
            np.broadcast_to(proj.reshape(n, 1, 2, 2, 2, 2),
                            shape + (2, 2)).reshape(-1, 2, 2))
        states = np.zeros((possible.size, 2, 2), dtype=np.complex128)
        states[possible] = conds.matrix
        possible = possible.reshape(n, 2, 4)
        noncommuting = discord_mod._noncommuting(
            states.reshape(n, 2, 4, 2, 2)[:, 0], possible[:, 0])
        # the most likely possible outcome of each measurement; ties go
        # to the first. Each (trial, state) pair witnesses the picks of
        # its two measurements, found by their place among the possible
        # outcomes, which are all that ``conds`` holds
        likely = np.argmax(np.where(possible.reshape(-1, 2),
                                    outcome_probs.reshape(-1, 2), -np.inf),
                           axis=-1) + np.arange(0, possible.size, 2)
        first, second = (np.cumsum(possible) - 1)[likely].reshape(-1, 2).T
        verdicts = [r.verdict for r in discord_mod._witness_conditionals(
            conds.take(first), conds.take(second))]
        records = []
        for t, found, cq, prod in zip(trial_ids, noncommuting.tolist(),
                                      verdicts[::2], verdicts[1::2]):
            records.append({
                "trial": t,
                "cq_noncommuting": found,
                "cq_verdict": cq.value,
                "product_verdict": prod.value,
                "counterexample": (found or Verdict.NONPOSITIVE_WITNESSED
                                   in (cq, prod)),
            })
        return records

    records = _batched(trials, [2], seed, draw, compute)
    return records, _summary("discord", trials, [], seed, records,
                             [("counterexamples", "counterexample")])


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
