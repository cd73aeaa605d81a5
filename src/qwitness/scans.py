"""Randomized and gridded property scans.

Each scan returns its records plus a summary, and counts
counterexamples (expected zero) instead of stopping at the first
failure. The records are columns (:class:`Records`): one array per key,
one entry per trial, which the CLI prints without building a dict per
record; read as a sequence, they are one dict per trial. One rule
(``_summary``) builds every summary: the kind, size and seed, then each
count as the number of true entries of a column. Trial ``t`` draws only
from its own block of counters of the scan's Philox generator
(``_trial_streams``), so its record does not depend on how many trials
run and repeat runs are bit-identical.

``bloch`` builds and checks its axis states as one stack and takes the
anticommutators, spectra and ball conditions of all pairs in stacked
calls; its radius and angle columns are dictionary-encoded
(:class:`Coded`) over the axis.
``pure-mixed``, ``nested``, ``null`` and ``discord`` draw each block
of trials into one float64 array per dimension, a row per trial, which
each trial fills in place, in order from its stream: its integer draw
or its Dirichlet numbers (as standard exponential ones) first, then all
its Gaussian numbers in one ``standard_normal`` call, whose size is
worked out once per dimension. They then cut column slices of the rows
into states and run the checks and the linear algebra over stacks of
trials that share a dimension (``null``: and a branch and a rank;
``discord`` trials are all qubit pairs), in blocks of _CHUNK_BYTES of
draws. The draws have the bits of the ``normal`` and ``dirichlet``
calls of a per-trial loop. The stacked calls
are bit-identical to the per-matrix ones, each per-member dot product
(a norm's too) is taken by ``linalg._row_dots``, and each state passes
``DensityOperator``'s checks, so the records keep their bytes. Each
trial draws each of its states once, whatever its spectrum, and a
failed check raises what the per-trial loop would raise first.
The witness fields of ``pure-mixed``, ``nested`` and ``discord`` are
the columns of the stacked analysis (``witness._Analysis``): its
minimum eigenvalues, criteria, verdict texts and witnessed flags, with
no report built per trial. ``nested`` takes its other fields from the
columns of the nested witness (``witness._nested_columns``): a trial
that stops at a check keeps only its error, and no later stage
computes anything for it.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, QwitnessError
from .linalg import (_adjoint, anticommutator, as_matrix, commutator,
                     frobenius_norms)
from .states import (
    StateStack,
    _bloch_matrices,
    _density_from_ginibre,
    _draw_size,
    _gaussians,
    _ginibre_shape,
    _projectors,
    _pure_states,
    _unit_rows,
    _unitary_from_ginibre,
)
from .tolerances import (PLAN_CAP, SCAN_KINDS, TOL_COMM, TOL_F, TOL_NULL,
                         TOL_WITNESS)
from .witness import (
    _Analysis,
    _bloch_conditions,
    _leading_overlaps,
    _nested_columns,
    _pure_mixed_analysis,
    safe_nested_target,
)
from . import discord as discord_mod

__all__ = [
    "SCAN_KINDS",
    "Coded",
    "Records",
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
# what a batched trial adds to its block's size besides its row of
# draws: the stacks and columns a stacked pass holds per trial until it
# returns, so that a block of small trials holds a bounded number of
# them. Over a block of 1000 trials, tracemalloc measures at the pass's
# peak, above the draws and the records, ~2.0 KiB per nested trial at
# d = 2 and ~6.4 KiB at d = 4 (its state, amplified and remainder
# stacks; no per-trial object). A discord trial draws a row of 368
# bytes (six exponential numbers and 40 normals) and holds ~8.2 KiB: its
# 16 conditional members (the 4x4 state and the projector each starts
# from, the 2x2 state and spectrum it ends with, and the checks'
# temporaries) and the witness columns of its two pairs. 2 KiB is the
# least of them: a block then holds at most ~1000 trials, whose peak
# stays a few times _CHUNK_BYTES
_TRIAL_BYTES = 2048


class Coded(NamedTuple):
    """A dictionary-encoded column: row k holds ``values[codes[k]]``.
    The CLI formats each entry once per chunk of rows, not once per row,
    and never merges entries by value, so that 0.0 and -0.0 (equal, with
    equal hashes) stay apart."""

    values: list
    codes: np.ndarray


class Records(Sequence):
    """A scan's records as columns, read as the list of dicts they stand
    for.

    ``columns`` maps each key to one entry per row: an array (float,
    int, bool, or object for str and None values) or a :class:`Coded`
    column. Row k has the keys ``layouts[which[k]]`` in that order
    (``layouts[0]`` for every row by default); a key outside a row's
    layout holds a placeholder in that row. Indexing, slicing and iteration
    build rows as dicts of Python values (``_row``), and ``==`` compares
    those with a list's."""

    def __init__(self, size: int, columns: dict, layouts=None, which=None):
        self.size, self.columns = size, columns
        self.layouts = layouts or [tuple(columns)]
        self.which = np.zeros(size, np.int8) if which is None else which

    def __len__(self) -> int:
        return self.size

    def _row(self, k: int) -> dict:
        return {key: _entry(self.columns[key], k)
                for key in self.layouts[self.which[k]]}

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(self._row, range(self.size)[k]))
        return self._row(range(self.size)[k])

    def __iter__(self):
        return map(self._row, range(self.size))

    def __eq__(self, other):
        if isinstance(other, (list, Records)):
            return list(self) == list(other)
        return NotImplemented


def _entry(column, k: int):
    """Row k of a column, as a Python value."""
    if isinstance(column, Coded):
        return column.values[column.codes[k]]
    return column.item(k)


def _merged(blocks: list[Records]) -> Records:
    """The rows of ``blocks``, which share their keys, column types and
    layouts, in one block in the order of their ``trial`` column."""
    if not blocks:
        return Records(0, {})
    trials = np.concatenate([block.columns["trial"] for block in blocks])
    order = np.argsort(trials, kind="stable")

    def joined(parts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts)[order]

    return Records(len(order), {
        key: joined([block.columns[key] for block in blocks])
        for key in blocks[0].columns}, blocks[0].layouts,
        joined([block.which for block in blocks]))


def _trial_streams(seed: int):
    """The stream of each trial of a scan seeded ``seed``: one Philox
    generator, keyed once from ``SeedSequence(seed)``, with its counter
    reset to (0, 0, t, 0) before trial t draws. Each trial owns a block
    of 2**128 counters, so its draws depend on (seed, t) alone: the
    counter-based design of Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3" (SC11, 2011). The generator is shared, so no draw
    keeps it past its trial. The reset sets a state whose counter, key
    and buffer are lists of Python ints, which the state setter takes
    without unboxing a numpy scalar per word."""
    bits = np.random.Philox(np.random.SeedSequence(int(seed)))
    rng = np.random.Generator(bits)
    start = bits.state
    start["state"] = {name: words.tolist()
                      for name, words in start["state"].items()}
    start["buffer"] = start["buffer"].tolist()
    counter = start["state"]["counter"]

    def stream(t: int) -> np.random.Generator:
        counter[2] = t
        bits.state = start
        return rng

    return stream


def _batched(trials: int, dims: list[int], seed: int, draw, compute
             ) -> Records:
    """Records of trials 0..trials-1, computed over stacks.

    ``draw(d)``, called at the first trial of dimension d, returns the
    layouts of that dimension and its drawer. A layout lists the widths
    of the arrays a trial draws, in order. The trials of one dimension
    in a block share one float64 array, a row each, as wide as the
    widest layout: trial t fills the start of its row in place with
    ``drawer(t, row, rng)``, in order from its own stream
    (``_trial_streams``), and returns the index of its layout.
    ``compute(d, trial_ids, *stacks)`` then returns the block of the
    trials of one dimension and layout, in trial order, from each array
    of the layout as a column slice of their rows; the blocks are merged
    in trial order.
    It runs on blocks of about _CHUNK_BYTES, counting each trial's row
    and _TRIAL_BYTES. When a block fails, its trials run again one at a
    time, so that the error raised is the one a per-trial scan meets
    first; a ``draw(d)`` that fails ends its block before its trial.
    """
    stream = _trial_streams(seed)
    done: list[Records] = []
    drawers: dict = {}

    def drawn(members: dict[int, list[int]]) -> list[tuple]:
        """(d, trial ids, stacks) of each dimension and layout of a block,
        from the trial ids of each dimension."""
        groups = []
        for d, ids in members.items():
            layouts, drawer, width = drawers[d]
            rows = np.empty((len(ids), width))
            codes = [drawer(t, row, stream(t)) for t, row in zip(ids, rows)]
            ids, code_column = np.array(ids), np.array(codes)
            for code in sorted(set(codes)):
                taken = code_column == code
                part = rows if len(layouts) == 1 else rows[taken]
                cuts = list(accumulate(layouts[code], initial=0))
                groups.append((d, ids[taken], [part[:, a:b] for a, b
                                               in zip(cuts, cuts[1:])]))
        return groups

    def computed(groups: list[tuple]) -> list[Records]:
        try:
            return [compute(d, ids, *stacks) for d, ids, stacks in groups]
        except (QwitnessError, ValueError):
            for _, g, k in sorted((t, g, k) for g, (_, ids, _) in
                                  enumerate(groups)
                                  for k, t in enumerate(ids.tolist())):
                d, ids, stacks = groups[g]
                compute(d, ids[k:k + 1], *(s[k:k + 1] for s in stacks))
            raise  # pragma: no cover - some trial fails alone as in its block

    start = 0
    while start < trials:
        members: dict[int, list[int]] = {}
        size, stop = 0, start
        while stop < trials and size < _CHUNK_BYTES:
            d = dims[stop % len(dims)]
            if d not in drawers:
                try:
                    layouts, drawer = draw(d)
                except DimensionError:
                    computed(drawn(members))  # an earlier trial's error first
                    raise
                drawers[d] = layouts, drawer, max(map(sum, layouts))
            members.setdefault(d, []).append(stop)
            size += _TRIAL_BYTES + 8 * drawers[d][2]
            stop += 1
        done += computed(drawn(members))
        start = stop
    return _merged(done)


def _normal_drawer(shapes: list[tuple]):
    """The layouts and drawer (see :func:`_batched`) of a trial that fills
    its row with the Gaussian arrays of ``shapes`` in one
    ``standard_normal`` call, which draws the numbers of
    ``normal(size=row.size)``."""

    def drawer(t: int, row: np.ndarray, rng: np.random.Generator) -> int:
        rng.standard_normal(out=row)
        return 0

    return [(_draw_size(shapes),)], drawer


def _dirichlet_rows(e: np.ndarray) -> np.ndarray:
    """Dirichlet(1, 1) weights from pairs (..., 2) of standard exponential
    draws, with the bits of ``Generator.dirichlet(np.ones(2))``: it draws
    each weight as a standard gamma(1) variate, that is, a standard
    exponential one, and scales each pair by one over its sum."""
    return e * (1.0 / (e[..., 0] + e[..., 1]))[..., None]


def _summary(kind: str, trials: int, shape: list[tuple], seed: int,
             records: Records, counts: list[tuple[str, str]]) -> dict:
    """A scan's summary: its kind, trial count, ``shape`` (the
    ``("dims", dims)`` or ``("grid", n)`` pair it ran over, if any) and
    seed, then, for each (key, field) of ``counts``, the number of
    true entries of the bool column ``field``; pure-mixed adds the
    largest ``purity_deviation``. A scan of no records has no columns."""
    columns = records.columns
    summary = {"kind": kind, "trials": trials, **dict(shape), "seed": seed}
    for key, field in counts:
        summary[key] = int(np.count_nonzero(columns.get(field, ())))
    if kind == "pure-mixed":
        summary["max_purity_deviation"] = (
            float(columns["purity_deviation"].max()) if len(records) else 0.0)
    return summary


def scan_pure_mixed(trials: int, dims: Sequence[int],
                    seed: int) -> tuple[Records, dict]:
    """Witnessed verdict == noncommutation, for pure-vs-mixed pairs.

    Each trial draws its pure state and one Ginibre matrix; the claim
    holds for every mixed state, tied spectra included.
    """
    dims = list(dims)

    def shapes(d: int) -> list[tuple]:
        return [(d,), _ginibre_shape(d, d)]

    def draw(d: int):
        return _normal_drawer(shapes(d))

    def compute(d: int, trial_ids: np.ndarray, normals) -> Records:
        psi, g = _gaussians(normals, shapes(d))
        psi = _unit_rows(psi)
        rho2 = StateStack.check(_density_from_ginibre(g))
        analysis = _pure_mixed_analysis(psi, rho2, TOL_WITNESS, TOL_NULL)
        comm_norms = np.array(frobenius_norms(
            commutator(_projectors(psi), rho2.matrix)))
        return Records(len(trial_ids), {
            "trial": trial_ids,
            "dim": np.full(len(trial_ids), d),
            "commutator_norm": comm_norms,
            "min_eigenvalue": analysis.mins,
            "purity_criterion": analysis.criteria,
            "purity_deviation": np.array([
                0.0 if closed is None else abs(closed - criterion)
                for closed, criterion in zip(analysis.closed.tolist(),
                                             analysis.criteria.tolist())]),
            "verdict": analysis.verdicts,
            "counterexample": analysis.witnessed != (comm_norms > TOL_COMM),
        })

    records = _batched(trials, dims, seed, draw, compute)
    return records, _summary("pure-mixed", trials, [("dims", dims)], seed,
                             records, [("counterexamples", "counterexample")])


def scan_nested(trials: int, dims: Sequence[int],
                seed: int) -> tuple[Records, dict]:
    """Margin condition after planned amplification forces a witness.

    Each trial draws one Ginibre matrix per state; a trial with a tied
    top eigenvalue in either state records a DegenerateSpectrumError
    skip.
    """
    dims = list(dims)

    def draw(d: int):
        return _normal_drawer([_ginibre_shape(d, d)] * 2)

    def compute(d: int, trial_ids: np.ndarray, normals) -> Records:
        sigma1, sigma2 = (StateStack.check(_density_from_ginibre(g))
                          for g in _gaussians(normals, [(d, d)] * 2))
        targets = [safe_nested_target(f)
                   for f in _leading_overlaps(sigma1, sigma2)]
        nested = _nested_columns(sigma1, sigma2, targets, tol_comm=TOL_COMM,
                                 tol_f=TOL_F, plan_cap=PLAN_CAP)
        analysis = _Analysis(nested.anti, TOL_WITNESS, TOL_NULL)
        n = len(trial_ids)
        skipped = np.ones(n, dtype=bool)
        skipped[nested.live] = False

        def column(fill, values, rows=nested.live) -> np.ndarray:
            """``values`` at ``rows``, and ``fill`` as the value or the
            placeholder of every other trial."""
            out = np.full(n, fill)
            out[rows] = values
            return out

        return Records(n, {
            "trial": trial_ids,
            "dim": np.full(n, d),
            "skipped": skipped,
            "reason": column(None, [type(e).__name__ for e in nested.errors
                                    if e is not None], skipped),
            "n1": column(0, nested.plans[0].n),
            "n2": column(0, nested.plans[1].n),
            "eps1": column(0.0, nested.overlap.eps1),
            "eps2": column(0.0, nested.overlap.eps2),
            "overlap": column(0.0, nested.af),
            "condition": column(False, nested.condition),
            "min_eigenvalue": column(None, analysis.mins),
            "verdict": column(None, analysis.verdicts),
            "counterexample": column(False,
                                     nested.condition & ~analysis.witnessed),
        }, _NESTED_LAYOUTS, (~skipped).astype(np.int8))

    records = _batched(trials, dims, seed, draw, compute)
    return records, _summary("nested", trials, [("dims", dims)], seed, records,
                             [("skipped", "skipped"),
                              ("condition_met", "condition"),
                              ("counterexamples", "counterexample")])


# the keys of a skipped nested trial, then those of one that ran
_NESTED_LAYOUTS = [
    ("trial", "dim", "skipped", "reason", "condition", "min_eigenvalue",
     "verdict", "counterexample"),
    ("trial", "dim", "skipped", "reason", "n1", "n2", "eps1", "eps2",
     "overlap", "condition", "min_eigenvalue", "verdict", "counterexample"),
]


def _bloch_grid(count: int) -> tuple[list[float], list[float]]:
    """The radii and the polar angles of one grid axis: its point k is
    (radii[k // len(angles)], angles[k % len(angles)]), for k < count."""
    nr = max(1, math.isqrt(count))
    na = -(-count // nr)  # ceil
    return ([(i + 1) / nr for i in range(nr)],
            [j * math.pi / max(na - 1, 1) for j in range(na)])


def _bloch_axis(count: int) -> list[tuple[float, float]]:
    """(radius, polar angle) pairs for one grid axis, in the x-z plane."""
    radii, angles = _bloch_grid(count)
    return [(r, a) for r in radii for a in angles][:count]


def scan_bloch(grid: int = 100, *, seed: int = 0) -> tuple[Records, dict]:
    """Qubit ball condition implies a positive anticommutator.

    The two-vector geometry only depends on the radii and the angle
    between them, so the axes sample radius/angle pairs in a plane.
    Converse failures (condition false, operator still positive) are
    recorded but never counted as counterexamples. The axis states are
    built and checked as one stack; the pairs' anticommutators and
    spectra are stacked, and each pair's radii and angles are codes
    into the axis's distinct radii and angles.
    """
    axis = _bloch_axis(grid)
    radii, angles = _bloch_grid(grid)
    n = len(axis)
    vecs = np.array([[r * math.sin(a), 0.0, r * math.cos(a)]
                     for r, a in axis]).reshape(n, 3)
    axis_states = StateStack.check(_bloch_matrices(vecs)).matrix
    rows, cols = np.divmod(np.arange(n * n), n)
    min_eigs, condition = np.empty(n * n), np.empty(n * n, dtype=bool)
    step = _CHUNK_BYTES // np.zeros((2, 2), np.complex128).nbytes
    for start in range(0, n * n, step):
        pairs = slice(start, start + step)
        i, j = rows[pairs], cols[pairs]
        min_eigs[pairs] = np.linalg.eigvalsh(
            anticommutator(axis_states[i], axis_states[j])).min(axis=-1)
        condition[pairs] = _bloch_conditions(vecs, i, j)
    (r1, a1), (r2, a2) = (np.divmod(k, len(angles)) for k in (rows, cols))
    records = Records(n * n, {
        "i": rows,
        "j": cols,
        "r1": Coded(radii, r1),
        "theta1": Coded(angles, a1),
        "r2": Coded(radii, r2),
        "theta2": Coded(angles, a2),
        "condition": condition,
        "min_eigenvalue": min_eigs,
        "counterexample": condition & (min_eigs < -TOL_WITNESS),
        "converse_positive": ~condition & (min_eigs >= -TOL_WITNESS),
    })
    return records, _summary("bloch", n * n, [("grid", n)], seed, records,
                             [("counterexamples", "counterexample"),
                              ("converse_positive", "converse_positive")])


def scan_null(trials: int, dims: Sequence[int],
              seed: int) -> tuple[Records, dict]:
    """A vanishing anticommutator with a pure factor kills the product.

    Even trials construct a state supported orthogonally to the pure
    one (anticommutator exactly null); odd trials draw generic pairs,
    for which the premise almost surely fails and the check is vacuous.
    Trials of one dimension, branch and rank are stacked.
    """
    dims = list(dims)

    def draw(d: int):
        outer = _draw_size([(d,), _ginibre_shape(d, d)])
        # layout 0 for an odd trial (or d = 1); an even one's is its rank
        layouts = [(outer,)] + [(outer, _draw_size([(d - 1, rank)]))
                                for rank in range(1, d)]
        ends = list(map(sum, layouts))

        def drawer(t: int, row: np.ndarray, rng: np.random.Generator) -> int:
            rank = int(rng.integers(1, d)) if t % 2 == 0 and d > 1 else 0
            rng.standard_normal(out=row[:ends[rank]])
            return rank

        return layouts, drawer

    def compute(d: int, trial_ids: np.ndarray, outer, *inner) -> Records:
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
        anti_norms = np.array(frobenius_norms(anticommutator(proj, rho2)))
        product_norms = np.array(frobenius_norms(proj @ rho2))
        null = anti_norms <= TOL_NULL
        return Records(len(trial_ids), {
            "trial": trial_ids,
            "dim": np.full(len(trial_ids), d),
            "anticommutator_norm": anti_norms,
            "product_norm": product_norms,
            "null": null,
            "counterexample": null & (product_norms > 10.0 * TOL_NULL),
        })

    records = _batched(trials, dims, seed, draw, compute)
    return records, _summary("null", trials, [("dims", dims)], seed, records,
                             [("null_pairs", "null"),
                              ("counterexamples", "counterexample")])


def scan_discord(trials: int, seed: int) -> tuple[Records, dict]:
    """Zero-discord states never yield a witnessed verdict.

    Each trial builds a random classical-classical state (Bob's
    conditionals share one eigenbasis; its records keep the ``cq``
    prefix) and a random product state, scans a random pair of
    projective families for noncommuting conditionals of the first, and
    witnesses the most likely outcome of each family on both states.
    It draws the pointer probabilities and Bob's two spectra as three
    Dirichlet(1, 1) rows, from six standard exponential numbers
    (``_dirichlet_rows``), then, in one ``standard_normal`` call, the
    Ginibre matrices of Bob's common eigenbasis, the two product factors
    and the two measurement bases. The states, their conditionals and
    the witnesses are stacked over trials; an outcome of zero
    probability is masked out of the comparison and the pick.
    """

    qubit = [(2, 2)]

    def draw(d: int):
        size = _draw_size(qubit * 5)

        def drawer(t: int, row: np.ndarray, rng: np.random.Generator) -> int:
            rng.standard_exponential(out=row[:6])
            rng.standard_normal(out=row[6:])
            return 0

        return [(6, size)], drawer

    def compute(d: int, trial_ids: np.ndarray, exponentials,
                normals) -> Records:
        weights = _dirichlet_rows(exponentials.reshape(-1, 3, 2))
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
        analysis = discord_mod._witness_conditionals(conds.take(first),
                                                     conds.take(second))
        return Records(n, {
            "trial": trial_ids,
            "cq_noncommuting": noncommuting,
            "cq_verdict": analysis.verdicts[::2],
            "product_verdict": analysis.verdicts[1::2],
            "counterexample": noncommuting
            | analysis.witnessed.reshape(n, 2).any(axis=1),
        })

    records = _batched(trials, [2], seed, draw, compute)
    return records, _summary("discord", trials, [], seed, records,
                             [("counterexamples", "counterexample")])


def run_scan(kind: str, *, trials: int = 1000,
             dims: Sequence[int] = (2, 3, 4), seed: int = 0,
             grid: int = 100) -> tuple[Records, dict]:
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
