"""Command-line front end.

Reports go to stdout, messages and timing to stderr. Exit codes are a
stable contract:

====  =========================================================
code  meaning
====  =========================================================
0     done; verdict POSITIVE or NULL_ANTICOMMUTATOR where one applies
1     a scan found counterexamples
2     input or validation error
10    quantumness witnessed (NONPOSITIVE_WITNESSED)
11    inputs commute, nothing to witness
12    degenerate leading eigenvalue, amplification cannot sharpen
13    leading-vector overlap at a boundary, margin condition unusable
141   stdout was closed before the report was written (128 + SIGPIPE)
====  =========================================================

All floats are printed with 17 significant digits so JSON output
round-trips losslessly, and repeated runs with the same seed are
byte-identical on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from typing import Sequence

import numpy as np

from . import __version__
from .errors import (
    CommutingInputsError,
    ConditionUnreachableError,
    DegenerateDenominatorError,
    DegenerateSpectrumError,
    QwitnessError,
    UnresolvableError,
)
from .states import (
    DensityOperator,
    as_pure_state,
    bloch_to_state,
    complex_from_json,
    pure_decompose,
    state_from_json,
    state_to_json,
)
from .tolerances import (EIGEN_DIM_CAP, GRID_CAP, PLAN_CAP, SCAN_KINDS,
                         SHOTS_CAP, TOL_COMM, TOL_F, TOL_NULL, TOL_WITNESS,
                         TRIALS_CAP)
from .witness import (
    Verdict,
    amplify,
    first_order_purity,
    margin_terms,
    nested_witness,
    plan_amplification,
    pure_mixed_test,
    witness_anticommutator,
)

# scans, discord, interferometer and csv are imported by the commands
# that use them, so that a run loads only what its command reads

__all__ = ["main"]

EXIT_OK = 0
EXIT_COUNTEREXAMPLES = 1
EXIT_INPUT = 2
EXIT_WITNESSED = 10
EXIT_COMMUTING = 11
EXIT_DEGENERATE = 12
EXIT_UNREACHABLE = 13
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

_ENV_SEED = "QWITNESS_SEED"


# ---------------------------------------------------------------- output

def _float_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite number")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Deterministic one-line JSON with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_repr(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join([json.dumps(str(key)) + ": " + dumps(value)
                                for key, value in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([dumps(value) for value in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# records per write of a scan, so that the text of a large scan is never
# held whole beside its records
_WRITE_CHUNK = 1024


def _write_records(records: Records, out, cell=dumps, header=None) -> None:
    """Write a scan's rows as lines, a chunk of rows at a time: each
    row's JSONL record ``dumps(record) + "\\n"`` or, with a ``header``,
    its CSV row over the header, with an empty cell for each key outside
    its layout. The rows of one key layout in a chunk fill one
    %-template, column by column: floats through ``%.17g`` once checked
    finite, ints through ``%d``, and any other value as its ``cell``
    text, made once per distinct str or None and per entry of a bool or
    dictionary-encoded column that the chunk's rows use. A chunk that
    fails to encode is written row by row, so that it raises after
    writing the rows before the failing one."""
    for start in range(0, len(records), _WRITE_CHUNK):
        stop = min(start + _WRITE_CHUNK, len(records))
        try:
            text = _chunk(records, start, stop, cell, header)
        except (ValueError, TypeError):
            for k in range(start, stop):
                out.write(_chunk(records, k, k + 1, cell, header))
            raise  # pragma: no cover - some row fails alone as in its chunk
        out.write(text)


def _chunk(records: Records, start: int, stop: int, cell, header) -> str:
    """The lines of rows start..stop-1 of ``records``."""
    which = records.which[start:stop]
    lines = np.empty(stop - start, dtype=object)
    for w, layout in enumerate(records.layouts):
        at = np.flatnonzero(which == w)
        if not len(at):
            continue
        keys = layout if header is None else [k for k in header if k in layout]
        fields, columns = {}, []
        for key in keys:
            fields[key], values = _field(records.columns[key], start + at,
                                         cell)
            columns.append(values)
        if header is None:
            template = "{" + ", ".join(
                json.dumps(str(key)).replace("%", "%%") + ": " + field
                for key, field in fields.items()) + "}\n"
        else:
            template = ",".join(fields.get(key, cell(None))
                                for key in header) + "\n"
        lines[at] = (list(map(template.__mod__, zip(*columns))) if columns
                     else [template % ()] * len(at))
    return "".join(lines.tolist())


def _field(column, rows: np.ndarray, cell) -> tuple[str, list]:
    """The template field of the entries ``rows`` of a column and the
    values it formats (see :func:`_write_records`)."""
    from .scans import Coded

    if isinstance(column, np.ndarray) and column.dtype == bool:
        column = Coded([False, True], column.view(np.int8))
    if isinstance(column, Coded):
        codes = column.codes[rows]
        used = np.bincount(codes, minlength=len(column.values)).tolist()
        texts = np.array([cell(value) if n else "" for value, n
                          in zip(column.values, used)], dtype=object)
        return "%s", texts[codes].tolist()
    values = column[rows]
    if values.dtype.kind in "fiu":
        if not np.isfinite(values).all():
            raise ValueError("refusing to serialize a non-finite number")
        return "%.17g" if values.dtype.kind == "f" else "%d", values.tolist()
    values = values.tolist()
    if set(map(type, values)) <= {str, type(None)}:
        texts = {value: cell(value) for value in set(values)}
        return "%s", list(map(texts.__getitem__, values))
    return "%s", list(map(cell, values))


def _csv_cells(columns: int):
    """The cell rule of a CSV table of ``columns`` columns: the ``csv``
    module quotes a value's text (empty for None, a str itself, a list's
    texts joined by ';', else ``dumps``) as in a row of that many cells,
    so an empty only cell reads ``""``. Its rule for a bare \\r differs
    between Python versions, so a rule written here would drift."""
    import csv

    def text(value) -> str:
        if value is None or isinstance(value, str):
            return value or ""
        if isinstance(value, (list, tuple)):
            return ";".join(map(text, value))
        return dumps(value)

    # writerow returns what its file's write returns: here, the line
    echo = csv.writer(argparse.Namespace(write=str), lineterminator="\n")
    pad = ("",) * min(columns - 1, 1)
    return lambda value: echo.writerow((text(value), *pad))[:-1 - len(pad)]


def _write_csv(records: Records, out) -> None:
    """Write a scan's records as CSV: a header of the keys of the
    layouts its rows use, each layout taken in the order in which it
    first appears, then the rows through :func:`_write_records`."""
    header = list(dict.fromkeys(key for w in dict.fromkeys(
        records.which.tolist()) for key in records.layouts[w]))
    cell = _csv_cells(len(header))
    out.write(",".join(map(cell, header)) + "\n")
    _write_records(records, out, cell, header)


def _print(obj) -> None:
    sys.stdout.write(dumps(obj) + "\n")


# ---------------------------------------------------------------- inputs

def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nests too deeply") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _parse_state(spec: str) -> DensityOperator:
    """A state argument: JSON file path, or an inline qubit Bloch triple
    like ``0.3,0,0.5``."""
    parts = spec.split(",")
    if len(parts) == 3:
        try:
            triple = [float(p) for p in parts]
        except ValueError:
            triple = None
        if triple is not None:
            return bloch_to_state(triple)
    return state_from_json(_read_json(spec))


def _top_vector(state: DensityOperator) -> np.ndarray:
    dec = pure_decompose(state)
    if dec.eta is not None:
        raise ValueError("probe state must be pure (leading eigenvalue "
                         f"{float(state.spectrum.eigenvalues[0]):.17g})")
    return dec.psi


def _load_probe(path: str) -> np.ndarray:
    """Probe vector from a witness report, an amplitude list, or a pure
    state file."""
    obj = _read_json(path)
    if isinstance(obj, dict) and ("witness_vector" in obj or "amplitudes" in obj):
        pairs = obj.get("witness_vector", obj.get("amplitudes"))
        if not isinstance(pairs, list):
            raise ValueError("probe amplitudes must be a list of [re, im] pairs")
        return as_pure_state([complex_from_json(cell, f"amplitude {i}")
                              for i, cell in enumerate(pairs)])
    return _top_vector(state_from_json(obj))


def _parse_dims(text: str) -> tuple[int, ...]:
    """The comma-separated integers of a --dims value."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad --dims {text!r}; expected comma-separated "
                         "integers") from None


def _resolve_seed(args) -> int:
    """--seed, else $QWITNESS_SEED, else 0; a value that is not an
    integer >= 0 is malformed input, named by its flag or variable."""
    if args.seed is not None:
        name, seed = "--seed", args.seed
    else:
        name, text = _ENV_SEED, os.environ.get(_ENV_SEED, "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"bad {name} {text!r}; expected an integer "
                             ">= 0") from None
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")
    return seed


_TOL_DEFAULTS = {"witness": TOL_WITNESS, "null": TOL_NULL,
                 "comm": TOL_COMM, "f": TOL_F}


def _tols(args, names: Sequence[str]) -> dict[str, float]:
    """The tolerances ``names`` a command reads, with the --tol
    overrides; naming any other tolerance is malformed input."""
    tols = {name: _TOL_DEFAULTS[name] for name in names}
    for item in args.tol or ():
        name, sep, text = item.partition("=")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not sep or name not in tols or not 0.0 <= value < math.inf:
            raise ValueError(
                f"bad --tol {item!r}; expected NAME=VALUE with NAME in "
                f"{sorted(tols)} and VALUE finite and >= 0")
        tols[name] = value
    return tols


def _verdict_exit(verdict: Verdict) -> int:
    return EXIT_WITNESSED if verdict is Verdict.NONPOSITIVE_WITNESSED else EXIT_OK


# -------------------------------------------------------------- commands

def cmd_witness(args) -> int:
    tols = _tols(args, ("witness", "null"))
    rho1 = _parse_state(args.states[0])
    rho2 = _parse_state(args.states[1])
    lam = rho1.spectrum.eigenvalues
    if 1.0 - float(lam[0]) <= 1e-12:
        # a pure first state gets the cross-checked closed-form route
        report = pure_mixed_test(rho1.spectrum.eigenvectors[:, 0], rho2,
                                 tol_witness=tols["witness"],
                                 tol_null=tols["null"])
    else:
        report = witness_anticommutator(rho1, rho2,
                                        tol_witness=tols["witness"],
                                        tol_null=tols["null"])
    _print(report.to_dict())
    return _verdict_exit(report.verdict)


def cmd_nested(args) -> int:
    tols = _tols(args, ("witness", "null", "comm", "f"))
    sigma1 = _parse_state(args.states[0])
    sigma2 = _parse_state(args.states[1])
    result = nested_witness(
        sigma1, sigma2, args.target,
        tol_comm=tols["comm"], tol_witness=tols["witness"],
        tol_null=tols["null"], tol_f=tols["f"],
        plan_cap=args.cap)
    o = result.overlap
    lhs, rhs = margin_terms(o)
    try:
        purity = first_order_purity(o, tol_f=tols["f"])
    except DegenerateDenominatorError:  # the verdict stands without it
        purity = None
    _print({
        "target_epsilon": args.target,
        "plan1": result.plan1._asdict(),
        "plan2": result.plan2._asdict(),
        "overlap": {"f": abs(o.f), "g1": o.g1, "g2": o.g2,
                    "eps1": o.eps1, "eps2": o.eps2},
        "condition": {"lhs": lhs, "rhs": rhs, "met": result.condition_met},
        "first_order_purity": purity,
        "report": result.report.to_dict(),
    })
    return _verdict_exit(result.report.verdict)


def cmd_amplify(args) -> int:
    # --target plans and --n applies; neither reads the other's flag
    if args.n is None and args.out is not None:
        raise ValueError("--out is read only with --n")
    if args.n is not None and args.cap is not None:
        raise ValueError("--cap is read only with --target")
    rho = _parse_state(args.state)
    if args.n is not None:
        if args.n < 1:
            raise ValueError("--n must be >= 1")
        amplified = amplify(rho, args.n)
        payload = state_to_json(amplified)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dumps(payload) + "\n")
        else:
            _print(payload)
        return EXIT_OK
    plan = plan_amplification(rho, args.target,
                              cap=PLAN_CAP if args.cap is None else args.cap)
    _print(plan._asdict())
    return EXIT_DEGENERATE if plan.degenerate else EXIT_OK


def cmd_circuit(args) -> int:
    from .interferometer import (check_circuit_size, run_circuit_exact,
                                 sample_readout, shots_to_resolve)

    states = [_parse_state(s) for s in args.states]
    copies = args.copies if args.copies is not None else len(states)
    if copies < 1:
        raise ValueError("--copies must be >= 1")
    if copies != len(states):
        if len(states) != 1:
            raise ValueError(
                "give exactly --copies states, or one state to replicate")
        check_circuit_size(states[0].dim, copies + 1)
        states = states * copies
    probe = _load_probe(args.probe)
    if args.shots is not None and args.shots < 1:
        raise ValueError("--shots must be >= 1")
    if args.shots is not None and args.shots > SHOTS_CAP:
        raise ValueError(f"--shots must be <= {SHOTS_CAP}, got {args.shots}")
    exact = run_circuit_exact(states, probe)
    if args.shots is None:
        _print({"exact": exact})
        return EXIT_OK
    seed = _resolve_seed(args)
    estimate, stderr = sample_readout(exact, args.shots, seed)
    try:
        recommended = shots_to_resolve(exact, 5.0)
    except UnresolvableError:
        recommended = None
    _print({
        "exact": exact,
        "estimate": estimate,
        "stderr": stderr,
        "shots": args.shots,
        "seed": seed,
        "shots_to_resolve": recommended,
        "version": __version__,
    })
    return EXIT_OK


def _parse_bipartite(spec: str, dims: str | None) -> BipartiteState:
    from .discord import BipartiteState, bell_state

    pair = None if dims is None else _parse_dims(dims)
    if pair is not None and len(pair) != 2:
        raise ValueError(f"bad --dims {dims!r}; expected dA,dB")
    if spec == "bell":
        bell = bell_state()
        if pair not in (None, bell.dims):
            raise ValueError(f"bad --dims {dims!r}; the bell state is 2,2")
        return bell
    state = state_from_json(_read_json(spec))
    if pair is None:
        raise ValueError("file states need --dims dA,dB")
    return BipartiteState(state=state, dims=pair)


def cmd_discord(args) -> int:
    from .discord import (select_outcome, witness_conditionals,
                          x_measurement, z_measurement)

    families = {"z": z_measurement, "x": x_measurement}
    tols = _tols(args, ("witness", "null", "comm"))
    rho_ab = _parse_bipartite(args.state, args.dims)
    op_names = args.ops.split(",")
    outcomes = args.outcomes.split(",")
    if len(op_names) != 2 or len(outcomes) != 2:
        raise ValueError("--ops and --outcomes each need two "
                         "comma-separated entries")
    measurements = []
    for name in op_names:
        if name not in families:
            raise ValueError(
                f"unknown measurement {name!r}; have {sorted(families)}")
        measurements.append(families[name]())
    selected = {which: select_outcome(rho_ab, meas, outcome, which)
                for which, meas, outcome in zip(("first", "second"),
                                                measurements, outcomes)}
    report = witness_conditionals(selected["first"][1], selected["second"][1],
                                  tol_witness=tols["witness"],
                                  tol_null=tols["null"], tol_comm=tols["comm"])
    _print({
        "probabilities": {which: prob for which, (prob, _) in selected.items()},
        "conditionals": {which: state_to_json(state)
                         for which, (_, state) in selected.items()},
        "report": report.to_dict(),
    })
    return _verdict_exit(report.verdict)


def cmd_scan(args) -> int:
    from .scans import Coded, Records, run_scan

    dims = _parse_dims(args.dims)
    # a scan holds all its records; bounded before any trial runs
    caps = {"trials": TRIALS_CAP, "grid": GRID_CAP}
    for flag, value in (("trials", args.trials), ("grid", args.grid),
                        ("jobs", args.jobs), *(("dims", d) for d in dims)):
        if value < 1:
            raise ValueError(f"--{flag} must be >= 1")
        if value > caps.get(flag, value):
            raise ValueError(f"--{flag} must be <= {caps[flag]}, got {value}")
    # bounded before any trial draws or allocates a d x d stack
    if max(dims) > EIGEN_DIM_CAP:
        raise ValueError(f"--dims entries must be <= {EIGEN_DIM_CAP}, "
                         f"got {max(dims)}")
    seed = _resolve_seed(args)
    if args.jobs > 1:
        print(f"note: --jobs {args.jobs} is ignored; scans run serially",
              file=sys.stderr)
    # opened before any trial runs, so that a bad path fails first
    with (open(args.csv, "w", encoding="utf-8") if args.csv
          else contextlib.nullcontext()) as summary_csv:
        start = time.perf_counter()
        records, summary = run_scan(args.kind, trials=args.trials, dims=dims,
                                    seed=seed, grid=args.grid)
        elapsed = time.perf_counter() - start
        summary = {**summary, "version": __version__}
        if args.format == "csv":
            _write_csv(records, sys.stdout)
        else:
            _write_records(records, sys.stdout)
        _print(summary)
        if summary_csv:  # one row, each value a dictionary of one entry
            _write_csv(Records(1, {key: Coded([value], np.zeros(1, np.int8))
                                   for key, value in summary.items()}),
                       summary_csv)
    print(f"scan {args.kind}: {len(records)} records in {elapsed:.3f} s",
          file=sys.stderr)
    counterexamples = summary.get("counterexamples", 0)
    return EXIT_OK if counterexamples == 0 else EXIT_COUNTEREXAMPLES


# ---------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built on first use: it
    holds no state between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="qwitness",
        description="Anticommutator quantumness witnesses for state pairs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("witness",
                       help="spectral witness report for a state pair")
    p.add_argument("--states", nargs=2, required=True, metavar="STATE",
                   help="two state files or inline Bloch triples x,y,z")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a tolerance: witness, null")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("nested", help="amplify two mixed states, then witness")
    p.add_argument("--states", nargs=2, required=True, metavar="STATE")
    p.add_argument("--target", type=float, required=True,
                   help="target mixedness epsilon after amplification")
    p.add_argument("--cap", type=int, default=PLAN_CAP,
                   help="iteration cap of each amplification plan")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a tolerance: witness, null, comm, f")
    p.set_defaults(func=cmd_nested)

    p = sub.add_parser("amplify", help="plan or apply purity amplification")
    p.add_argument("--state", required=True, metavar="STATE")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", type=float,
                       help="plan the smallest n reaching this epsilon")
    group.add_argument("--n", type=int, help="apply rho -> rho^n / tr")
    p.add_argument("--out", help="with --n, write the amplified state here")
    p.add_argument("--cap", type=int, default=None,
                   help=f"with --target, iteration cap of the plan "
                        f"(default {PLAN_CAP})")
    p.set_defaults(func=cmd_amplify)

    p = sub.add_parser("circuit", help="controlled-shift interferometer run")
    p.add_argument("--states", nargs="+", required=True, metavar="STATE")
    p.add_argument("--probe", required=True,
                   help="probe file: witness report, amplitudes, or pure state")
    p.add_argument("--shots", type=int, default=None,
                   help="sample this many control readouts")
    p.add_argument("--copies", type=int, default=None,
                   help="number of state registers")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (falls back to ${_ENV_SEED}, then 0)")
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("discord-demo",
                       help="witness discord from two conditional states")
    p.add_argument("--state", required=True,
                   help='"bell" or a bipartite state file')
    p.add_argument("--dims", default=None,
                   help="dA,dB factorization for file states")
    p.add_argument("--ops", required=True,
                   help="two measurement families, e.g. z,x")
    p.add_argument("--outcomes", required=True,
                   help="one outcome label per family, e.g. 0,+; a value "
                        "that starts with '-' takes the = form, "
                        "--outcomes=-,1")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a tolerance: witness, null, comm")
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("scan",
                       help="randomized property scan, JSONL per trial")
    p.add_argument("--kind", required=True, choices=SCAN_KINDS)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dims", default="2,3,4",
                   help="comma-separated dimensions to cycle over")
    p.add_argument("--grid", type=int, default=100,
                   help="vectors per axis for the bloch grid")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="also write the summary as CSV here")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl",
                   help="format of the trial records")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; scans run serially")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (falls back to ${_ENV_SEED}, then 0)")
    p.set_defaults(func=cmd_scan)

    return parser


# the errors a command reports; the first matching row decides the code
_REPORTED = (QwitnessError, KeyError, OSError, ValueError, TypeError,
             MemoryError)
_EXIT_CODES = (
    (CommutingInputsError, EXIT_COMMUTING),
    (DegenerateSpectrumError, EXIT_DEGENERATE),
    (ConditionUnreachableError, EXIT_UNREACHABLE),
    (_REPORTED, EXIT_INPUT),
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader is gone: send what stdout still buffers, and the
        # flush at shutdown, to the null device instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _REPORTED as exc:
        # a KeyError's str() quotes its key; print the bare message
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {str(detail) or type(exc).__name__}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
