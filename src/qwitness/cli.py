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
import csv
import io
import json
import math
import os
import sys
import time
from typing import Sequence

import numpy as np

from . import __version__
from .discord import (
    BipartiteState,
    bell_state,
    select_outcome,
    witness_conditionals,
    x_measurement,
    z_measurement,
)
from .errors import (
    CommutingInputsError,
    ConditionUnreachableError,
    DegenerateDenominatorError,
    DegenerateSpectrumError,
    QwitnessError,
    UnresolvableError,
)
from .interferometer import (
    check_circuit_size,
    run_circuit_exact,
    sample_readout,
    shots_to_resolve,
)
from .scans import SCAN_KINDS, run_scan
from .states import (
    DensityOperator,
    as_pure_state,
    bloch_to_state,
    complex_from_json,
    pure_decompose,
    state_from_json,
    state_to_json,
)
from .tolerances import (EIGEN_DIM_CAP, GRID_CAP, PLAN_CAP, SHOTS_CAP,
                         TOL_COMM, TOL_F, TOL_NULL, TOL_WITNESS, TRIALS_CAP)
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


# encoders of the exact types a record holds, looked up without an
# isinstance chain; numpy scalars, lists, tuples and subclasses take
# the chain in dumps
_SCALARS = {
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    float: _float_repr,
    str: json.dumps,
}
_KEYS: dict[str, str] = {}  # the encoded '"key": ' of each string key seen
_KEYS_MAX = 1024


def _key(key) -> str:
    prefix = _KEYS.get(key) if type(key) is str else None
    if prefix is None:
        prefix = json.dumps(str(key)) + ": "
        if type(key) is str and len(_KEYS) < _KEYS_MAX:
            _KEYS[key] = prefix
    return prefix


def dumps(obj) -> str:
    """Deterministic one-line JSON with 17-significant-digit floats."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, dict):  # a record's scalar values need no recursion
        parts = []
        for key, value in obj.items():
            scalar = _SCALARS.get(type(value))
            parts.append(_key(key) + (scalar(value) if scalar is not None
                                      else dumps(value)))
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_repr(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([dumps(value) for value in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(value) -> str:
    """A CSV cell: empty for None, a bare string, list entries joined
    by ';', and any other scalar as ``dumps`` encodes it."""
    if value is None:
        return ""
    if isinstance(value, str):
        return str(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return dumps(value)


def _csv_text(rows: Sequence[dict]) -> str:
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, restval="",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    return buf.getvalue()


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


_MEASUREMENTS = {"z": z_measurement, "x": x_measurement}


def _parse_bipartite(spec: str, dims: str | None) -> BipartiteState:
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
    tols = _tols(args, ("witness", "null", "comm"))
    rho_ab = _parse_bipartite(args.state, args.dims)
    op_names = args.ops.split(",")
    outcomes = args.outcomes.split(",")
    if len(op_names) != 2 or len(outcomes) != 2:
        raise ValueError("--ops and --outcomes each need two "
                         "comma-separated entries")
    measurements = []
    for name in op_names:
        if name not in _MEASUREMENTS:
            raise ValueError(
                f"unknown measurement {name!r}; have {sorted(_MEASUREMENTS)}")
        measurements.append(_MEASUREMENTS[name]())
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
            sys.stdout.write(_csv_text(records))
        else:
            for record in records:
                sys.stdout.write(dumps(record) + "\n")
        _print(summary)
        if summary_csv:
            summary_csv.write(_csv_text([summary]))
    print(f"scan {args.kind}: {len(records)} records in {elapsed:.3f} s",
          file=sys.stderr)
    counterexamples = summary.get("counterexamples", 0)
    return EXIT_OK if counterexamples == 0 else EXIT_COUNTEREXAMPLES


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
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
