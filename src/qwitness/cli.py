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
====  =========================================================

All floats are printed with 17 significant digits so JSON output
round-trips losslessly, and repeated runs with the same seed are
byte-identical on stdout.
"""

from __future__ import annotations

import argparse
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
    DegenerateSpectrumError,
    QwitnessError,
    UnresolvableError,
)
from .interferometer import (
    ShiftExperiment,
    check_circuit_dimension,
    run_circuit_exact,
    sample_readout,
    shots_to_resolve,
)
from .linalg import complex_from_json
from .scans import SCAN_KINDS, run_scan
from .states import (
    DensityOperator,
    as_pure_state,
    bloch_to_state,
    state_from_json,
    state_to_json,
)
from .tolerances import PLAN_CAP, TOL_COMM, TOL_F, TOL_NULL, TOL_WITNESS, TOTAL_DIM_CAP
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

_ENV_SEED = "QWITNESS_SEED"


# ---------------------------------------------------------------- output

def _float_repr(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to serialize a non-finite number")
    return format(x, ".17g")


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_repr(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic one-line JSON with 17-significant-digit floats."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _float_repr(float(value))
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


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
    lam = state.spectrum.eigenvalues
    if 1.0 - float(lam[0]) > 1e-10:
        raise ValueError("probe state must be pure "
                         f"(leading eigenvalue {float(lam[0]):.17g})")
    return np.ascontiguousarray(state.spectrum.eigenvectors[:, 0])


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


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        return int(env)
    return 0


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


def _plan_dict(plan) -> dict:
    return {
        "n": plan.n,
        "achieved_epsilon": plan.achieved_epsilon,
        "requested_epsilon": plan.requested_epsilon,
        "degenerate": plan.degenerate,
    }


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
    _print({
        "target_epsilon": args.target,
        "plan1": _plan_dict(result.plan1),
        "plan2": _plan_dict(result.plan2),
        "overlap": {"f": abs(o.f), "g1": o.g1, "g2": o.g2,
                    "eps1": o.eps1, "eps2": o.eps2},
        "condition": {"lhs": lhs, "rhs": rhs, "met": result.condition_met},
        "first_order_purity": first_order_purity(o, tol_f=tols["f"]),
        "report": result.report.to_dict(),
    })
    return _verdict_exit(result.report.verdict)


def cmd_amplify(args) -> int:
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
    plan = plan_amplification(rho, args.target, cap=args.cap)
    _print(_plan_dict(plan))
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
        check_circuit_dimension(states[0].dim, copies + 1, args.cap)
        states = states * copies
    probe = _load_probe(args.probe)
    if args.shots is not None and args.shots < 1:
        raise ValueError("--shots must be >= 1")
    exact = run_circuit_exact(
        ShiftExperiment(copies=tuple(states), probe=probe), cap=args.cap)
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
    if spec == "bell":
        return bell_state()
    state = state_from_json(_read_json(spec))
    if dims is None:
        raise ValueError("file states need --dims dA,dB")
    parts = dims.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad --dims {dims!r}; expected dA,dB")
    return BipartiteState(state=state, dims=(int(parts[0]), int(parts[1])))


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
    for flag in ("trials", "grid", "jobs"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1")
    seed = _resolve_seed(args)
    dims = tuple(int(p) for p in args.dims.split(","))
    if args.jobs > 1:
        print(f"note: --jobs {args.jobs} is ignored; scans run serially",
              file=sys.stderr)
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
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(_csv_text([summary]))
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
    p.add_argument("--out", help="write the amplified state here")
    p.add_argument("--cap", type=int, default=PLAN_CAP,
                   help="iteration cap of the plan")
    p.set_defaults(func=cmd_amplify)

    p = sub.add_parser("circuit", help="controlled-shift interferometer run")
    p.add_argument("--states", nargs="+", required=True, metavar="STATE")
    p.add_argument("--probe", required=True,
                   help="probe file: witness report, amplitudes, or pure state")
    p.add_argument("--shots", type=int, default=None,
                   help="sample this many control readouts")
    p.add_argument("--copies", type=int, default=None,
                   help="number of state registers")
    p.add_argument("--cap", type=int, default=TOTAL_DIM_CAP,
                   help="cap on the circuit dimension 2*d^l")
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
                   help="one outcome label per family, e.g. 0,+")
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
_REPORTED = (QwitnessError, KeyError, OSError, ValueError, TypeError)
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
        return args.func(args)
    except _REPORTED as exc:
        # a KeyError's str() quotes its key; print the bare message
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
