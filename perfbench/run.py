"""qwitness benchmark: one workload per call, in fresh processes.

Run from the repository root:

    python3 perfbench/run.py --workload scan-mixed --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn. The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric a ``value`` and a ``unit``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is the full report: environment record, stdout
digest, failed ratio, sample counts and problems found. The exit code
is 0 only when every operation passed its checks.

Every child process gets one BLAS thread and the package from ``src``.
``setup_s`` is the median wall time of fresh interpreters that import
``qwitness.cli`` and generate the workload's inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, ".out")

WORKLOADS = ("scan-mixed", "scan-grid", "cli-oneshot", "circuit-dense")
BLAS_THREADS = "1"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"trials_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("QWITNESS_SEED", None)
    return env


def worker_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *extra]


def measure_setup(workload: str, seed: int, env: dict[str, str], repeats: int) -> list[float]:
    """Wall times of ``repeats`` fresh set-up processes.

    stdout is a pipe so that ``run`` returns when the pipe closes at the
    child's exit: with a timeout and no pipe it polls for the exit with
    sleeps of up to 50 ms, which would show in the times as steps.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(worker_cmd(workload, seed, "--setup-only"), env=env, cwd=ROOT,
                       check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE)
        times.append(time.perf_counter() - start)
    return times


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Returns (final line, full report) for one workload.

    The set-ups are timed after one untimed warm-up, half before the
    workload run and half after it, so that a burst of load on a shared
    host meets only some of them.
    """
    env = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    setup = []
    if trace == 0:
        measure_setup(workload, seed, env, 1)
        setup = measure_setup(workload, seed, env, SETUP_REPEATS - SETUP_REPEATS // 2)
    result_file = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(result_file):
        os.remove(result_file)
    subprocess.run(worker_cmd(workload, seed, "--seconds", str(seconds), "--trace", str(trace),
                              "--result", result_file),
                   env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    with open(result_file, encoding="utf-8") as fh:
        report = json.load(fh)
    if trace == 0:
        setup += measure_setup(workload, seed, env, SETUP_REPEATS // 2)
        values = {**report["metrics"], "setup_s": statistics.median(setup)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        report["setup_samples_s"] = setup
    else:
        metrics = report["metrics"]
    report["metrics"] = metrics
    report["failed_ratio"] = report["failed"] / report["attempted"]
    report["seconds"] = seconds
    line = {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qwitness", "cli.py")):
        print(f"error: no qwitness sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            line, report = run_workload(workload, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            print(f"error: workload {workload} did not complete: {exc}", file=sys.stderr)
            return 1
        for problem in report["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({"report": report}))
        print(json.dumps(line), flush=True)
        ok = ok and line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
