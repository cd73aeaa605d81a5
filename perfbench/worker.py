"""One workload run in a fresh process: set up, measure, check, trace.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH`` and
one BLAS thread. It writes its result as JSON to ``--result``.

Every run starts with one checked warm-up pass over the workload's
operations. Untraced (``--trace 0``) it then runs whole passes until
``--seconds`` have gone by and reports the end-to-end metrics, each
command timed at its best repeat (see ``end_to_end``). Traced
(``--trace 1``) it runs half the time untraced, then
half with the span recorder installed, and reports the per-layer
metrics and the tracing overhead; the traced half must print the same
bytes as the untraced half.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import qwitness.cli as cli

import envinfo
import layers
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
OUT_DIR = os.path.join("perfbench", ".out")


class Runner:
    """Runs operations and keeps what the oracles and digests found."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.digests: dict[int, str] = {}
        self.outcomes: dict[int, workloads.Outcome] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.recorder: spans.Recorder | None = None
        self.span_file = os.path.join(OUT_DIR, f"spans-{os.getpid()}.npz")

    def _inproc(self, argv: list[str]) -> tuple[object, bytes, float]:
        buf, sink = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(sink):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a harness error
                rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        return rc, buf.getvalue().encode(), elapsed

    def _subprocess(self, argv: list[str]) -> tuple[object, bytes, float]:
        if self.recorder is None:
            cmd = [sys.executable, "-m", "qwitness.cli", *argv]
        else:
            cmd = [sys.executable, TRACED_CLI, self.span_file, *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            return "timeout", b"", time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if self.recorder is not None and os.path.exists(self.span_file):
            self.recorder.extend(*spans.read_spans(self.span_file))
            os.remove(self.span_file)
        return proc.returncode, proc.stdout, elapsed

    def run(self, i: int) -> float:
        """Run operation ``i``, check it, and return its wall time."""
        op = self.ops[i]
        rc, out, elapsed = (self._subprocess if op.subprocess else self._inproc)(op.argv)
        digest = hashlib.sha256(out).hexdigest()
        self.attempted += op.units
        if i not in self.digests:
            outcome = op.oracle(rc, out.decode("utf-8", "replace"))
            outcome.failed = min(outcome.failed, op.units)
            self.digests[i], self.outcomes[i] = digest, outcome
            self.problems += [f"{op.label}: {p}" for p in outcome.problems]
            self.failed += outcome.failed
        elif digest != self.digests[i]:
            self.failed += op.units
            self.problems.append(f"{op.label}: stdout differs from its first run")
        else:
            self.failed += self.outcomes[i].failed
        return elapsed

    def phase(self, seconds: float, min_passes: int) -> dict:
        """Whole passes until ``seconds`` have elapsed (at least ``min_passes``)."""
        per_op: list[list[float]] = [[] for _ in self.ops]
        units = passes = 0
        start = time.perf_counter()
        while passes < min_passes or time.perf_counter() - start < seconds:
            for i, op in enumerate(self.ops):
                per_op[i].append(self.run(i))
                units += op.units
            passes += 1
        return {"per_op": per_op, "units": units, "passes": passes,
                "busy_s": sum(map(sum, per_op))}

    def pass_digest(self) -> str:
        return hashlib.sha256("".join(self.digests[i] for i in range(len(self.ops)))
                              .encode()).hexdigest()


def best_pass_s(phase: dict) -> float:
    """Wall time of one pass with every command at its best repeat."""
    return sum(map(min, phase["per_op"]))


def end_to_end(phase: dict, ops: list[workloads.Op], uses_children: bool) -> tuple[dict, dict]:
    """The end-to-end metrics, and what they were computed from.

    Each command's latency is its best (lowest) wall time over the
    run's passes, as ``timeit`` advises: on a shared host, interference
    from other tenants only ever adds time, and it comes in bursts of
    seconds that a median over a run does not outlast. A slower program
    raises every repeat, the best one too. The p50 and p90 are taken
    over the commands of one pass, the p90 by nearest rank so that it is
    one command's latency; ``trials_per_s`` is the units of a
    pass over the sum of its commands' best times. The wall-clock
    figures over all samples are kept in the report for reference.
    """
    best_ms = [min(ts) * 1e3 for ts in phase["per_op"]]
    all_ms = [x * 1e3 for ts in phase["per_op"] for x in ts]
    if uses_children:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "trials_per_s": sum(op.units for op in ops) / best_pass_s(phase),
        "latency_p50_ms": statistics.median(best_ms),
        "latency_p90_ms": sorted(best_ms)[math.ceil(0.9 * len(best_ms)) - 1],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {
        "commands": [{"label": op.label, "samples": len(ts), "best_ms": b,
                      "median_ms": statistics.median(ts) * 1e3}
                     for op, ts, b in zip(ops, phase["per_op"], best_ms)],
        "all_samples": {"samples": len(all_ms),
                        "trials_per_s": phase["units"] / phase["busy_s"],
                        "latency_p50_ms": statistics.median(all_ms),
                        "latency_p90_ms": statistics.quantiles(all_ms, n=10)[8]},
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", default=None)
    args = parser.parse_args(argv)

    input_dir = os.path.join(OUT_DIR, "inputs", f"{args.workload}-{args.seed}")
    ops = workloads.build(args.workload, args.seed, input_dir)
    if args.setup_only:
        return 0

    runner = Runner(ops)
    uses_children = any(op.subprocess for op in ops)
    result: dict = {"workload": args.workload, "seed": args.seed,
                    "operations_per_pass": len(ops),
                    "environment": envinfo.record(args.workload, args.seed)}
    # one checked pass first, so that lazy first-call costs stay out of the timings
    runner.phase(0.0, min_passes=1)
    if args.trace == 0:
        phase = runner.phase(args.seconds, min_passes=1)
        result["metrics"], result["latency_detail"] = end_to_end(phase, ops, uses_children)
        result["passes"] = phase["passes"]
    else:
        plain = runner.phase(args.seconds / 2, min_passes=1)
        runner.recorder = spans.Recorder()
        if not uses_children:
            runner.recorder.install()
        try:
            traced = runner.phase(args.seconds / 2, min_passes=1)
        finally:
            runner.recorder.uninstall()
        overhead = best_pass_s(traced) / best_pass_s(plain)
        counts = layers.PassCounts.from_ops(ops, runner.outcomes)
        result["metrics"] = layers.metrics(runner.recorder, traced["passes"], counts, overhead)
        result["passes"] = {"untraced": plain["passes"], "traced": traced["passes"]}
        result["spans"] = len(runner.recorder)
        runner.recorder.write(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["problems"] = runner.problems[:20]
    result["stdout_sha256"] = runner.pass_digest()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
