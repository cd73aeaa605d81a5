"""Per-layer metrics from the spans of a traced run.

Counts and times are given per pass, that is per run of the
workload's seeded operation list, so runs of different lengths compare.
An operation is a scan trial or one CLI invocation. Where a metric's
base is zero on a workload (no discord trials, no circuit calls), or
the layer is never called there, the metric reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import spans

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = (
    *((f"{layer}.{kind}", unit, "lower") for layer in spans.LAYERS
      for kind, unit in (("calls", "calls/pass"), ("self_s", "s/pass"))),
    ("states.DensityOperator.us_per_call", "us", "lower"),
    ("states.validations_per_trial", "calls/op", "lower"),
    ("numpy.eig.calls_per_state", "calls/state", "lower"),
    ("linalg.hermitian_eigen.us_per_call", "us", "lower"),
    ("numpy.eig.us_per_call", "us", "lower"),
    ("states.random_density.calls_per_trial", "calls/op", "lower"),
    ("scans.skipped_ratio", "ratio", "lower"),
    ("witness.pure_mixed_test.us_per_call", "us", "lower"),
    ("witness.nested_witness.us_per_call", "us", "lower"),
    ("witness.plan_amplification.us_per_call", "us", "lower"),
    ("discord.conditional_state.calls_per_trial", "calls/trial", "lower"),
    ("discord.conditional_state.us_per_call", "us", "lower"),
    ("cli.dumps.us_per_record", "us", "lower"),
    ("cli.emit_share", "ratio", "lower"),
    ("interferometer.run_circuit_exact.us_per_call", "us", "lower"),
    ("interferometer.run_circuit_sampled.us_per_call", "us", "lower"),
    ("interferometer.shift_operator.calls_per_invocation", "calls/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

EIG = ("numpy.eigh", "numpy.eigvalsh")
STATE_SPANS = ("states.DensityOperator", "states.DensityOperator.spectrum")
SCAN_KINDS = ("pure-mixed", "nested", "bloch", "null", "discord")


@dataclass(frozen=True)
class PassCounts:
    """Bases of the per-operation ratios, for one pass."""

    operations: int
    discord_ops: int
    circuit_ops: int
    scan_trials: int
    skipped: int

    @classmethod
    def from_ops(cls, ops, outcomes) -> "PassCounts":
        def units(kinds):
            return sum(op.units for op in ops if op.kind in kinds)

        return cls(operations=sum(op.units for op in ops),
                   discord_ops=units(("discord", "discord-demo")),
                   circuit_ops=units(("circuit",)),
                   scan_trials=units(SCAN_KINDS),
                   skipped=sum(o.skipped for o in outcomes.values()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def state_eig_calls(names: list[str], cols: dict[str, np.ndarray]) -> int:
    """Eigen-solver calls made on behalf of a state: those whose nearest
    caller outside ``linalg`` and ``numpy`` is ``DensityOperator``
    construction or its ``spectrum``."""
    name, parent = cols["name"], cols["parent"]
    lookthrough = np.array([spans.layer_of(n) in ("linalg", "numpy") for n in names])
    state_ids = [i for i, n in enumerate(names) if n in STATE_SPANS]
    eig_ids = [i for i, n in enumerate(names) if n in EIG]
    anc = parent[np.isin(name, eig_ids)]
    while True:
        climb = anc >= 0
        climb[climb] = lookthrough[name[anc[climb]]]
        if not climb.any():
            break
        anc[climb] = parent[anc[climb]]
    return int(np.isin(name[anc[anc >= 0]], state_ids).sum())


def metrics(recorder: spans.Recorder, passes: int, counts: PassCounts,
            overhead_ratio: float) -> dict[str, dict]:
    """Every per-layer metric of ``PER_LAYER``, as ``{name: {value, unit}}``."""
    names = recorder.names
    cols = recorder.arrays()
    dur = (cols["end"] - cols["start"]).astype(np.float64)
    own = spans.self_times(cols["start"], cols["end"], cols["parent"]).astype(np.float64)
    n = len(names)
    calls = np.bincount(cols["name"], minlength=n)
    total_ns = np.bincount(cols["name"], weights=dur, minlength=n)
    self_ns = np.bincount(cols["name"], weights=own, minlength=n)
    idx = {name: i for i, name in enumerate(names)}

    def count(*fns) -> float:
        return float(sum(calls[idx[f]] for f in fns if f in idx))

    def total_us(*fns) -> float:
        return float(sum(total_ns[idx[f]] for f in fns if f in idx)) / 1e3

    def us_per_call(*fns) -> float:
        return _ratio(total_us(*fns), count(*fns))

    values: dict[str, float] = {}
    for layer in spans.LAYERS:
        mine = [i for i, name in enumerate(names) if spans.layer_of(name) == layer]
        values[f"{layer}.calls"] = float(calls[mine].sum()) / passes
        values[f"{layer}.self_s"] = float(self_ns[mine].sum()) / 1e9 / passes
    states_made = count("states.DensityOperator")
    ops_seen = counts.operations * passes
    values.update({
        "states.DensityOperator.us_per_call": us_per_call("states.DensityOperator"),
        "states.validations_per_trial": _ratio(states_made, ops_seen),
        "numpy.eig.calls_per_state": _ratio(state_eig_calls(names, cols), states_made),
        "linalg.hermitian_eigen.us_per_call": us_per_call("linalg.hermitian_eigen"),
        "numpy.eig.us_per_call": us_per_call(*EIG),
        "states.random_density.calls_per_trial":
            _ratio(count("states.random_density"), ops_seen),
        "scans.skipped_ratio": _ratio(counts.skipped, counts.scan_trials),
        "witness.pure_mixed_test.us_per_call": us_per_call("witness.pure_mixed_test"),
        "witness.nested_witness.us_per_call": us_per_call("witness.nested_witness"),
        "witness.plan_amplification.us_per_call":
            us_per_call("witness.plan_amplification"),
        "discord.conditional_state.calls_per_trial":
            _ratio(count("discord.conditional_state"), counts.discord_ops * passes),
        "discord.conditional_state.us_per_call": us_per_call("discord.conditional_state"),
        "cli.dumps.us_per_record": us_per_call("cli.dumps"),
        "cli.emit_share": _ratio(total_us("cli.dumps"), total_us("cli.main")),
        "interferometer.run_circuit_exact.us_per_call":
            us_per_call("interferometer.run_circuit_exact"),
        "interferometer.run_circuit_sampled.us_per_call":
            us_per_call("interferometer.run_circuit_sampled"),
        "interferometer.shift_operator.calls_per_invocation":
            _ratio(count("interferometer.shift_operator"), counts.circuit_ops * passes),
        "trace.overhead_ratio": overhead_ratio,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
