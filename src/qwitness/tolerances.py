"""Named numerical tolerances, capacity limits and scan kinds.

Relative tolerances are scaled by a norm at the point of use; absolute
ones are compared directly. Five thresholds are written at their single
check instead:

- ``cli.cmd_witness``: a first state at 1 - lambda_1 <= 1e-12 takes
  the pure-first route;
- ``states._pure_states``: unit norm within 1e-12 (``as_pure_state``
  and the discord scan's measurement vectors);
- ``states.bloch_to_state``: Bloch norm at most 1 + 1e-12;
- ``witness._agreed``: the closed-form and eigen purity criteria agree
  within 1e-10 relative;
- ``witness._check_projector``: idempotent within 1e-10 relative, and
  trace within 1e-8 of the rank.
"""

from __future__ import annotations

# allowed Hermiticity deviation, relative to the Frobenius norm
TOL_HERM = 1e-10

# allowed |trace - 1| for density operators (absolute)
TOL_TRACE = 1e-10

# allowed negative eigenvalue magnitude for PSD checks (absolute)
TOL_PSD = 1e-10

# verdict thresholds (absolute): witnessed negativity, null operator,
# commutator vanishing
TOL_WITNESS = 1e-10
TOL_NULL = 1e-10
TOL_COMM = 1e-10

# top-gap degeneracy flag: gap <= TOL_DEGEN * lambda_max
TOL_DEGEN = 1e-8

# overlap boundary guard: at |f| <= TOL_F or |f| >= 1 - TOL_F the margin
# condition cannot certify a pair, so `witness._guard_overlap` raises
# ConditionUnreachableError; `nested` exits 13 with it and
# `discord-demo` falls back to the direct spectral report. No command
# runs the orthogonal / parallel case analyses of `witness` yet
TOL_F = 1e-6

# hard cap on the amplification-plan iteration scan
PLAN_CAP = 10**6

# dimension cap for dense eigendecompositions
EIGEN_DIM_CAP = 256

# cap on the bloch scan's vectors per axis: a scan holds grid**2
# records as columns, ~60 bytes each, ~60 MB at the cap
GRID_CAP = 1000

# cap on a scan's trials: a scan holds all its records as columns,
# 30-120 bytes each, ~0.12 GB at the cap
TRIALS_CAP = 1_000_000

# the kinds `scans.run_scan` runs, here so that the CLI parser offers
# them without importing `scans`
SCAN_KINDS = ("pure-mixed", "nested", "bloch", "null", "discord")

# byte budget of a shift circuit's readout, charged at 16 l + 32 bytes
# per basis index over l registers, which bounds the ~8 l + 32 that
# the readout holds: at most 19 registers at d = 2, 12 at d = 3 and 10
# at d = 4
CIRCUIT_BYTES = 256 << 20

# cap on a sampled circuit's shots: numpy draws the binomial count as a
# signed 64-bit integer
SHOTS_CAP = 2**63 - 1
