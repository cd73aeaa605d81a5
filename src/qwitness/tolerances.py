"""Numerical tolerances and capacity limits, pinned in one place.

Relative tolerances are scaled by a norm at the point of use; absolute
ones are compared directly.
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
# condition cannot certify a pair, so `nested` exits 13 and
# `discord-demo` falls back to the direct spectral report; no command
# runs the orthogonal / parallel case analyses of `witness`
TOL_F = 1e-6

# hard cap on the amplification-plan iteration scan
PLAN_CAP = 10**6

# dimension cap for dense eigendecompositions
EIGEN_DIM_CAP = 256

# cap on the bloch scan's vectors per axis: a scan holds grid**2
# records, ~0.3 GB at the cap
GRID_CAP = 1000

# cap on a scan's trials: a scan holds all its records, 250-600 bytes
# each, ~0.6 GB at the cap
TRIALS_CAP = 1_000_000

# byte budget of a shift circuit's readout, which holds ~16 l + 32
# bytes per basis index over l registers: at most 19 registers at
# d = 2, 12 at d = 3 and 10 at d = 4
CIRCUIT_BYTES = 256 << 20

# cap on a sampled circuit's shots: numpy draws the binomial count as a
# signed 64-bit integer
SHOTS_CAP = 2**63 - 1
