"""Anticommutator-based quantumness witnesses for pairs of states.

The core test: for a pair of density operators, a non-positive
anticommutator {rho1, rho2} certifies that the two states do not
commute, i.e. that the pair is genuinely quantum. The package decides
this spectrally, plans purity amplification so mixed pairs can be
sharpened into witnessable ones, simulates the controlled-shift
interferometer that measures the witness, and demonstrates the link to
quantum discord on bipartite states.

The top level exports ``__version__`` and the two names of the README
example, :func:`make_density` and :func:`witness_anticommutator`.
Everything else is imported from its defining module:
``qwitness.states``, ``qwitness.witness``, ``qwitness.interferometer``,
``qwitness.discord``, ``qwitness.scans`` and ``qwitness.errors``.
"""

__version__ = "0.1.0"

from .states import make_density
from .witness import witness_anticommutator

__all__ = ["__version__", "make_density", "witness_anticommutator"]
