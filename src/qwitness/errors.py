"""Exception hierarchy for qwitness.

Every error raised by the library derives from :class:`QwitnessError`,
so callers can catch one base class at API boundaries (the CLI maps
subclasses to exit codes).
"""

from __future__ import annotations

__all__ = [
    "QwitnessError",
    "DimensionError",
    "HermiticityError",
    "TraceError",
    "PositivityError",
    "ConvergenceError",
    "CapacityError",
    "DegenerateDenominatorError",
    "CommutingInputsError",
    "DegenerateSpectrumError",
    "ConditionUnreachableError",
    "PreconditionError",
    "ProjectorError",
    "AgreementError",
    "UnresolvableError",
    "NullOutcomeError",
]


class QwitnessError(Exception):
    """Base class for all qwitness errors."""


class DimensionError(QwitnessError):
    """Operands have incompatible or invalid dimensions."""


class HermiticityError(QwitnessError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class TraceError(QwitnessError):
    """A density matrix trace deviates from one beyond tolerance."""


class PositivityError(QwitnessError):
    """An operator required to be positive semidefinite has a negative
    eigenvalue beyond tolerance."""


class ConvergenceError(QwitnessError):
    """The eigensolver failed to converge."""


class CapacityError(QwitnessError):
    """A computation would exceed a configured size limit."""


class DegenerateDenominatorError(QwitnessError):
    """A closed-form denominator vanished."""


class CommutingInputsError(QwitnessError):
    """The two input states commute, so no witness is possible."""


class DegenerateSpectrumError(QwitnessError):
    """Top eigenvalue is degenerate; purity amplification cannot single
    out a pure component."""


class ConditionUnreachableError(QwitnessError):
    """The leading-vector overlap |f| sits at a boundary (near 0 or 1)
    where the first-order margin condition cannot certify a pair; raised
    by ``nested`` and by the library's margin-condition functions."""


class PreconditionError(QwitnessError):
    """Inputs violate a documented precondition of a case analysis."""


class ProjectorError(QwitnessError):
    """An operator required to be an orthogonal projector is not."""


class AgreementError(QwitnessError):
    """Two independent computations of the same quantity disagree."""


class UnresolvableError(QwitnessError):
    """A sampling target cannot be resolved at any shot count."""


class NullOutcomeError(QwitnessError):
    """A selected measurement outcome has zero probability."""
