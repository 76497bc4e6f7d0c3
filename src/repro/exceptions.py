"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish the common failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatchError(ReproError):
    """A gate was applied to qudits whose dimensions it does not accept."""


class NotClassicalError(ReproError):
    """A classical (basis-state) action was requested from a gate that is
    not a computational-basis permutation."""


class SchedulingError(ReproError):
    """A circuit edit would produce an invalid moment structure."""


class DecompositionError(ReproError):
    """A requested gate decomposition cannot be constructed."""


class NoiseModelError(ReproError):
    """A noise channel or noise model was configured inconsistently."""


class SimulationError(ReproError):
    """A simulator was driven with inputs it cannot process."""


class SerializationError(ReproError):
    """Circuit or gate data could not be serialized or deserialized."""


class OptimizationError(ReproError):
    """A rewrite pass produced an invalid or non-equivalent circuit."""


class InteropError(ReproError):
    """A qubit<->qutrit dimension transform could not be performed.

    Raised when lifting meets a gate that cannot be embedded, or when
    lowering meets a gate whose action leaks out of the qubit subspace
    (the |2> population is not transient at that gate)."""


class VerificationError(ReproError):
    """A circuit does not act as its reference, or no equivalence oracle
    can decide it (see :mod:`repro.verify`)."""
