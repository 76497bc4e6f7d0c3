"""Noise channels and the paper's near-term device noise models.

Channels come in two families (:mod:`repro.noise.kraus`): unitary
mixtures with state-independent branch probabilities (depolarizing gate
errors, idle dephasing) and general Kraus channels with
state-dependent branches (amplitude damping).  Each family serves three
consumers: per-shot sampling for the looped trajectory oracle,
row-stack branch draws for the fused trajectory engine, and the full Kraus
decomposition for the exact density engine (lowered once into cached
contraction kernels by :mod:`repro.sim.kernels`).  Channel factories
are ``lru_cache``-d, so a given parameter set builds its operators —
and its kernels — exactly once per process.
"""

from .kraus import KrausChannel, UnitaryMixtureChannel
from .depolarizing import (
    generalized_paulis,
    single_qudit_depolarizing,
    two_qudit_depolarizing,
)
from .damping import amplitude_damping_channel, damping_lambdas, dephasing_channel
from .model import NoiseModel
from .presets import (
    ALL_MODELS,
    BARE_QUTRIT,
    DRESSED_QUTRIT,
    IBM_CURRENT,
    SC,
    SC_GATES,
    SC_T1,
    SC_T1_GATES,
    SUPERCONDUCTING_MODELS,
    TI_QUBIT,
    TRAPPED_ION_MODELS,
)

__all__ = [
    "KrausChannel",
    "UnitaryMixtureChannel",
    "generalized_paulis",
    "single_qudit_depolarizing",
    "two_qudit_depolarizing",
    "amplitude_damping_channel",
    "damping_lambdas",
    "dephasing_channel",
    "NoiseModel",
    "IBM_CURRENT",
    "SC",
    "SC_T1",
    "SC_GATES",
    "SC_T1_GATES",
    "TI_QUBIT",
    "BARE_QUTRIT",
    "DRESSED_QUTRIT",
    "SUPERCONDUCTING_MODELS",
    "TRAPPED_ION_MODELS",
    "ALL_MODELS",
]
