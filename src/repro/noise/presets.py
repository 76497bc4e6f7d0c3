"""The paper's named noise models (Tables 2 and 3).

Superconducting (Sec. 7.2, Table 2) — the table reports *total* gate error
probabilities ``3 p1`` and ``15 p2`` for qubit gates, so the per-channel
values stored here are those totals divided by 3 and 15.  The same
per-channel probability is then charged to every error channel regardless
of dimension, which is what makes qutrit gates (8 / 80 channels)
intrinsically noisier than qubit gates (3 / 15 channels).

* current IBM hardware: 3p1 ~ 1e-3, 15p2 ~ 1e-2, T1 ~ 0.1 ms
* SC           : 10x better gates and T1 than current IBM (the baseline)
* SC+T1        : SC with a further 10x longer T1
* SC+GATES     : SC with a further 10x lower gate errors
* SC+T1+GATES  : both improvements

Gate times are 100 ns (single-qudit) and 300 ns (two-qudit) for all
superconducting models.

Trapped ion 171Yb+ (Sec. 7.3, Table 3) — the table reports total
single-/two-qudit gate error probabilities from scattering calculations.
TI_QUBIT and DRESSED_QUTRIT live on magnetically insensitive clock states,
so their idle errors are negligible (T1 disabled); BARE_QUTRIT picks up
small coherent phase idle errors, modelled as random clock kicks.  Gate
times are 1 us and 200 us for all three.
"""

from __future__ import annotations

from .model import NoiseModel

_SC_TIME_1Q = 100e-9
_SC_TIME_2Q = 300e-9
_TI_TIME_1Q = 1e-6
_TI_TIME_2Q = 200e-6

#: Publicly accessible IBM devices circa the paper (Sec. 7.2), simulated
#: only to motivate the forward-looking models: a 14-input circuit is
#: essentially certain to fail at these rates.
IBM_CURRENT = NoiseModel(
    name="IBM_CURRENT",
    p1=1e-3 / 3,
    p2=1e-2 / 15,
    gate_time_1q=_SC_TIME_1Q,
    gate_time_2q=_SC_TIME_2Q,
    t1=100e-6,
    description="current cloud-accessible superconducting hardware",
)

#: Baseline forward-looking superconducting model: 10x better than current.
SC = NoiseModel(
    name="SC",
    p1=1e-4 / 3,
    p2=1e-3 / 15,
    gate_time_1q=_SC_TIME_1Q,
    gate_time_2q=_SC_TIME_2Q,
    t1=1e-3,
    description="superconducting baseline: 10x better gates and T1 than IBM",
)

#: SC with 10x longer T1 (Schoelkopf's-law extrapolation).
SC_T1 = NoiseModel(
    name="SC+T1",
    p1=1e-4 / 3,
    p2=1e-3 / 15,
    gate_time_1q=_SC_TIME_1Q,
    gate_time_2q=_SC_TIME_2Q,
    t1=10e-3,
    description="SC with a further 10x longer T1",
)

#: SC with 10x lower gate errors.
SC_GATES = NoiseModel(
    name="SC+GATES",
    p1=1e-5 / 3,
    p2=1e-4 / 15,
    gate_time_1q=_SC_TIME_1Q,
    gate_time_2q=_SC_TIME_2Q,
    t1=1e-3,
    description="SC with a further 10x lower gate errors",
)

#: SC with both improvements.
SC_T1_GATES = NoiseModel(
    name="SC+T1+GATES",
    p1=1e-5 / 3,
    p2=1e-4 / 15,
    gate_time_1q=_SC_TIME_1Q,
    gate_time_2q=_SC_TIME_2Q,
    t1=10e-3,
    description="SC with 10x lower gate errors and 10x longer T1",
)

#: Trapped-ion qubit on clock states (Table 3 row 1).
TI_QUBIT = NoiseModel(
    name="TI_QUBIT",
    p1=6.4e-4 / 3,
    p2=1.3e-4 / 15,
    gate_time_1q=_TI_TIME_1Q,
    gate_time_2q=_TI_TIME_2Q,
    t1=None,
    description="171Yb+ qubit, clock states, scattering-limited gates",
)

#: Trapped-ion qutrit without clock-state protection (Table 3 row 2).
BARE_QUTRIT = NoiseModel(
    name="BARE_QUTRIT",
    p1=2.2e-4 / 8,
    p2=4.3e-4 / 80,
    gate_time_1q=_TI_TIME_1Q,
    gate_time_2q=_TI_TIME_2Q,
    t1=None,
    idle_dephasing_rate=0.04,
    description="171Yb+ bare qutrit; small coherent phase idle errors",
)

#: Trapped-ion qutrit on dressed clock states (Table 3 row 3).
DRESSED_QUTRIT = NoiseModel(
    name="DRESSED_QUTRIT",
    p1=1.5e-4 / 8,
    p2=3.1e-4 / 80,
    gate_time_1q=_TI_TIME_1Q,
    gate_time_2q=_TI_TIME_2Q,
    t1=None,
    description="171Yb+ dressed qutrit, clock states, leakage-resilient",
)

#: Table 2's four forward-looking superconducting models, in paper order.
SUPERCONDUCTING_MODELS = (SC, SC_T1, SC_GATES, SC_T1_GATES)

#: Table 3's three trapped-ion models, in paper order.
TRAPPED_ION_MODELS = (TI_QUBIT, BARE_QUTRIT, DRESSED_QUTRIT)

#: Every named model, keyed by name.
ALL_MODELS = {
    model.name: model
    for model in (IBM_CURRENT, *SUPERCONDUCTING_MODELS, *TRAPPED_ION_MODELS)
}


def noise_model_named(name: str | None) -> NoiseModel | None:
    """The :data:`ALL_MODELS` entry called ``name`` (None passes through).

    Raises ``ValueError`` listing the choices for an unknown name.
    """
    if name is None:
        return None
    if name not in ALL_MODELS:
        raise ValueError(
            f"unknown noise model {name!r}; choose from {sorted(ALL_MODELS)}"
        )
    return ALL_MODELS[name]
