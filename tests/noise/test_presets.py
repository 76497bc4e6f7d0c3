"""Tests pinning the named noise models to the paper's Tables 2 and 3."""

import numpy as np
import pytest

from repro.noise.presets import (
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
    noise_model_named,
)


class TestTable2:
    """Table 2: 3p1 / 15p2 / T1 for the superconducting models."""

    @pytest.mark.parametrize(
        "model,total_p1,total_p2,t1",
        [
            (SC, 1e-4, 1e-3, 1e-3),
            (SC_T1, 1e-4, 1e-3, 10e-3),
            (SC_GATES, 1e-5, 1e-4, 1e-3),
            (SC_T1_GATES, 1e-5, 1e-4, 10e-3),
        ],
    )
    def test_parameters(self, model, total_p1, total_p2, t1):
        assert np.isclose(3 * model.p1, total_p1)
        assert np.isclose(15 * model.p2, total_p2)
        assert model.t1 == t1
        assert model.reliability_ratio_two_qudit() < 1.0

    def test_gate_times(self):
        for model in SUPERCONDUCTING_MODELS:
            assert model.gate_time_1q == 100e-9
            assert model.gate_time_2q == 300e-9
        lam1, lam2 = SC.idle_lambdas(3, SC.gate_time_2q)
        assert np.isclose(lam1, 1 - np.exp(-3e-7 / 1e-3)) and lam2 > lam1

    def test_sc_is_ten_x_better_than_ibm(self):
        assert np.isclose(IBM_CURRENT.p1 / SC.p1, 10)
        assert np.isclose(IBM_CURRENT.p2 / SC.p2, 10)
        assert np.isclose(SC.t1 / IBM_CURRENT.t1, 10)
        assert np.isclose(SC_T1_GATES.p1 * 100, IBM_CURRENT.p1)

    def test_order_matches_paper(self):
        assert [m.name for m in SUPERCONDUCTING_MODELS] == [
            "SC",
            "SC+T1",
            "SC+GATES",
            "SC+T1+GATES",
        ]


class TestTable3:
    """Table 3: total gate error probabilities for the trapped-ion models."""

    def test_ti_qubit_totals(self):
        assert np.isclose(3 * TI_QUBIT.p1, 6.4e-4)
        assert np.isclose(15 * TI_QUBIT.p2, 1.3e-4)

    def test_bare_qutrit_totals(self):
        assert np.isclose(8 * BARE_QUTRIT.p1, 2.2e-4)
        assert np.isclose(80 * BARE_QUTRIT.p2, 4.3e-4)

    def test_dressed_qutrit_totals(self):
        assert np.isclose(8 * DRESSED_QUTRIT.p1, 1.5e-4)
        assert np.isclose(80 * DRESSED_QUTRIT.p2, 3.1e-4)

    def test_gate_times(self):
        for model in TRAPPED_ION_MODELS:
            assert model.gate_time_1q == 1e-6
            assert model.gate_time_2q == 200e-6

    def test_clock_state_models_have_no_damping(self):
        assert TI_QUBIT.t1 is None
        assert DRESSED_QUTRIT.t1 is None
        assert TI_QUBIT.idle_dephasing_rate == 0.0
        assert DRESSED_QUTRIT.idle_dephasing_rate == 0.0

    def test_bare_qutrit_has_phase_idle_errors(self):
        assert BARE_QUTRIT.t1 is None
        assert BARE_QUTRIT.idle_dephasing_rate > 0

    def test_dressed_beats_bare_on_gates(self):
        assert DRESSED_QUTRIT.p1 < BARE_QUTRIT.p1
        assert DRESSED_QUTRIT.p2 < BARE_QUTRIT.p2


class TestRegistry:
    def test_all_models_by_name(self):
        assert set(ALL_MODELS) == {
            "IBM_CURRENT",
            "SC",
            "SC+T1",
            "SC+GATES",
            "SC+T1+GATES",
            "TI_QUBIT",
            "BARE_QUTRIT",
            "DRESSED_QUTRIT",
        }

    def test_names_are_consistent(self):
        for name, model in ALL_MODELS.items():
            assert model.name == name

    def test_lookup_by_name(self):
        assert noise_model_named("SC+T1") is SC_T1
        assert noise_model_named(None) is None
        with pytest.raises(ValueError, match="unknown noise model 'NOPE'"):
            noise_model_named("NOPE")
