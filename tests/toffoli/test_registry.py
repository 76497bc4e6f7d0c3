"""Tests for the construction registry and cross-construction agreement."""

from itertools import product

import pytest

from repro.sim.statevector import StateVectorSimulator
from repro.toffoli.registry import CONSTRUCTIONS, build_toffoli


class TestRegistry:
    def test_expected_entries(self):
        assert set(CONSTRUCTIONS) == {
            "qutrit_tree",
            "qubit_ancilla_free",
            "qubit_one_dirty",
            "he_tree",
            "wang_chain",
            "lanyon_target",
        }

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_toffoli("nope", 3)

    def test_build_passes_control_values(self):
        result = build_toffoli("qutrit_tree", 3, control_values=(0, 1, 1))
        assert result.spec.control_values == (0, 1, 1)

    def test_metadata_present(self):
        for info in CONSTRUCTIONS.values():
            assert info.paper_label
            assert info.depth_scaling
            assert info.ancilla
            assert info.qudit_types

    def test_takes_decompose(self):
        # Wang chain and Lanyon target already emit permutation-level
        # gates; every other builder has a decompose flag.
        assert {
            name for name, info in CONSTRUCTIONS.items()
            if not info.takes_decompose
        } == {"wang_chain", "lanyon_target"}


class TestCrossConstructionAgreement:
    """Every construction implements the same logical gate."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_agree_on_truth_table(self, name):
        n = 4
        result = build_toffoli(name, n)
        sim = StateVectorSimulator()
        wires = result.all_wires
        pad = len(wires) - (n + 1)
        for data in product([0, 1], repeat=n + 1):
            values = list(data) + [0] * pad
            state = sim.run_basis(result.circuit, wires, values)
            expected = list(values)
            if all(v == 1 for v in data[:n]):
                expected[n] ^= 1
            assert state.probability_of(expected) == pytest.approx(
                1.0, abs=1e-7
            ), f"{name} disagreed on {data}"
