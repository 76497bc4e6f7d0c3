"""Paper-scale exhaustive verification (slow suite).

The paper verified every classical input up to width 14 (Sec. 6); the
fast path of that check lives in `tests/toffoli/test_qutrit_tree.py`.
These tests push the *decomposed* (state-vector) circuits and the larger
applications further than the default suite.
"""

from itertools import product

import pytest

from repro.apps.incrementer import qutrit_incrementer_circuit
from repro.sim.statevector import StateVectorSimulator
from repro.toffoli.registry import build_toffoli
from repro.toffoli.verification import verify_construction
from repro.verify import Verdict

pytestmark = pytest.mark.slow


class TestDecomposedConstructionsWide:
    @pytest.mark.parametrize("n", [6, 7])
    def test_qutrit_tree_decomposed(self, n):
        result = build_toffoli("qutrit_tree", n)
        assert verify_construction(result) == Verdict(
            "statevector", 2 ** (n + 1)
        )

    @pytest.mark.parametrize("n", [6, 7])
    def test_one_dirty_decomposed(self, n):
        result = build_toffoli("qubit_one_dirty", n)
        assert verify_construction(result) == Verdict(
            "statevector", 2 ** (n + 1) * 2
        )

    def test_ancilla_free_decomposed(self):
        result = build_toffoli("qubit_ancilla_free", 7)
        assert verify_construction(result) == Verdict("statevector", 2**8)

    def test_he_tree_decomposed(self):
        result = build_toffoli("he_tree", 8)
        assert verify_construction(result) == Verdict("statevector", 2**9)


class TestIncrementerDecomposedWide:
    @pytest.mark.parametrize("width", [5, 6])
    def test_decomposed_increment_exhaustive(self, width):
        circuit, register = qutrit_incrementer_circuit(width)
        sim = StateVectorSimulator()
        for value in range(1 << width):
            bits = [(value >> i) & 1 for i in range(width)]
            state = sim.run_basis(circuit, register, bits)
            successor = (value + 1) % (1 << width)
            expected = [(successor >> i) & 1 for i in range(width)]
            assert state.probability_of(expected) == pytest.approx(
                1.0, abs=1e-6
            )


class TestMixedActivationWide:
    def test_all_binary_patterns_at_width_6(self, classical_sim):
        from repro.toffoli.qutrit_tree import build_qutrit_tree
        from repro.toffoli.spec import GeneralizedToffoli

        n = 6
        for pattern in product([0, 1], repeat=n):
            result = build_qutrit_tree(
                GeneralizedToffoli(n, pattern), decompose=False
            )
            wires = result.controls + [result.target]
            # Check the activating input and two perturbations.
            active = list(pattern) + [0]
            out = classical_sim.run_values(result.circuit, wires, active)
            assert out == tuple(list(pattern) + [1])
            flipped = list(pattern)
            flipped[0] ^= 1
            out = classical_sim.run_values(
                result.circuit, wires, flipped + [0]
            )
            assert out == tuple(flipped + [0])
