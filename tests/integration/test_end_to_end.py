"""End-to-end integration tests reproducing the paper's headline claims
at reduced scale (full scale runs live in benchmarks/)."""

import pytest

from repro import build_toffoli
from repro.analysis.figures import fig9_depth_data, fig10_gate_count_data
from repro.apps.grover import GroverSearch
from repro.apps.incrementer import qutrit_incrementer_circuit
from repro.noise.presets import (
    BARE_QUTRIT,
    DRESSED_QUTRIT,
    SC,
    SC_T1_GATES,
    TI_QUBIT,
)
from repro.sim import estimate_circuit_fidelity


class TestHeadlineOrdering:
    """The paper's core result: QUTRIT beats the qubit baselines."""

    def test_qutrit_tree_shallower_and_smaller(self):
        depths = fig9_depth_data([32])
        counts = fig10_gate_count_data([32])
        assert depths["QUTRIT"][0] < depths["QUBIT+ANCILLA"][0]
        assert depths["QUBIT+ANCILLA"][0] < depths["QUBIT"][0]
        assert counts["QUTRIT"][0] < counts["QUBIT+ANCILLA"][0]
        assert counts["QUBIT+ANCILLA"][0] < counts["QUBIT"][0]

    @pytest.mark.slow
    def test_fidelity_ordering_under_sc(self):
        # Scaled-down Figure 11 (6 controls): the ordering
        # QUTRIT > QUBIT+ANCILLA > QUBIT must show beyond the 2-sigma
        # bars (~+/-6% at 150 batched trials; 25 were seed-fragile).
        n, trials = 6, 150
        estimates = {}
        for label, name in (
            ("QUTRIT", "qutrit_tree"),
            ("QUBIT+ANCILLA", "qubit_one_dirty"),
            ("QUBIT", "qubit_ancilla_free"),
        ):
            result = build_toffoli(name, n)
            estimates[label] = estimate_circuit_fidelity(
                result.circuit, SC, trials=trials, seed=42,
                wires=result.all_wires, circuit_name=label,
            ).mean_fidelity
        assert estimates["QUTRIT"] > estimates["QUBIT+ANCILLA"]
        assert estimates["QUBIT+ANCILLA"] > estimates["QUBIT"]

    def test_trapped_ion_qutrit_beats_qubit(self):
        n, trials = 5, 20
        tree = build_toffoli("qutrit_tree", n)
        dressed = estimate_circuit_fidelity(
            tree.circuit, DRESSED_QUTRIT, trials=trials, seed=7,
            wires=tree.all_wires,
        ).mean_fidelity
        qubit = build_toffoli("qubit_ancilla_free", n)
        ti = estimate_circuit_fidelity(
            qubit.circuit, TI_QUBIT, trials=trials, seed=7,
            wires=qubit.all_wires,
        ).mean_fidelity
        assert dressed > ti

    def test_dressed_beats_bare(self):
        n, trials = 5, 30
        tree = build_toffoli("qutrit_tree", n)
        dressed = estimate_circuit_fidelity(
            tree.circuit, DRESSED_QUTRIT, trials=trials, seed=3,
            wires=tree.all_wires,
        ).mean_fidelity
        bare = estimate_circuit_fidelity(
            tree.circuit, BARE_QUTRIT, trials=trials, seed=3,
            wires=tree.all_wires,
        ).mean_fidelity
        assert dressed >= bare - 0.02

    def test_better_hardware_better_fidelity(self):
        n, trials = 6, 20
        tree = build_toffoli("qutrit_tree", n)
        base = estimate_circuit_fidelity(
            tree.circuit, SC, trials=trials, seed=5, wires=tree.all_wires
        ).mean_fidelity
        best = estimate_circuit_fidelity(
            tree.circuit, SC_T1_GATES, trials=trials, seed=5,
            wires=tree.all_wires,
        ).mean_fidelity
        assert best > base


class TestApplicationsEndToEnd:
    def test_grover_with_noisy_oracle_still_finds_item(self):
        # A noisy end-to-end Grover run: the algorithm output distribution
        # should still favour the marked item under light noise.
        search = GroverSearch(3, marked=5)
        circuit = search.build_circuit()
        estimate = estimate_circuit_fidelity(
            circuit, SC_T1_GATES, trials=10, seed=9, wires=search.wires
        )
        assert estimate.mean_fidelity > 0.8

    def test_incrementer_composes_with_toffoli_wires(self, classical_sim):
        # Chain: increment twice on a register, verifying scheduling across
        # composite circuits.
        circuit, register = qutrit_incrementer_circuit(5, decompose=False)
        double = circuit + circuit
        out = classical_sim.run_values(double, register, [1, 1, 0, 0, 0])
        assert sum(b << i for i, b in enumerate(out)) == 5

    def test_paper_figure5_instance(self, classical_sim):
        # The exact Figure 5 instance: 15 controls, all active.
        from repro.toffoli.qutrit_tree import build_qutrit_tree
        from repro.toffoli.spec import GeneralizedToffoli

        plain = build_qutrit_tree(GeneralizedToffoli(15), decompose=False)
        values = [1] * 15 + [0]
        out = classical_sim.run_values(
            plain.circuit, plain.controls + [plain.target], values
        )
        assert out == tuple([1] * 15 + [1])
        # And the figure's structure: 7 moments, 15 three-qutrit gates.
        assert plain.circuit.depth == 7
        assert plain.circuit.num_operations == 15
