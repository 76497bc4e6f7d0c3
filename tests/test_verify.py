"""The equivalence oracle (`repro.verify`) and the Toffoli checks on it."""

from dataclasses import replace
from inspect import signature

import pytest

from repro.circuits.circuit import Circuit
from repro.exceptions import VerificationError
from repro.gates.base import PermutationGate, PhasedGate
from repro.gates.controlled import ControlledGate
from repro.gates.embedded import EmbeddedGate
from repro.gates.qubit import CNOT, H, T, TOFFOLI, X, Z
from repro.gates.qutrit import X01, X_PLUS_1, Z3
from repro.interop import lift_circuit
from repro.qudits import qubits, qutrits
from repro.sim.classical_batch import BatchedClassicalSimulator
from repro.toffoli.qutrit_tree import build_qutrit_tree
from repro.toffoli.registry import CONSTRUCTIONS, build_toffoli
from repro.toffoli.spec import GeneralizedToffoli
from repro.toffoli.verification import (
    verify_classical_looped,
    verify_construction,
)
from repro.verify import (
    DENSE_WORK_CAP,
    Verdict,
    _dense_check,
    _pair,
    _table_check,
    assert_equivalent,
    oracle_for,
)

#: name -> builder kwargs yielding a permutation-level circuit, for the
#: batched-vs-looped parity sweep over the whole registry.
PERMUTATION_LEVEL = {
    "qutrit_tree": {"decompose": False},
    "qubit_one_dirty": {"decompose": False},
    "he_tree": {"decompose": False},
    "wang_chain": {},
    "lanyon_target": {},
}

#: Inputs each construction checks at N=4: 2^5 binary data inputs, times
#: 2 patterns of the one borrowed wire; clean ancilla are pinned at 0.
INPUTS_AT_N4 = {
    "qutrit_tree": 32,
    "qubit_one_dirty": 64,
    "he_tree": 32,
    "wang_chain": 32,
    "lanyon_target": 32,
    "qubit_ancilla_free": 32,
}


def _classical_circuit():
    a, b, c = qubits(3)
    return Circuit([X.on(a), CNOT.on(a, b), TOFFOLI.on(a, b, c)])


def _dense_circuit():
    a, b = qubits(2)
    return Circuit([H.on(a), CNOT.on(a, b), T.on(b)])


def _appended(circuit, *ops):
    return Circuit(list(circuit.all_operations()) + list(ops))


def _tampered(result, gate, wire):
    return replace(result, circuit=result.circuit + Circuit([gate.on(wire)]))


def _flip01(wire):
    """A 0<->1 swap on ``wire``, whatever its dimension."""
    d = wire.dimension
    return PermutationGate([1, 0] + list(range(2, d)), (d,), "flip01")


def _build_variants():
    """(name, builder kwargs) for every construction, decomposed, and
    undecomposed where its builder takes ``decompose``."""
    for name in sorted(CONSTRUCTIONS):
        yield name, {}
        if "decompose" in signature(CONSTRUCTIONS[name].builder).parameters:
            yield name, {"decompose": False}


class TestSameWidthPairs:
    def test_h_h_is_the_empty_circuit(self):
        (a,) = qubits(1)
        left = Circuit([H.on(a), H.on(a)])
        assert assert_equivalent(left, Circuit(), wires=[a]) == Verdict(
            "statevector", 2
        )

    def test_inequivalent_circuits_rejected(self):
        (a,) = qubits(1)
        with pytest.raises(VerificationError):
            assert_equivalent(Circuit([H.on(a)]), Circuit(), wires=[a])

    def test_global_phase_rejected(self):
        # Amplitudes compare exactly: i*I is NOT the empty circuit,
        # though the two agree up to global phase.
        (a,) = qubits(1)
        left = Circuit([PhasedGate([1j, 1j], (2,), "i*I").on(a)])
        with pytest.raises(VerificationError):
            assert_equivalent(left, Circuit(), wires=[a])

    def test_error_names_context_and_first_input(self):
        (a,) = qubits(1)
        with pytest.raises(
            VerificationError, match=r"my-pass: input \[0\]"
        ):
            assert_equivalent(
                Circuit([H.on(a)]), Circuit(), wires=[a], context="my-pass"
            )

    def test_oracle_selection(self):
        a, b = qutrits(2)
        classical = Circuit([X01.on(a), X_PLUS_1.on(b)])
        dense = Circuit([H.on(qubits(1)[0])])
        assert oracle_for(classical, classical) == "classical"
        assert oracle_for(dense, dense) == "statevector"
        assert assert_equivalent(classical, classical) == Verdict(
            "classical", 9
        )

    def test_h_layer_on_13_qubits_refused(self):
        wires = qubits(13)
        circuit = Circuit([H.on(w) for w in wires])
        assert 2**13 * 2**13 > DENSE_WORK_CAP
        assert oracle_for(circuit, circuit) is None
        with pytest.raises(VerificationError, match="cannot verify"):
            assert_equivalent(circuit, circuit)

    def test_dense_cap_reaches_eight_qutrits(self):
        # 3^8 states: past the optimizer's former 4096-dimension cap.
        wires = qutrits(8)
        circuit = Circuit([Z3.on(w) for w in wires])
        assert oracle_for(circuit, circuit) == "statevector"


class TestLiftedPairs:
    @pytest.mark.parametrize(
        "build, oracle",
        [(_classical_circuit, "classical"), (_dense_circuit, "statevector")],
    )
    def test_lift_is_equivalent(self, build, oracle):
        circuit = build()
        lifted = lift_circuit(circuit)
        assert oracle_for(lifted, circuit) == oracle
        assert assert_equivalent(lifted, circuit) == Verdict(
            oracle, 2 ** len(circuit.all_qudits())
        )

    @pytest.mark.parametrize("build", [_classical_circuit, _dense_circuit])
    def test_tampered_lift_rejected(self, build):
        circuit = build()
        lifted = lift_circuit(circuit)
        tampered = _appended(
            lifted, EmbeddedGate(X, (3,)).on(lifted.all_qudits()[0])
        )
        with pytest.raises(VerificationError, match="bench"):
            assert_equivalent(tampered, circuit, context="bench")

    def test_leaking_lift_rejected(self):
        # X+1 maps |1> to |2>: the right answer on no input, and
        # population stranded outside the qubit subspace.
        circuit = _classical_circuit()
        lifted = lift_circuit(circuit)
        leaking = _appended(lifted, X_PLUS_1.on(lifted.all_qudits()[0]))
        with pytest.raises(VerificationError):
            assert_equivalent(leaking, circuit)

    def test_phase_error_rejected(self):
        circuit = _dense_circuit()
        lifted = lift_circuit(circuit)
        tampered = _appended(
            lifted, EmbeddedGate(T, (3,)).on(lifted.all_qudits()[1])
        )
        with pytest.raises(VerificationError):
            assert_equivalent(tampered, circuit)

    def test_rewritten_controlled_embedding_accepted(self):
        # A lifted CNOT as a ControlledGate of an embedded X: different
        # structure, same subspace action.
        a3, b3 = qutrits(2)
        a2, b2 = qubits(2)
        rewritten = Circuit(
            [ControlledGate(EmbeddedGate(X, (3,)), (3,), (1,)).on(a3, b3)]
        )
        assert assert_equivalent(
            rewritten, Circuit([CNOT.on(a2, b2)])
        ).oracle == "classical"

    def test_wire_count_mismatch_rejected(self):
        a2, b2 = qubits(2)
        (a3,) = qutrits(1)
        with pytest.raises(VerificationError):
            assert_equivalent(
                Circuit([X01.on(a3)]), Circuit([CNOT.on(a2, b2)])
            )

    def test_shrunken_wire_rejected(self):
        (a3,) = qutrits(1)
        (a2,) = qubits(1)
        with pytest.raises(VerificationError, match="narrower"):
            assert_equivalent(Circuit([X.on(a2)]), Circuit([X01.on(a3)]))


class TestDenseMatchesTable:
    """On classical pairs the dense path, called directly, reaches the
    table path's verdict."""

    def _both(self, circuit, reference):
        space, candidate = _pair(circuit, reference, None)
        inputs = BatchedClassicalSimulator.input_space(space)
        verdicts = []
        for check in (
            lambda: _table_check(
                circuit, reference, space, candidate, inputs, "pair"
            ),
            lambda: _dense_check(
                circuit, reference, space, candidate, inputs, 1e-8, "pair"
            ),
        ):
            try:
                check()
                verdicts.append(True)
            except VerificationError:
                verdicts.append(False)
        return verdicts

    def test_accept(self):
        circuit = _classical_circuit()
        assert self._both(lift_circuit(circuit), circuit) == [True, True]
        assert self._both(circuit, circuit) == [True, True]

    def test_reject(self):
        circuit = _classical_circuit()
        lifted = lift_circuit(circuit)
        wire = lifted.all_qudits()[0]
        for tampered in (
            _appended(lifted, X_PLUS_1.on(wire)),
            _appended(lifted, X01.on(wire)),
        ):
            assert self._both(tampered, circuit) == [False, False]


class TestVerifyConstruction:
    def test_tree_counts_inputs(self):
        result = build_qutrit_tree(GeneralizedToffoli(4), decompose=False)
        assert verify_construction(result) == Verdict("classical", 2**5)

    def test_dirty_pattern_input_counts(self):
        result = build_toffoli("qubit_one_dirty", 3, decompose=False)
        assert verify_construction(result).inputs == 2**4 * 2
        assert verify_construction(result, dirty_patterns=False).inputs == (
            2**4
        )

    @pytest.mark.parametrize("decompose", [False, True])
    def test_broken_circuit_rejected(self, decompose):
        good = build_toffoli("qutrit_tree", 2, decompose=decompose)
        broken = _tampered(good, X01, good.target)
        with pytest.raises(VerificationError, match="qutrit_tree: input"):
            verify_construction(broken)

    @pytest.mark.parametrize("name", ["qutrit_tree", "qubit_ancilla_free"])
    def test_decomposed_constructions_pass_dense(self, name):
        result = build_toffoli(name, 3)
        assert verify_construction(result) == Verdict("statevector", 2**4)

    def test_wide_permutation_circuit_uses_the_table(self):
        result = build_qutrit_tree(GeneralizedToffoli(6), decompose=False)
        assert verify_construction(result) == Verdict("classical", 2**7)

    @pytest.mark.parametrize(
        "variant",
        list(_build_variants()),
        ids=lambda v: f"{v[0]}-undecomposed" if v[1] else v[0],
    )
    def test_every_construction_at_n4(self, variant):
        name, kwargs = variant
        result = build_toffoli(name, 4, **kwargs)
        assert verify_construction(result).inputs == INPUTS_AT_N4[name]


class TestRelativePhase:
    """A phase on some outputs keeps every probability at 1 but is a
    different unitary: the check must see it."""

    def test_z3_on_a_qutrit_tree_control(self):
        good = build_toffoli("qutrit_tree", 3)
        with pytest.raises(VerificationError):
            verify_construction(_tampered(good, Z3, good.controls[0]))

    @pytest.mark.parametrize("gate", [Z, T], ids=["Z", "T"])
    def test_phase_on_the_ancilla_free_cascade(self, gate):
        good = build_toffoli("qubit_ancilla_free", 3)
        with pytest.raises(VerificationError):
            verify_construction(_tampered(good, gate, good.target))


class TestBatchedLoopedParity:
    """The batched oracle makes the same accept/reject decisions, with
    the same first-mismatch report, as the per-input loop."""

    @pytest.mark.parametrize("name", sorted(PERMUTATION_LEVEL))
    def test_accepts_match(self, name):
        result = build_toffoli(name, 3, **PERMUTATION_LEVEL[name])
        verdict = verify_construction(result)
        assert verdict.oracle == "classical"
        assert verdict.inputs == verify_classical_looped(result)

    @pytest.mark.parametrize("name", sorted(PERMUTATION_LEVEL))
    def test_rejects_match(self, name):
        good = build_toffoli(name, 3, **PERMUTATION_LEVEL[name])
        # The Lanyon construction uses a d=2N+2 target.
        broken = _tampered(good, _flip01(good.target), good.target)
        with pytest.raises(VerificationError) as batched_error:
            verify_construction(broken)
        with pytest.raises(VerificationError) as looped_error:
            verify_classical_looped(broken)
        assert str(batched_error.value) == str(looped_error.value)

    def test_dirty_pattern_flag_matches(self):
        result = build_toffoli("qubit_one_dirty", 3, decompose=False)
        for dirty in (True, False):
            assert verify_construction(
                result, dirty_patterns=dirty
            ).inputs == verify_classical_looped(result, dirty_patterns=dirty)
