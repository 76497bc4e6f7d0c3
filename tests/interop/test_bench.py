"""Interop compilation strategies and the interop bench records."""

import json
from pathlib import Path

import pytest

from repro.interop.bench import (
    INTEROP_CASES,
    INTEROP_SMOKE_CASES,
    INTEROP_SMOKE_TOPOLOGIES,
    INTEROP_TOPOLOGIES,
    STRATEGIES,
    compile_strategy,
)
from repro.interop.workloads import build_workload
from repro.verify import assert_equivalent

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def records(bench_smoke):
    return bench_smoke("interop")["records"]


class TestCompileStrategy:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategies_preserve_semantics(self, strategy):
        original = build_workload("qft", n=3)
        compiled = compile_strategy(original, strategy)
        assert {w.dimension for w in compiled.all_qudits()} == {3}
        assert all(
            op.gate.num_qudits <= 2 for op in compiled.all_operations()
        )
        assert_equivalent(compiled, original)

    def test_ternary_beats_naive_on_toffoli_workload(self):
        original = build_workload("adder", n=2)
        naive = compile_strategy(original, "naive")
        ternary = compile_strategy(original, "ternary")
        assert ternary.num_operations < naive.num_operations
        assert ternary.depth < naive.depth

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            compile_strategy(build_workload("qft", n=3), "hybrid")


class TestRunInteropBench:
    def test_report_shape(self, records):
        expected = (
            len(INTEROP_SMOKE_CASES)
            * len(STRATEGIES)
            * len(INTEROP_SMOKE_TOPOLOGIES)
        )
        assert len(records) == expected

    def test_every_record_verified(self, records):
        for record in records:
            assert record["recorded"]["oracle"] in ("classical", "statevector")
            assert record["invariants"]["verified"] is True

    def test_headline_ternary_wins(self, records):
        ternary = [r for r in records if r["key"]["strategy"] == "ternary"]
        assert ternary
        assert all(r["invariants"]["beats_naive"] for r in ternary)
        naive = [r for r in records if r["key"]["strategy"] == "naive"]
        assert all("beats_naive" not in r["invariants"] for r in naive)

    def test_smoke_is_prefix_of_full_sweep(self):
        assert INTEROP_SMOKE_CASES == INTEROP_CASES[
            : len(INTEROP_SMOKE_CASES)
        ]
        assert set(INTEROP_SMOKE_TOPOLOGIES) <= set(INTEROP_TOPOLOGIES)


class TestCommittedBaseline:
    def test_committed_claim_holds(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_interop.json").read_text()
        )
        ternary = [
            r for r in committed["records"]
            if r["key"]["strategy"] == "ternary"
        ]
        assert {"line", "grid_2d"} <= {
            r["key"]["topology_kind"] for r in ternary
        }
        for workload in ("qft", "adder"):
            wins = [r for r in ternary if r["key"]["workload"] == workload]
            assert wins and all(r["invariants"]["beats_naive"] for r in wins)
