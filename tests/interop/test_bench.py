"""Interop benchmark: strategies, records, and the regression gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.interop.bench import (
    INTEROP_CASES,
    INTEROP_SCHEMA,
    INTEROP_SMOKE_CASES,
    INTEROP_SMOKE_TOPOLOGIES,
    INTEROP_TOPOLOGIES,
    STRATEGIES,
    check_interop_regression,
    compile_strategy,
    interop_record_key,
    render_interop_table,
    run_interop_bench,
)
from repro.interop.workloads import build_workload
from repro.verify import assert_equivalent

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke_report():
    return run_interop_bench(smoke=True)


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
    def test_report_shape(self, smoke_report):
        assert smoke_report["schema"] == INTEROP_SCHEMA
        assert smoke_report["smoke"] is True
        expected = (
            len(INTEROP_SMOKE_CASES)
            * len(STRATEGIES)
            * len(INTEROP_SMOKE_TOPOLOGIES)
        )
        assert len(smoke_report["records"]) == expected

    def test_every_record_verified(self, smoke_report):
        assert all(
            r["verified"] in ("classical", "statevector")
            for r in smoke_report["records"]
        )

    def test_headline_ternary_wins(self, smoke_report):
        cells = smoke_report["headline"]["naive_vs_ternary"]
        assert cells
        assert all(c["ternary_beats_naive"] for c in cells)

    def test_record_keys_unique(self, smoke_report):
        keys = [
            interop_record_key(r) for r in smoke_report["records"]
        ]
        assert len(keys) == len(set(keys))

    def test_render_table(self, smoke_report):
        table = render_interop_table(smoke_report)
        assert "temporary ternary vs naive lift" in table
        assert "[WIN]" in table

    def test_smoke_is_prefix_of_full_sweep(self):
        assert INTEROP_SMOKE_CASES == INTEROP_CASES[
            : len(INTEROP_SMOKE_CASES)
        ]
        assert set(INTEROP_SMOKE_TOPOLOGIES) <= set(INTEROP_TOPOLOGIES)


class TestCommittedBaseline:
    def test_committed_report_matches_fresh_smoke(self, smoke_report):
        committed = json.loads(
            (REPO_ROOT / "BENCH_interop.json").read_text()
        )
        assert committed["schema"] == INTEROP_SCHEMA
        assert check_interop_regression(committed, smoke_report) == []
        # Smoke rows all join against the committed full sweep.
        baseline = {
            interop_record_key(r) for r in committed["records"]
        }
        assert {
            interop_record_key(r) for r in smoke_report["records"]
        } <= baseline

    def test_committed_claim_holds(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_interop.json").read_text()
        )
        cells = committed["headline"]["naive_vs_ternary"]
        topologies = {c["topology_kind"] for c in cells}
        assert {"line", "grid_2d"} <= topologies
        for workload in ("qft", "adder"):
            wins = [
                c for c in cells if c["workload"] == workload
            ]
            assert wins and all(
                c["ternary_beats_naive"] for c in wins
            )


class TestRegressionGate:
    def test_identical_reports_pass(self, smoke_report):
        assert check_interop_regression(
            smoke_report, smoke_report
        ) == []

    def test_metric_blowup_fails(self, smoke_report):
        degraded = copy.deepcopy(smoke_report)
        degraded["records"][0]["gate_count"] *= 10
        failures = check_interop_regression(smoke_report, degraded)
        assert any("gate_count" in f for f in failures)

    def test_missing_verification_fails(self, smoke_report):
        degraded = copy.deepcopy(smoke_report)
        degraded["records"][0]["verified"] = ""
        failures = check_interop_regression(smoke_report, degraded)
        assert any("no longer verified" in f for f in failures)

    def test_lost_win_fails(self, smoke_report):
        degraded = copy.deepcopy(smoke_report)
        cell = degraded["headline"]["naive_vs_ternary"][0]
        cell["ternary_beats_naive"] = False
        failures = check_interop_regression(smoke_report, degraded)
        assert any("no longer beats" in f for f in failures)

    def test_unjoined_rows_ignored(self, smoke_report):
        fresh = copy.deepcopy(smoke_report)
        fresh["records"][0]["workload"] = "brand-new"
        fresh["headline"]["naive_vs_ternary"] = []
        assert check_interop_regression(smoke_report, fresh) == []
