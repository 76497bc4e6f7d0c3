"""Optimizer bench suite: records, and the pass wins derived from them."""

import json
from pathlib import Path

import pytest

from repro.analysis.bench import OPT_SMOKE_WIDTHS, OPT_WIDTHS, bench_opt_case

PASSES = ("cancel-inverses", "fuse-phases", "pack-commuting")


def _pass_wins(records: list[dict]) -> dict[str, int]:
    """Per pass, the number of cases where it improved the score."""
    return {
        name: sum(r["structural"][f"{name}.accepted"] for r in records)
        for name in PASSES
    }


@pytest.fixture(scope="module")
def records(bench_smoke):
    return bench_smoke("opt")["records"]


@pytest.mark.slow
class TestOptBench:
    def test_smoke_widths_are_a_prefix_of_full(self):
        assert OPT_WIDTHS[: len(OPT_SMOKE_WIDTHS)] == OPT_SMOKE_WIDTHS

    def test_records_are_complete_and_consistent(self, records):
        assert records
        for record in records:
            structural = record["structural"]
            assert structural["gates_after"] <= structural["gates_before"]
            assert structural["gates_removed"] == (
                structural["gates_before"] - structural["gates_after"]
            )
            assert structural["depth_removed"] == (
                structural["depth_before"] - structural["depth_after"]
            )
            assert record["recorded"]["oracle"] in (
                None, "classical", "statevector", "skipped"
            )
            assert record["recorded"]["seconds"] > 0

    def test_every_pass_wins_somewhere(self, records):
        # The tentpole acceptance claim: each rewrite pass improves at
        # least one Figure 9/10 construction.
        for name, wins in _pass_wins(records).items():
            assert wins, f"{name} never accepted"

    def test_changed_circuits_are_oracle_verified(self, records):
        # Every record that shrank within oracle reach must have been
        # equivalence-checked (auto mode only skips infeasible widths).
        for record in records:
            structural = record["structural"]
            oracle = record["recorded"]["oracle"]
            if structural["gates_removed"] or structural["depth_removed"]:
                assert oracle in ("classical", "statevector", "skipped")
            assert ("verified" in record["invariants"]) == (
                oracle in ("classical", "statevector")
            )

    def test_committed_full_report_proves_pass_wins(self):
        committed_path = Path(__file__).parents[2] / "BENCH_opt.json"
        committed = json.loads(committed_path.read_text())
        for name, wins in _pass_wins(committed["records"]).items():
            assert wins, f"{name} has no committed win"


class TestOptCase:
    def test_single_case_record(self):
        record = bench_opt_case("he_tree", 3, "logical")
        assert record["key"] == {
            "construction": "he_tree", "num_controls": 3, "stage": "logical"
        }
        assert record["structural"]["gates_removed"] > 0
        assert record["recorded"]["oracle"] == "statevector"
        assert record["invariants"] == {"verified": True}

    def test_unchanged_circuit_claims_nothing(self):
        record = bench_opt_case("qutrit_tree", 3, "logical")
        assert record["structural"]["gates_removed"] == 0
        assert record["recorded"]["oracle"] is None
        assert record["invariants"] == {}

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            bench_opt_case("he_tree", 3, "no-such-stage")
