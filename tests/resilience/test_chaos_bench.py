"""The chaos bench record: its claims, and the counts behind them."""

import json

import pytest

from repro.analysis.bench import chaos_suite, render_report

INVARIANTS = {
    "no_lost_handles",
    "conservation",
    "retries_capped",
    "only_injected_failures",
    "exactly_once_fanout",
    "corrupt_dropped_exactly_once",
    "corrupt_never_served",
    "corrupt_reexecuted",
}


@pytest.fixture(scope="module")
def report(bench_smoke):
    return bench_smoke("chaos")


@pytest.fixture(scope="module")
def record(report):
    (record,) = report["records"]
    return record


class TestReport:
    def test_schema_and_shape(self, report, record):
        assert report["suite"] == "chaos"
        assert record["key"] == {"requests": 150, "rate": 0.2, "seed": 2019}
        assert set(record["invariants"]) == INVARIANTS

    def test_json_serializable(self, report):
        json.dumps(report)

    def test_all_invariants_pass(self, record):
        failed = [
            name for name, holds in record["invariants"].items() if not holds
        ]
        assert not failed

    def test_faults_were_actually_injected(self, record):
        # A chaos bench with zero injections tests nothing.
        injections = [
            value for name, value in record["recorded"].items()
            if name.startswith("chaos.faults.injections.")
        ]
        assert sum(injections) > 0

    def test_retries_happened_and_are_capped(self, record):
        recorded = record["recorded"]
        assert (
            recorded["chaos.max_attempts_observed"]
            <= recorded["chaos.retry_policy.max_attempts"]
        )

    def test_corruption_contained(self, record):
        recorded = record["recorded"]
        corrupted = recorded["corruption.corrupted_entries"]
        assert corrupted > 0
        assert recorded["corruption.store.corrupt_dropped"] == corrupted
        assert recorded["corruption.executed"] == (
            corrupted + recorded["corruption.missing_entries"]
        )

    def test_render_mentions_the_verdict(self, report):
        text = render_report(report)
        assert "all invariants hold" in text
        assert "no_lost_handles" in text and "corrupt_reexecuted" in text


class TestDeterminism:
    def test_same_seed_same_fault_schedule(self, record):
        (again,) = chaos_suite(smoke=True, seed=2019)
        assert all(again["invariants"].values())
        # Per-site injection *schedules* are seeded; under concurrency
        # the counts can shift only if call counts shift, so the
        # distinct-key workload itself must be identical.
        assert again["structural"] == record["structural"]

    def test_other_seed_still_passes(self):
        (other,) = chaos_suite(smoke=True, seed=7)
        assert set(other["invariants"]) == INVARIANTS
        assert all(other["invariants"].values())
