"""Load generator determinism and the serve bench record."""

import numpy as np
import pytest

from repro.service import default_catalog, zipf_workload


class TestZipfWorkload:
    def test_deterministic_for_fixed_seed(self):
        assert zipf_workload(10, 50, seed=3) == zipf_workload(
            10, 50, seed=3
        )
        assert zipf_workload(10, 50, seed=3) != zipf_workload(
            10, 50, seed=4
        )

    def test_skewed_towards_low_ranks(self):
        draws = zipf_workload(20, 2000, seed=1)
        counts = np.bincount(draws, minlength=20)
        assert counts[0] > counts[10] > 0
        assert counts[0] == max(counts)

    def test_indices_in_range(self):
        draws = zipf_workload(5, 100)
        assert all(0 <= index < 5 for index in draws)

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            zipf_workload(0, 10)


class TestCatalog:
    def test_smoke_is_smaller(self):
        assert len(default_catalog(smoke=True)) < len(
            default_catalog(smoke=False)
        )

    def test_entries_name_real_targets(self):
        from repro.toffoli import CONSTRUCTIONS

        for entry in default_catalog(smoke=False):
            assert entry["target"] in CONSTRUCTIONS


@pytest.mark.slow
class TestServeBench:
    def test_smoke_report_invariants(self, bench_smoke):
        (record,) = bench_smoke("serve")["records"]
        assert record["key"] == {"requests": 400, "zipf_s": 1.1, "seed": 2019}
        assert set(record["invariants"]) == {
            "exactly_once", "shared_duplicates", "restart_from_store"
        }
        structural = record["structural"]
        distinct = structural["distinct_keys"]
        assert structural["cold.executed"] == distinct
        assert structural["restart.executed"] == 0
        assert structural["restart.persistent_hits"] == distinct
        recorded = record["recorded"]
        # Which duplicates coalesce and which hit memory depends on
        # thread timing; only their sum is claimed.
        assert recorded["cold.coalesced"] + recorded["cold.memory_hits"] == (
            400 - distinct
        )
