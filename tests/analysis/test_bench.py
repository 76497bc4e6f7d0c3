"""Bench harness: smoke run, JSON shape, and rendering."""

import json
from pathlib import Path

import pytest

from repro.analysis.bench import (
    BENCH_SUITES,
    ROUTE_SCHEMA,
    ROUTE_SMOKE_WIDTHS,
    ROUTE_WIDTHS,
    SCHEMA,
    STATE_SCHEMA,
    VERIFY_SCHEMA,
    bench_density,
    bench_route_case,
    bench_verify_speedup,
    bench_verify_width14,
    check_route_regression,
    check_state_regression,
    render_report,
    render_route_report,
    render_state_report,
    render_verify_report,
    route_record_key,
    run_bench,
    run_route_bench,
    run_state_bench,
    run_verify_bench,
    state_record_key,
    write_report,
)


@pytest.mark.parametrize("name", sorted(BENCH_SUITES))
def test_default_out_names_a_committed_baseline(name):
    # `bench --suite NAME` without --out writes here; a name without a
    # committed file at the repository root would leave a stray report.
    root = Path(__file__).parents[2]
    assert (root / BENCH_SUITES[name].default_out).is_file()


@pytest.fixture(scope="module")
def smoke_report():
    return run_bench(smoke=True, seed=7)


@pytest.mark.slow
class TestRunBench:
    def test_report_shape(self, smoke_report):
        assert smoke_report["schema"] == SCHEMA
        assert smoke_report["smoke"] is True
        assert smoke_report["seed"] == 7
        assert {"density", "trajectory", "workloads", "platform"} <= set(
            smoke_report
        )

    def test_density_suite_records_speedup_and_parity(self, smoke_report):
        density = smoke_report["density"]
        assert density["axis_local_seconds"] > 0
        assert density["dense_kron_seconds"] > 0
        assert density["speedup"] > 1.0
        assert density["parity_max_abs_diff"] < 1e-12

    def test_trajectory_suite_engines_agree(self, smoke_report):
        trajectory = smoke_report["trajectory"]
        assert trajectory["batched_seconds"] > 0
        assert trajectory["looped_seconds"] > 0
        scale = max(trajectory["combined_two_sigma"] * 2, 0.05)
        assert abs(
            trajectory["batched_mean_fidelity"]
            - trajectory["looped_mean_fidelity"]
        ) < scale

    def test_workloads_are_physical(self, smoke_report):
        assert smoke_report["workloads"]
        for record in smoke_report["workloads"]:
            assert 0.0 <= record["mean_fidelity"] <= 1.0 + 1e-9
            assert record["seconds"] > 0

    def test_report_serializes_and_renders(self, smoke_report, tmp_path):
        path = write_report(smoke_report, tmp_path / "BENCH_noise.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SCHEMA
        text = render_report(smoke_report)
        assert "density" in text and "speedup" in text


@pytest.mark.slow
class TestBenchDensity:
    def test_custom_workload_record(self):
        record = bench_density(num_controls=2, repeats=1)
        assert record["wires"] == 3
        assert record["hilbert_dim"] == 27
        assert record["parity_max_abs_diff"] < 1e-12


class TestVerifyBench:
    def test_smoke_report_shape(self, tmp_path):
        report = run_verify_bench(smoke=True)
        assert report["schema"] == VERIFY_SCHEMA
        assert report["smoke"] is True
        speedup = report["speedup"]
        assert speedup["batched_seconds"] > 0
        assert speedup["looped_seconds"] > 0
        assert speedup["decisions_agree"] is True
        widest = report["width14"]
        assert widest["completed"] is True
        assert widest["inputs"] == 2 ** widest["width"]
        path = write_report(report, tmp_path / "BENCH_verify.json")
        assert json.loads(path.read_text())["schema"] == VERIFY_SCHEMA
        text = render_verify_report(report)
        assert "speedup" in text and "exhaustive" in text

    def test_speedup_record_counts_every_input(self):
        record = bench_verify_speedup(num_controls=3, repeats=1)
        assert record["inputs"] == 2**4
        assert record["width"] == 4
        assert record["speedup"] > 0

    def test_width_record_covers_the_binary_space(self):
        record = bench_verify_width14(num_controls=5)
        assert record["width"] == 6
        assert record["inputs"] == 2**6
        assert record["seconds"] > 0


@pytest.fixture(scope="module")
def route_report():
    return run_route_bench(smoke=True)


@pytest.mark.slow
class TestRouteBench:
    def test_report_shape(self, route_report, tmp_path):
        assert route_report["schema"] == ROUTE_SCHEMA
        assert route_report["smoke"] is True
        assert {"records", "headline", "platform"} <= set(route_report)
        path = write_report(route_report, tmp_path / "BENCH_route.json")
        assert json.loads(path.read_text())["schema"] == ROUTE_SCHEMA
        text = render_route_report(route_report)
        assert "lookahead" in text and "greedy" in text

    def test_smoke_widths_are_a_prefix_of_full(self):
        # The regression gate joins smoke records against the committed
        # full report, so every smoke width must exist in the full sweep.
        assert ROUTE_SMOKE_WIDTHS == ROUTE_WIDTHS[: len(ROUTE_SMOKE_WIDTHS)]

    def test_records_are_complete_and_physical(self, route_report):
        for record in route_report["records"]:
            assert record["routed_depth"] >= record["logical_depth"]
            assert record["routed_two_qudit"] == (
                record["logical_two_qudit"] + record["swap_count"]
            )
            assert 0.0 < record["fidelity_proxy"] <= 1.0
            assert record["sites"] >= record["wires"]
            assert record["seconds"] > 0

    def test_all_to_all_is_free(self, route_report):
        for record in route_report["records"]:
            if record["topology_kind"] == "all_to_all":
                assert record["swap_count"] == 0
                assert record["depth_overhead"] == 1.0

    def test_acceptance_lookahead_beats_greedy_on_n8_tree(self, route_report):
        # The BENCH_route.json acceptance claim, recomputed fresh.
        wins = [
            entry
            for entry in route_report["headline"]["lookahead_vs_greedy"]
            if entry["construction"] == "qutrit_tree"
            and entry["num_controls"] >= 8
            and entry["topology_kind"] in ("line", "grid_2d")
        ]
        assert wins
        for entry in wins:
            assert entry["lookahead_swaps"] < entry["greedy_swaps"]

    def test_committed_report_matches_fresh_run(self, route_report):
        # The repo's committed BENCH_route.json must agree with a fresh
        # smoke run on the deterministic metrics (the CI gate's premise).
        from pathlib import Path

        committed_path = Path(__file__).parents[2] / "BENCH_route.json"
        committed = json.loads(committed_path.read_text())
        assert committed["schema"] == ROUTE_SCHEMA
        assert check_route_regression(committed, route_report) == []
        baseline = {
            route_record_key(r): r for r in committed["records"]
        }
        joined = 0
        for record in route_report["records"]:
            base = baseline.get(route_record_key(record))
            if base is None:
                continue
            joined += 1
            assert record["swap_count"] == base["swap_count"]
            assert record["routed_depth"] == base["routed_depth"]
        assert joined == len(route_report["records"])


class TestRouteCase:
    def test_single_case_record(self):
        record = bench_route_case("qutrit_tree", 4, "line", "lookahead")
        assert record["construction"] == "qutrit_tree"
        assert record["topology_kind"] == "line"
        assert record["router"] == "lookahead"
        assert record["wires"] == 5
        assert route_record_key(record) == (
            "qutrit_tree", 4, "line", "lookahead"
        )


class TestRouteRegressionCheck:
    def _report(self, swaps, depth):
        return {
            "records": [
                {
                    "construction": "qutrit_tree",
                    "num_controls": 8,
                    "topology_kind": "line",
                    "router": "lookahead",
                    "swap_count": swaps,
                    "routed_depth": depth,
                }
            ]
        }

    def test_identical_reports_pass(self):
        report = self._report(10, 40)
        assert check_route_regression(report, report) == []

    def test_within_factor_passes(self):
        assert check_route_regression(
            self._report(10, 40), self._report(29, 40)
        ) == []

    def test_degraded_metric_fails(self):
        failures = check_route_regression(
            self._report(10, 40), self._report(31, 40)
        )
        assert len(failures) == 1
        assert "swap_count" in failures[0]
        failures = check_route_regression(
            self._report(10, 40), self._report(10, 121)
        )
        assert "routed_depth" in failures[0]

    def test_zero_baseline_uses_absolute_floor(self):
        # committed 0 swaps: up to factor * 1 is tolerated.
        assert check_route_regression(
            self._report(0, 40), self._report(3, 40)
        ) == []
        assert check_route_regression(
            self._report(0, 40), self._report(4, 40)
        ) != []

    def test_unmatched_records_are_skipped(self):
        fresh = self._report(1000, 1000)
        fresh["records"][0]["num_controls"] = 99
        assert check_route_regression(self._report(10, 40), fresh) == []


@pytest.fixture(scope="module")
def state_report():
    return run_state_bench(smoke=True)


@pytest.mark.slow
class TestStateBench:
    def test_report_shape(self, state_report, tmp_path):
        assert state_report["schema"] == STATE_SCHEMA
        assert state_report["smoke"] is True
        cases = [record["case"] for record in state_report["records"]]
        assert cases == ["fastpath", "sampling", "dtype"]
        path = write_report(state_report, tmp_path / "BENCH_state.json")
        assert json.loads(path.read_text())["schema"] == STATE_SCHEMA
        text = render_state_report(state_report)
        assert "fastpath" in text and "invariants" in text

    def test_every_invariant_passes(self, state_report):
        for record in state_report["records"]:
            for name, value in record["invariants"].items():
                assert value is True, f"{record['case']}: {name}"

    def test_fastpath_record_is_exact(self, state_report):
        record = state_report["records"][0]
        assert record["parity_max_abs_diff"] == 0.0
        assert record["fast_seconds"] > 0
        assert record["dense_seconds"] > 0

    def test_sampling_record_is_deterministic(self, state_report):
        record = state_report["records"][1]
        assert record["chi_square_statistic"] <= (
            record["chi_square_critical"]
        )
        assert record["distinct_outcomes"] >= 2

    def test_record_keys_join_smoke_to_full(self, state_report):
        # The CI gate joins the smoke run against the committed full
        # report on the case name, so the names must be stable.
        keys = [state_record_key(r) for r in state_report["records"]]
        assert keys == ["fastpath", "sampling", "dtype"]


class TestStateRegressionCheck:
    def _report(self, invariants):
        return {
            "records": [
                {
                    "case": "fastpath",
                    "workload": "qutrit_tree(N=6)",
                    "invariants": invariants,
                }
            ]
        }

    def test_identical_reports_pass(self):
        report = self._report({"fastpath_parity_exact": True})
        assert check_state_regression(report, report) == []

    def test_failed_invariant_fails(self):
        failures = check_state_regression(
            self._report({"fastpath_parity_exact": True}),
            self._report({"fastpath_parity_exact": False}),
        )
        assert len(failures) == 1
        assert "fastpath_parity_exact" in failures[0]

    def test_dropped_invariant_fails(self):
        failures = check_state_regression(
            self._report({"fastpath_parity_exact": True}),
            self._report({}),
        )
        assert len(failures) == 1
        assert "missing" in failures[0]

    def test_unmatched_records_are_skipped(self):
        fresh = self._report({"fastpath_parity_exact": False})
        fresh["records"][0]["case"] = "unknown"
        committed = self._report({"fastpath_parity_exact": True})
        assert check_state_regression(committed, fresh) == []
