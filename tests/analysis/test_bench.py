"""The bench record format, its one gate, and the committed baselines."""

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.bench import (
    BENCH_SUITES,
    ROUTE_SMOKE_WIDTHS,
    ROUTE_WIDTHS,
    SCHEMA,
    bench_density,
    bench_route_case,
    bench_verify_speedup,
    bench_verify_width14,
    check_report,
    render_report,
    run_suite,
    write_report,
)

ROOT = Path(__file__).parents[2]


def _committed(name: str) -> dict:
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


def _keys(report: dict) -> list[str]:
    return [json.dumps(r["key"], sort_keys=True) for r in report["records"]]


def _report(**overrides) -> dict:
    record = {
        "key": {"construction": "qutrit_tree", "num_controls": 8},
        "recorded": {"seconds": 0.25, "oracle": "classical"},
        "structural": {"swap_count": 10, "routed_depth": 40},
        "invariants": {"verified": True},
    }
    return {
        "schema": SCHEMA,
        "suite": "route",
        "generated_by": "python -m repro bench --suite route",
        "smoke": False,
        "platform": {},
        "records": [{**record, **overrides}],
    }


class TestCheckReport:
    def test_identical_reports_pass(self):
        assert check_report(_report(), _report()) == []

    def test_changed_recorded_value_passes(self):
        fresh = _report(recorded={"seconds": 99.0, "oracle": "statevector"})
        assert check_report(_report(), fresh) == []

    def test_flipped_invariant_fails(self):
        failures = check_report(
            _report(), _report(invariants={"verified": False})
        )
        assert failures == [
            "construction=qutrit_tree num_controls=8: "
            "invariant verified failed"
        ]

    def test_dropped_invariant_fails(self):
        failures = check_report(_report(), _report(invariants={}))
        assert len(failures) == 1
        assert "num_controls=8" in failures[0]
        assert "verified is missing" in failures[0]

    @pytest.mark.parametrize("delta", [1, -1])
    def test_structural_int_moved_fails(self, delta):
        fresh = _report(structural={"swap_count": 10 + delta,
                                    "routed_depth": 40})
        failures = check_report(_report(), fresh)
        assert failures == [
            f"construction=qutrit_tree num_controls=8: swap_count is "
            f"{10 + delta}, committed 10"
        ]

    def test_structural_value_missing_on_either_side_fails(self):
        fresh = _report(structural={"swap_count": 10})
        assert "routed_depth is None" in check_report(_report(), fresh)[0]
        assert "committed None" in check_report(fresh, _report())[0]

    def test_fresh_record_without_committed_key_fails(self):
        fresh = _report(key={"construction": "qutrit_tree",
                             "num_controls": 99})
        failures = check_report(_report(), fresh)
        assert len(failures) == 1
        assert "num_controls=99" in failures[0]
        assert "no committed record" in failures[0]

    def test_committed_record_absent_from_fresh_run_passes(self):
        # A smoke run checks a subset of the committed full baseline.
        committed = _report()
        committed["records"].append(
            {**committed["records"][0], "key": {"num_controls": 12}}
        )
        assert check_report(committed, _report()) == []

    def test_suite_mismatch_is_one_failure_naming_both(self):
        fresh = _report()
        fresh["suite"] = "chaos"
        fresh["records"][0]["invariants"] = {"verified": False}
        failures = check_report(_report(), fresh)
        assert len(failures) == 1
        assert "chaos report" in failures[0]
        assert "route baseline" in failures[0]

    def test_schema_mismatch_is_one_failure_naming_both(self):
        committed = _report()
        committed["schema"] = "legacy-route/v1"
        failures = check_report(committed, _report())
        assert len(failures) == 1
        assert "legacy-route/v1" in failures[0]
        assert SCHEMA in failures[0]


class TestRenderReport:
    def test_lists_every_map_and_the_verdict(self):
        text = render_report(_report())
        assert text.startswith("route bench (full): 1 records")
        assert "all invariants hold" in text
        assert "construction=qutrit_tree num_controls=8" in text
        assert "swap_count=10" in text and "seconds=0.25" in text

    def test_names_a_failed_invariant(self):
        text = render_report(_report(invariants={"verified": False}))
        assert "1 invariants FAILED" in text
        assert "verified=FAILED" in text


def test_write_report_round_trips(tmp_path):
    path = write_report(_report(), tmp_path / "BENCH_route.json")
    assert json.loads(path.read_text()) == _report()


def test_only_the_suites_have_committed_baselines():
    committed = {
        path.name
        for path in ROOT.glob("BENCH_*.json")
        if not path.name.endswith(".smoke.json")
    }
    assert committed == {f"BENCH_{name}.json" for name in BENCH_SUITES}


@pytest.mark.parametrize("name", list(BENCH_SUITES))
def test_committed_baseline_is_its_full_run(name):
    committed = _committed(name)
    assert committed["schema"] == SCHEMA
    assert committed["smoke"] is False
    assert committed["suite"] == name
    assert committed["generated_by"] == f"python -m repro bench --suite {name}"


#: Suites whose smoke run takes more than a second or so.
SLOW_SUITES = ("noise", "route", "opt", "state", "serve", "paper")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in SLOW_SUITES
    else name
    for name in BENCH_SUITES
])
def test_smoke_run_passes_the_gate_against_the_committed_baseline(
    name, bench_smoke
):
    fresh = bench_smoke(name)
    committed = _committed(name)
    assert fresh["generated_by"].endswith(" --smoke")
    assert len(set(_keys(fresh))) == len(fresh["records"])
    assert len(set(_keys(committed))) == len(committed["records"])
    assert set(_keys(fresh)) <= set(_keys(committed))
    assert check_report(committed, fresh) == []


@pytest.mark.parametrize("name", list(BENCH_SUITES))
def test_structural_values_are_ints_and_invariants_bools(name):
    for record in _committed(name)["records"]:
        assert set(record) == {"key", "recorded", "structural", "invariants"}
        assert all(
            type(value) is int for value in record["structural"].values()
        )
        assert all(value is True for value in record["invariants"].values())


@pytest.mark.slow
class TestRunBench:
    @pytest.fixture(scope="class")
    def smoke_report(self, bench_smoke):
        return bench_smoke("noise")

    @pytest.fixture(scope="class")
    def records(self, smoke_report):
        return {r["key"]["case"]: r for r in smoke_report["records"]}

    def test_report_shape(self, smoke_report):
        assert smoke_report["suite"] == "noise"
        assert smoke_report["smoke"] is True
        assert [r["key"]["case"] for r in smoke_report["records"]] == [
            "density", "trajectory", "workload", "workload"
        ]

    def test_density_suite_records_speedup_and_parity(self, records):
        density = records["density"]
        assert density["recorded"]["axis_local_seconds"] > 0
        assert density["recorded"]["dense_kron_seconds"] > 0
        assert density["recorded"]["speedup"] > 1.0
        assert density["recorded"]["parity_max_abs_diff"] < 1e-12
        assert density["invariants"] == {"parity_below_1e-12": True}

    def test_trajectory_suite_engines_agree(self, records):
        recorded = records["trajectory"]["recorded"]
        assert recorded["batched_seconds"] > 0
        assert recorded["looped_seconds"] > 0
        scale = max(recorded["combined_two_sigma"] * 2, 0.05)
        assert abs(
            recorded["batched_mean_fidelity"]
            - recorded["looped_mean_fidelity"]
        ) < scale
        assert records["trajectory"]["invariants"] == {"engines_agree": True}

    def test_workloads_are_physical(self, smoke_report):
        workloads = [
            r for r in smoke_report["records"]
            if r["key"]["case"] == "workload"
        ]
        assert workloads
        for record in workloads:
            assert 0.0 <= record["recorded"]["mean_fidelity"] <= 1.0 + 1e-9
            assert record["recorded"]["seconds"] > 0
            assert record["invariants"] == {
                "fidelity_in_unit_interval": True
            }

    def test_report_serializes_and_renders(self, smoke_report, tmp_path):
        path = write_report(smoke_report, tmp_path / "BENCH_noise.json")
        assert json.loads(path.read_text()) == smoke_report
        text = render_report(smoke_report)
        assert text.startswith("noise bench (smoke)")
        assert "case=density" in text and "speedup=" in text


@pytest.mark.slow
class TestBenchDensity:
    def test_custom_workload_record(self):
        record = bench_density(num_controls=2, repeats=1)
        assert record["structural"]["wires"] == 3
        assert record["structural"]["hilbert_dim"] == 27
        assert record["invariants"] == {"parity_below_1e-12": True}


class TestVerifyBench:
    def test_smoke_report_shape(self, bench_smoke):
        report = bench_smoke("verify")
        assert report["suite"] == "verify"
        speedup, widest = report["records"]
        assert speedup["recorded"]["batched_seconds"] > 0
        assert speedup["recorded"]["looped_seconds"] > 0
        assert speedup["invariants"] == {"decisions_agree": True}
        assert widest["invariants"] == {"covers_every_input": True}
        assert widest["structural"]["inputs"] == (
            2 ** widest["structural"]["width"]
        )
        assert "case=exhaustive" in render_report(report)

    def test_speedup_record_counts_every_input(self):
        record = bench_verify_speedup(num_controls=3, repeats=1)
        assert record["structural"]["inputs"] == 2**4
        assert record["structural"]["width"] == 4
        assert record["recorded"]["speedup"] > 0

    def test_width_record_covers_the_binary_space(self):
        record = bench_verify_width14(num_controls=5)
        assert record["structural"]["width"] == 6
        assert record["structural"]["inputs"] == 2**6
        assert record["recorded"]["seconds"] > 0

    def test_committed_width14_check(self):
        widest = [
            r for r in _committed("verify")["records"]
            if r["key"]["case"] == "exhaustive"
            and r["key"]["num_controls"] == 13
        ]
        assert len(widest) == 1
        assert widest[0]["structural"]["width"] == 14
        assert widest[0]["structural"]["inputs"] == 2**14


@pytest.mark.slow
class TestRouteBench:
    @pytest.fixture(scope="class")
    def route_report(self, bench_smoke):
        return bench_smoke("route")

    def test_report_shape(self, route_report):
        assert route_report["suite"] == "route"
        assert route_report["smoke"] is True
        text = render_report(route_report)
        assert "router=lookahead" in text and "router=greedy" in text

    def test_smoke_widths_are_a_prefix_of_full(self):
        # The gate joins smoke records against the committed full
        # report, so every smoke width must exist in the full sweep.
        assert ROUTE_SMOKE_WIDTHS == ROUTE_WIDTHS[: len(ROUTE_SMOKE_WIDTHS)]

    def test_records_are_complete_and_physical(self, route_report):
        for record in route_report["records"]:
            structural = record["structural"]
            assert structural["routed_depth"] >= structural["logical_depth"]
            assert structural["routed_two_qudit"] == (
                structural["logical_two_qudit"] + structural["swap_count"]
            )
            assert 0.0 < record["recorded"]["fidelity_proxy"] <= 1.0
            assert structural["sites"] >= structural["wires"]
            assert record["recorded"]["seconds"] > 0

    def test_all_to_all_is_free(self, route_report):
        for record in route_report["records"]:
            if record["key"]["topology_kind"] == "all_to_all":
                assert record["structural"]["swap_count"] == 0
                assert record["recorded"]["depth_overhead"] == 1.0

    def test_every_lookahead_record_claims_greedy_parity(self, route_report):
        for record in route_report["records"]:
            claims = set(record["invariants"])
            if record["key"]["router"] == "lookahead":
                assert claims == {"not_worse_than_greedy"}
            else:
                assert not claims

    def test_acceptance_lookahead_beats_greedy_on_n8_tree(self, route_report):
        swaps = {
            tuple(r["key"].values()): r["structural"]["swap_count"]
            for r in route_report["records"]
        }
        cells = [
            key for key in swaps
            if key[0] == "qutrit_tree" and key[1] >= 8
            and key[2] in ("line", "grid_2d") and key[3] == "lookahead"
        ]
        assert cells
        for key in cells:
            assert swaps[key] < swaps[(*key[:3], "greedy")]


class TestRouteCase:
    def test_single_case_record(self):
        record = bench_route_case("qutrit_tree", 4, "line", "lookahead")
        assert record["key"] == {
            "construction": "qutrit_tree",
            "num_controls": 4,
            "topology_kind": "line",
            "router": "lookahead",
        }
        assert record["structural"]["wires"] == 5


@pytest.mark.slow
class TestStateBench:
    @pytest.fixture(scope="class")
    def state_report(self, bench_smoke):
        return bench_smoke("state")

    def test_report_shape(self, state_report):
        assert state_report["suite"] == "state"
        assert state_report["smoke"] is True
        assert "case=fastpath" in render_report(state_report)

    def test_every_invariant_passes(self, state_report):
        for record in state_report["records"]:
            assert record["invariants"]
            for name, value in record["invariants"].items():
                assert value is True, f"{record['key']['case']}: {name}"

    def test_fastpath_record_is_exact(self, state_report):
        recorded = state_report["records"][0]["recorded"]
        assert recorded["parity_max_abs_diff"] == 0.0
        assert recorded["fast_seconds"] > 0
        assert recorded["dense_seconds"] > 0

    def test_sampling_record_is_deterministic(self, state_report):
        record = state_report["records"][1]
        assert record["recorded"]["chi_square_statistic"] <= (
            record["recorded"]["chi_square_critical"]
        )
        assert record["structural"]["distinct_outcomes"] >= 2

    def test_record_keys_join_smoke_to_full(self, state_report):
        assert [r["key"]["case"] for r in state_report["records"]] == [
            "fastpath", "sampling", "dtype", "fastpath_decomposed",
            "basis_support", "oneoff_compiled",
        ]

    def test_basis_support_record_stays_on_the_support(self, state_report):
        (record,) = [
            r for r in state_report["records"]
            if r["key"]["case"] == "basis_support"
        ]
        assert record["key"]["num_controls"] == 9
        structural = record["structural"]
        assert structural["moments_on_support"] == structural["moments"]
        assert structural["handed_over"] == 0
        assert record["recorded"]["parity_max_abs_diff"] <= 1e-12

    def test_oneoff_record_counts_the_compiled_circuits(self, state_report):
        record = state_report["records"][-1]
        assert record["structural"]["circuits"] == 28
        assert record["structural"]["warmup_circuits"] == 14
        assert record["recorded"]["engine_seconds"] > 0

    def test_committed_fastpath_covers_n10(self):
        fastpath = [
            r for r in _committed("state")["records"]
            if r["key"]["case"] == "fastpath"
        ]
        assert [r["key"]["num_controls"] for r in fastpath] == [6, 10]


def test_paper_gate_fails_when_the_qutrit_tree_builds_the_qubit_cascade(
    monkeypatch,
):
    from repro.analysis import figures
    from repro.analysis.bench import PAPER_SMOKE_SIZES, paper_figures, paper_table1
    from repro.analysis.metrics import construction_metrics
    from repro.toffoli.ancilla_free import build_ancilla_free_cascade
    from repro.toffoli.registry import CONSTRUCTIONS

    cascade = replace(CONSTRUCTIONS["qutrit_tree"],
                      builder=build_ancilla_free_cascade)
    monkeypatch.setitem(CONSTRUCTIONS, "qutrit_tree", cascade)
    monkeypatch.setitem(figures.BENCHMARK_CIRCUITS, "QUTRIT",
                        "qubit_ancilla_free")
    construction_metrics.cache_clear()
    try:
        sizes = PAPER_SMOKE_SIZES
        records = [*paper_figures(sizes), *paper_table1(sizes)]
    finally:
        construction_metrics.cache_clear()
    committed = _committed("paper")
    failures = check_report(committed, {**committed, "records": records})
    fig9, table1 = (f"claim={c} sizes=[8, 16, 32, 64]" for c in ("fig9", "table1"))
    assert f"{fig9}: invariant qutrit_depth_polylog failed" in failures
    assert f"{table1}: invariant qutrit_tree.depth_class failed" in failures
    assert any(f.startswith(f"{fig9}: QUTRIT.64 is ") for f in failures)
    assert any(f.startswith(f"{table1}: qutrit_tree.depth.64 is ")
               for f in failures)


def test_paper_suite_runs_past_a_failing_case(
    monkeypatch, tmp_path, capsys
):
    from repro.__main__ import main
    from repro.analysis import bench

    cases = ("paper_fig11", "paper_figures", "paper_table1", "paper_sec9",
             "paper_ablations", "paper_apps", "paper_facade",
             "paper_simulator")

    def stub(name):
        def case(*args):
            return [{"key": {"claim": name}, "recorded": {},
                     "structural": {"count": 1},
                     "invariants": {"holds": True}}]
        return case

    for name in cases:
        monkeypatch.setattr(bench, name, stub(name))
    baseline = tmp_path / "BENCH_paper.json"
    write_report(run_suite("paper", smoke=True), baseline)

    def paper_sec9(*args):
        raise RuntimeError("simulated case failure")

    monkeypatch.setattr(bench, "paper_sec9", paper_sec9)
    records = run_suite("paper", smoke=True)["records"]
    claims = [r["key"]["claim"] for r in records]
    assert claims == [
        name if name != "paper_sec9" else "case_failed" for name in cases
    ]
    (failed,) = [r for r in records if r["key"]["claim"] == "case_failed"]
    assert failed["key"]["case"] == "paper_sec9"
    assert failed["invariants"] == {"case_ran": False}
    assert "RuntimeError: simulated case failure" in (
        failed["recorded"]["traceback"]
    )
    capsys.readouterr()
    with pytest.raises(SystemExit) as raised:
        main(["bench", "--suite", "paper", "--smoke", "--out", "-",
              "--check", str(baseline)])
    assert raised.value.code == 1
    out = capsys.readouterr().out
    failures = out.split("paper regression check FAILED:")[1]
    assert "claim=case_failed case=paper_sec9:" in failures
    assert "case_ran=FAILED" in out
    assert "claim=paper_apps" in out


def test_suites_run_through_run_suite(monkeypatch):
    def suite(smoke, seed):
        return [{"key": {"smoke": smoke, "seed": seed}, "recorded": {},
                 "structural": {}, "invariants": {}}]

    monkeypatch.setitem(BENCH_SUITES, "route", suite)
    report = run_suite("route", smoke=True, seed=5)
    assert report["schema"] == SCHEMA
    assert report["suite"] == "route"
    assert report["generated_by"] == "python -m repro bench --suite route --smoke"
    assert report["records"][0]["key"] == {"smoke": True, "seed": 5}
    assert check_report(copy.deepcopy(report), report) == []
