"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestCli:
    def test_tables(self, capsys):
        assert main(["tables", "--sizes", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out and "Table 3" in out

    def test_figures(self, capsys):
        assert main(["figures", "--sizes", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "Figure 10" in out
        assert "QUTRIT" in out

    def test_fidelity_small(self, capsys):
        assert main(
            ["fidelity", "--controls", "3", "--trials", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "DRESSED_QUTRIT" in out

    def test_verify(self, capsys):
        assert main(["verify", "--controls", "3"]) == 0
        out = capsys.readouterr().out
        assert "qutrit_tree" in out and "verified" in out

    def test_verify_single_construction(self, capsys):
        assert main(["verify", "qutrit_tree", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "qutrit_tree" in out
        assert "verified 16 inputs, statevector oracle" in out
        assert "he_tree" not in out

    def test_verify_mismatch_exits_with_the_oracle_message(
        self, monkeypatch
    ):
        from repro.circuits.circuit import Circuit
        from repro.gates.qutrit import Z3
        from repro.toffoli import registry

        build = registry.build_toffoli

        def with_relative_phase(name, num_controls, **kwargs):
            result = build(name, num_controls, **kwargs)
            result.circuit += Circuit([Z3.on(result.controls[0])])
            return result

        monkeypatch.setattr(registry, "build_toffoli", with_relative_phase)
        with pytest.raises(SystemExit) as raised:
            main(["verify", "qutrit_tree", "-n", "3"])
        message = raised.value.code
        assert message.startswith("qutrit_tree: input [1, 0, 0, 0] ->")
        assert "statevector oracle" in message and "\n" not in message

    def test_verify_cap_refusal_exits_1_naming_undecomposed(self):
        # The decomposed width-14 tree is far past the dense cap; only
        # the permutation-level circuit checks in linear time.
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "verify", "qutrit_tree",
             "-n", "13"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert completed.returncode == 1
        assert completed.stdout == ""
        (line,) = completed.stderr.strip().splitlines()
        assert line.startswith("cannot verify qutrit_tree:")
        assert "--undecomposed" in line

    def test_verify_unknown_construction(self):
        with pytest.raises(SystemExit, match="unknown construction"):
            main(["verify", "nope", "-n", "3"])

    def test_verify_undecomposed_wide_circuit(self, capsys):
        # The paper's linear-cost classical check: permutation-level
        # circuits stay fast at widths where dense verification would
        # be hopeless (this is the width-11 variant of the width-14 run).
        assert main(
            ["verify", "qutrit_tree", "-n", "10", "--undecomposed"]
        ) == 0
        out = capsys.readouterr().out
        assert "verified 2048 inputs, classical oracle" in out

    def test_verify_undecomposed_rejected_for_permutation_native(self):
        with pytest.raises(SystemExit, match="does not take"):
            main(["verify", "wang_chain", "-n", "3", "--undecomposed"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunCommand:
    def test_statevector_shots(self, capsys):
        assert main([
            "run", "--construction", "qutrit_tree", "--controls", "3",
            "--backend", "statevector", "--shots", "5", "--seed", "1",
        ]) == 0
        assert "/5" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--backend", "statevector", "--trials", "3"],
         "backend 'statevector' does not take trials"),
        (["--backend", "trajectory", "--noise", "SC", "--shots", "3"],
         "backend 'trajectory' does not take shots"),
        (["--backend", "trajectory", "--noise", "SC", "--trials", "0"],
         "backend 'trajectory' needs trials >= 1, got 0"),
        (["--backend", "statevector", "--shots", "-2"],
         "backend 'statevector' needs shots >= 1, got -2"),
        (["--backend", "classical", "--shots", "4", "--sweep", "3", "4"],
         "backend 'classical' does not take shots"),
    ])
    def test_refused_options_exit_with_message(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            main(["run", "--construction", "qutrit_tree"] + argv)


class TestCircuitCli:
    def test_save_show_load_round_trip(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        assert main(
            [
                "circuit", "save", "--construction", "qutrit_tree",
                "--controls", "4", "--undecomposed", "--out", str(path),
            ]
        ) == 0
        assert path.exists()
        capsys.readouterr()

        assert main(["circuit", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "operations=" in out and "@1" in out

        assert main(
            [
                "circuit", "load", str(path), "--backend", "classical",
                "--input", "1", "1", "1", "1", "0",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "output values: (1, 1, 1, 1, 1)" in out

    def test_save_to_stdout(self, capsys):
        assert main(
            [
                "circuit", "save", "--construction", "wang_chain",
                "--controls", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert '"version":2' in out.replace(" ", "")

    def test_saved_circuit_is_loadable_json(self, tmp_path, capsys):
        from repro.circuits.circuit import Circuit
        from repro.toffoli.registry import build_toffoli

        path = tmp_path / "lowered.json"
        assert main(
            [
                "circuit", "save", "--construction", "qutrit_tree",
                "--controls", "4", "--pipeline", "lowering",
                "--out", str(path), "--pretty",
            ]
        ) == 0
        saved = Circuit.from_json(path.read_text())
        assert saved == build_toffoli("qutrit_tree", 4).circuit

    def test_load_rejects_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot load"):
            main(["circuit", "show", str(path)])
        with pytest.raises(SystemExit, match="cannot read"):
            main(["circuit", "show", str(tmp_path / "missing.json")])


class TestRouteCommand:
    def test_route_default_table(self, capsys):
        assert main(["route", "--controls", "4"]) == 0
        out = capsys.readouterr().out
        assert "routing qutrit_tree(N=4)" in out
        assert "line(5)" in out and "all-to-all(5)" in out
        assert "lookahead" in out

    def test_route_both_routers_with_noise(self, capsys):
        assert main(
            [
                "route", "--controls", "4", "--topology", "line",
                "--router", "both", "--noise", "SC",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "lookahead" in out
        assert "fid~" in out

    def test_route_trajectory_estimate(self, capsys):
        assert main(
            [
                "route", "--controls", "3", "--topology", "line",
                "--noise", "SC", "--trials", "10",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fid(mc)" in out and "±" in out

    def test_route_trials_require_noise(self):
        with pytest.raises(SystemExit, match="needs --noise"):
            main(["route", "--controls", "3", "--trials", "5"])

    def test_route_unknown_noise_rejected(self):
        with pytest.raises(SystemExit, match="unknown noise model"):
            main(["route", "--controls", "3", "--noise", "NOPE"])

    def test_route_unknown_topology_rejected(self):
        with pytest.raises(SystemExit, match="unknown topology"):
            main(["route", "--controls", "3", "--topology", "torus"])

    def test_route_saved_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert main(
            [
                "circuit", "save", "--construction", "qutrit_tree",
                "--controls", "3", "--out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["route", "--file", str(path), "--topology", "ring"]
        ) == 0
        out = capsys.readouterr().out
        assert "ring(4)" in out

    def test_route_router_knobs(self, capsys):
        assert main(
            [
                "route", "--controls", "4", "--topology", "grid_2d",
                "--lookahead", "4", "--placement-trials", "0",
                "--seed", "7",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "grid" in out


def _bench(suite, out, *extra):
    return main(["bench", "--suite", suite, "--smoke", "--out", out, *extra])


class TestBenchRouteCheck:
    def _fresh_smoke_report(self):
        from repro.analysis.bench import run_route_bench

        return run_route_bench(smoke=True)

    def test_check_route_passes_against_identical_baseline(
        self, tmp_path, capsys
    ):
        import json

        report = self._fresh_smoke_report()
        baseline = tmp_path / "BENCH_route.json"
        baseline.write_text(json.dumps(report))
        fresh = str(tmp_path / "fresh.json")
        assert _bench("route", fresh, "--check", str(baseline)) == 0
        out = capsys.readouterr().out
        assert "route regression check passed" in out

    def test_check_route_fails_on_degraded_baseline(self, tmp_path, capsys):
        import json

        report = self._fresh_smoke_report()
        shrunk = json.loads(json.dumps(report))
        for record in shrunk["records"]:
            record["routed_depth"] = max(
                1, record["routed_depth"] // 10
            )
        baseline = tmp_path / "BENCH_route.json"
        baseline.write_text(json.dumps(shrunk))
        with pytest.raises(SystemExit):
            _bench("route", "-", "--check", str(baseline))
        out = capsys.readouterr().out
        assert "route regression check FAILED" in out

    def test_check_route_unreadable_baseline(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            _bench("route", "-", "--check", str(tmp_path / "missing.json"))


class TestBenchOptCheck:
    @pytest.fixture(scope="class")
    def smoke_report(self):
        from repro.analysis.bench import run_opt_bench

        return run_opt_bench(smoke=True)

    def test_check_opt_passes_against_identical_baseline(
        self, smoke_report, tmp_path, capsys
    ):
        import json

        baseline = tmp_path / "BENCH_opt.json"
        baseline.write_text(json.dumps(smoke_report))
        fresh = tmp_path / "fresh.json"
        assert _bench("opt", str(fresh), "--check", str(baseline)) == 0
        out = capsys.readouterr().out
        assert "opt regression check passed" in out
        assert json.loads(fresh.read_text())["generated_by"] == (
            "python -m repro bench --suite opt --smoke"
        )

    def test_check_opt_fails_on_inflated_baseline(
        self, smoke_report, tmp_path, capsys
    ):
        import json

        inflated = json.loads(json.dumps(smoke_report))
        for record in inflated["records"]:
            record["gates_removed"] += 5
        baseline = tmp_path / "BENCH_opt.json"
        baseline.write_text(json.dumps(inflated))
        with pytest.raises(SystemExit):
            _bench("opt", "-", "--check", str(baseline))
        out = capsys.readouterr().out
        assert "opt regression check FAILED" in out

    def test_check_opt_unreadable_baseline(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            _bench("opt", "-", "--check", str(tmp_path / "missing.json"))


class TestBenchSuiteErrors:
    @pytest.mark.parametrize(
        "suite, runner", [("noise", "run_bench"), ("verify", "run_verify_bench")]
    )
    def test_check_on_gateless_suite_refused_before_running(
        self, suite, runner, monkeypatch
    ):
        from repro.analysis import bench as bench_module

        def refuse(*args, **kwargs):
            raise AssertionError(f"suite {suite!r} ran")

        monkeypatch.setattr(bench_module, runner, refuse)
        with pytest.raises(SystemExit, match="has no regression gate"):
            _bench(suite, "-", "--check", f"BENCH_{suite}.json")

    @pytest.mark.parametrize(
        "flag, message",
        [("--check", "--check needs a single --suite"),
         ("--out", "--out needs a single --suite")],
    )
    def test_suite_all_rejects_per_suite_flags(self, flag, message):
        with pytest.raises(SystemExit, match=message):
            main(["bench", "--suite", "all", flag, "BENCH_route.json"])

    def test_suite_is_required(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["bench", "--smoke"])
        assert raised.value.code == 2
        assert "--suite" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_optimize_reports_reduction(self, capsys):
        assert main(
            ["optimize", "--construction", "he_tree", "--controls", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimizing he_tree(N=3)" in out
        assert "gates 61 -> 41" in out
        assert "cancel-inverses" in out
        assert "equivalence: statevector" in out

    def test_optimize_pass_selection(self, capsys):
        assert main(
            [
                "optimize", "--construction", "he_tree", "--controls", "3",
                "--passes", "cancel-inverses",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cancel-inverses" in out
        assert "fuse-phases" not in out

    def test_optimize_strict_mismatch_exits_with_the_oracle_message(
        self, monkeypatch
    ):
        from repro.circuits.circuit import Circuit
        from repro.optimize import CancelAdjacentInverses, PassStats

        def drop_first_gate(self, circuit):
            ops = list(circuit.all_operations())
            return Circuit(ops[1:]), PassStats(
                self.name, applications=1, gates_removed=1
            )

        monkeypatch.setattr(CancelAdjacentInverses, "run", drop_first_gate)
        with pytest.raises(SystemExit) as raised:
            main(
                [
                    "optimize", "--construction", "he_tree",
                    "--controls", "3", "--passes", "cancel-inverses",
                    "--verify", "strict",
                ]
            )
        message = raised.value.code
        assert message.startswith("optimization: input [")
        assert "statevector oracle" in message

    def test_optimize_verify_off(self, capsys):
        assert main(
            [
                "optimize", "--construction", "he_tree", "--controls", "3",
                "--verify", "off",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "equivalence:" not in out

    def test_optimize_after_pipeline(self, capsys):
        assert main(
            [
                "optimize", "--construction", "he_tree", "--controls", "3",
                "--pipeline", "hardware-line",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "optimizing he_tree(N=3)" in out

    def test_optimize_writes_circuit(self, tmp_path, capsys):
        from repro.circuits.circuit import Circuit

        path = tmp_path / "opt.json"
        assert main(
            [
                "optimize", "--construction", "he_tree", "--controls", "3",
                "--out", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert Circuit.from_json(path.read_text()).num_operations == 41

    def test_optimize_saved_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert main(
            [
                "circuit", "save", "--construction", "he_tree",
                "--controls", "3", "--out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["optimize", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"optimizing {path}" in out
        assert "gates 61 -> 41" in out

    def test_optimize_gate_count_cost_model(self, capsys):
        assert main(
            [
                "optimize", "--construction", "he_tree", "--controls", "3",
                "--cost-model", "gate-count",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "gate-count cost model" in out
