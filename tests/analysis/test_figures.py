"""Tests for the figure data generators."""


from repro.analysis.figures import (
    BENCHMARK_CIRCUITS,
    FIG11_PAIRS,
    PAPER_COUNT_FITS,
    PAPER_DEPTH_FITS,
    PAPER_FIG11_PERCENT,
    fig9_depth_data,
    fig10_gate_count_data,
    fig11_fidelity_data,
    render_fidelity_bars,
    render_series_table,
)
from repro.noise.presets import DRESSED_QUTRIT, SC_T1_GATES


class TestFig9:
    def test_series_for_all_three_circuits(self):
        data = fig9_depth_data([4, 8])
        assert set(data) == {"QUBIT", "QUBIT+ANCILLA", "QUTRIT"}
        for series in data.values():
            assert len(series) == 2

    def test_qutrit_is_shallowest(self):
        data = fig9_depth_data([16])
        assert data["QUTRIT"][0] < data["QUBIT+ANCILLA"][0]
        assert data["QUTRIT"][0] < data["QUBIT"][0]

    def test_qubit_is_deepest(self):
        data = fig9_depth_data([16])
        assert data["QUBIT"][0] > data["QUBIT+ANCILLA"][0]

    def test_paper_fits_preserve_ordering(self):
        for n in (50, 100, 200):
            assert (
                PAPER_DEPTH_FITS["QUTRIT"](n)
                < PAPER_DEPTH_FITS["QUBIT+ANCILLA"](n)
                < PAPER_DEPTH_FITS["QUBIT"](n)
            )


class TestFig10:
    def test_qutrit_count_is_lowest(self):
        data = fig10_gate_count_data([16])
        assert data["QUTRIT"][0] < data["QUBIT+ANCILLA"][0]
        assert data["QUTRIT"][0] < data["QUBIT"][0]

    def test_paper_count_fit_ratio(self):
        # 397/48 ~ 8x: the paper's single-ancilla gain.
        ratio = PAPER_COUNT_FITS["QUBIT"](10) / PAPER_COUNT_FITS[
            "QUBIT+ANCILLA"
        ](10)
        assert 8 < ratio < 8.5


class TestFig11:
    def test_small_run_produces_points(self):
        points = fig11_fidelity_data(
            [("QUTRIT", DRESSED_QUTRIT), ("QUTRIT", SC_T1_GATES)],
            num_controls=4,
            trials=5,
            seed=11,
        )
        assert len(points) == 2
        for point in points:
            assert 0.0 <= point.estimate.mean_fidelity <= 1.0
            assert point.paper_percent is not None

    def test_paper_reference_complete(self):
        # 16 bars in Figure 11.
        assert len(PAPER_FIG11_PERCENT) == 16
        labels = [(label, model.name) for label, model in FIG11_PAIRS]
        assert labels == list(PAPER_FIG11_PERCENT)

    def test_benchmark_names_resolve(self):
        from repro.toffoli.registry import CONSTRUCTIONS

        for name in BENCHMARK_CIRCUITS.values():
            assert name in CONSTRUCTIONS


class TestRenderers:
    def test_series_table_includes_paper_column(self):
        data = {"QUTRIT": [10, 14]}
        text = render_series_table(
            [4, 8], data, PAPER_DEPTH_FITS, "depth"
        )
        assert "QUTRIT" in text
        assert "76" in text  # 38*log2(4)

    def test_fidelity_bars_render(self):
        points = fig11_fidelity_data(
            [("QUTRIT", DRESSED_QUTRIT)], num_controls=3, trials=3, seed=1
        )
        text = render_fidelity_bars(points)
        assert "DRESSED_QUTRIT" in text
        assert "#" in text
