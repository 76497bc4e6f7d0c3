"""Tests for scaling-law fitting."""

import numpy as np
import pytest

from repro.analysis.scaling import MODELS, best_fit, fit_model


class TestFitModel:
    def test_exact_linear_recovered(self):
        ns = [4, 8, 16, 32]
        fit = fit_model(ns, [5 * n for n in ns], "N")
        assert np.isclose(fit.coefficient, 5.0)
        assert fit.relative_rmse < 1e-12

    def test_exact_log_recovered(self):
        ns = [4, 8, 16, 32, 64]
        fit = fit_model(ns, [38 * np.log2(n) for n in ns], "log2(N)")
        assert np.isclose(fit.coefficient, 38.0)

    def test_exact_quadratic_recovered(self):
        ns = [4, 8, 16]
        fit = fit_model(ns, [2 * n * n for n in ns], "N^2")
        assert np.isclose(fit.coefficient, 2.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            fit_model([1, 2], [1, 2], "exp(N)")

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_model([4], [5], "N")


class TestBestFit:
    def test_selects_linear_for_linear_data(self):
        ns = [8, 16, 32, 64, 128]
        fit = best_fit(ns, [6 * n + 1 for n in ns])
        assert fit.model == "N"

    def test_selects_log_for_log_data(self):
        ns = [8, 16, 32, 64, 128, 256]
        fit = best_fit(ns, [38 * np.log2(n) for n in ns])
        assert fit.model == "log2(N)"

    def test_selects_quadratic_for_quadratic_data(self):
        ns = [8, 16, 32, 64]
        fit = best_fit(ns, [0.5 * n * n + n for n in ns])
        assert fit.model == "N^2"

    def test_candidate_restriction(self):
        ns = [8, 16, 32]
        fit = best_fit(ns, [n**2 for n in ns], candidates=["N", "log2(N)"])
        assert fit.model in ("N", "log2(N)")

    def test_all_models_evaluate(self):
        ns = np.array([4.0, 8.0, 16.0])
        for basis in MODELS.values():
            assert basis(ns).shape == ns.shape

