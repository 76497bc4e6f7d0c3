"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import ClassicalSimulator, StateVectorSimulator


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG; tests that need randomness share this seed."""
    return np.random.default_rng(20190622)  # the paper's conference date


@pytest.fixture
def classical_sim() -> ClassicalSimulator:
    return ClassicalSimulator()


@pytest.fixture
def state_sim() -> StateVectorSimulator:
    return StateVectorSimulator()


@pytest.fixture(scope="session")
def bench_smoke():
    """``bench_smoke(name)``: that bench suite's smoke report, run once
    per test session and shared by every module that reads it."""
    from repro.analysis.bench import run_suite

    reports: dict[str, dict] = {}

    def report(name: str) -> dict:
        if name not in reports:
            reports[name] = run_suite(name, smoke=True)
        return reports[name]

    return report
