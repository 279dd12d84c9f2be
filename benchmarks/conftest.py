"""Shared fixtures for the benchmark harness.

The benchmarks reproduce the paper's evaluation at full scale: a 56-day
synthetic dataset calibrated to Table 1, rolling 41-day training windows,
budgets 20 (single-type) and 50 (seven-type). The dataset is memoized per
process so every bench file shares one build.
"""

from __future__ import annotations

import pytest

from repro.experiments.dataset import build_alert_store
from repro.solvers.registry import warm_up

#: Dataset parameters shared by all benchmarks (paper scale: 56 days).
BENCH_SEED = 7
BENCH_DAYS = 56


@pytest.fixture(scope="session", autouse=True)
def solver_loaded():
    """SciPy loads on the first HiGHS solve: load it before any timing."""
    warm_up()


@pytest.fixture(scope="session")
def paper_store():
    """The 56-day calibrated alert store used across all benchmarks."""
    return build_alert_store(seed=BENCH_SEED, n_days=BENCH_DAYS)
